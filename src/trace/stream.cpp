#include "trace/stream.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "trace/codec.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace slmob {

// ---------------------------------------------------------------------------
// DegradationTracker

bool DegradationTracker::accepts(Seconds time, std::uint32_t factor) const {
  return factor == factor_ || factor_ < 2 || windows_.admits({open_start_, time, factor_});
}

void DegradationTracker::set_factor(Seconds time, std::uint32_t factor) {
  if (factor == factor_) return;
  if (factor_ > 1) windows_.add({open_start_, time, factor_});
  factor_ = factor;
  open_start_ = time;
}

// ---------------------------------------------------------------------------
// SummaryTracker

void SummaryTracker::on_snapshot(const Snapshot& snapshot) {
  if (snapshots_ == 0) first_time_ = snapshot.time;
  last_time_ = snapshot.time;
  ++snapshots_;
  total_fixes_ += snapshot.fixes.size();
  max_concurrent_ = std::max(max_concurrent_, snapshot.fixes.size());
  for (const auto& fix : snapshot.fixes) users_.insert(fix.id.value);
}

TraceSummary SummaryTracker::summary() const {
  TraceSummary s;
  s.snapshot_count = snapshots_;
  s.gap_count = gaps_.gaps().size();
  s.gap_seconds = gaps_.gap_seconds();
  s.degradation_count = rates_.windows().size();
  s.degraded_seconds = rates_.degraded_seconds();
  if (snapshots_ == 0) return s;
  s.unique_users = users_.size();
  s.max_concurrent = max_concurrent_;
  s.avg_concurrent = static_cast<double>(total_fixes_) / static_cast<double>(snapshots_);
  s.duration = last_time_ - first_time_;
  return s;
}

// ---------------------------------------------------------------------------
// MemoryTraceStream

// The rate-change cursor walks the windows' boundaries: boundary 2k is
// window k's start, where the factor becomes windows[k].factor; 2k+1 its
// end, where it falls back to 1. A rate change goes out before the first
// snapshot at or past its time, and before any gap at or past it
// (boundaries and gaps never interleave ambiguously: the crawler closes
// degradation windows at gap edges). A gap goes out before the first
// snapshot at or past its start (the ordering contract in the header
// comment). Boundaries and gaps past the last snapshot still go out, so
// every opened window is closed before kEnd.
StreamEvent MemoryTraceStream::next() {
  const auto& snaps = trace_->snapshots();
  const auto& gaps = trace_->gaps();
  const auto& windows = trace_->degradations();
  const Snapshot* pending = snap_next_ < snaps.size() ? &snaps[snap_next_] : nullptr;
  StreamEvent ev;
  const std::size_t w = rate_next_ / 2;
  if (w < windows.size()) {
    const bool opens = rate_next_ % 2 == 0;
    const Seconds time = opens ? windows[w].start : windows[w].end;
    if ((pending == nullptr || time <= pending->time) &&
        (gap_next_ >= gaps.size() || time <= gaps[gap_next_].start)) {
      ++rate_next_;
      ev.kind = StreamEventKind::kRateChange;
      ev.time = time;
      ev.factor = opens ? windows[w].factor : 1;
      return ev;
    }
  }
  if (gap_next_ < gaps.size() && (pending == nullptr || gaps[gap_next_].start <= pending->time)) {
    ev.kind = StreamEventKind::kGap;
    ev.gap = gaps[gap_next_++];
    return ev;
  }
  if (pending != nullptr) {
    ev.kind = StreamEventKind::kSnapshot;
    ev.snapshot = pending;
    ++snap_next_;
  }
  return ev;
}

// ---------------------------------------------------------------------------
// JournalFileStream

JournalFileStream::JournalFileStream(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("open_trace_stream: cannot open " + path);
  }
  std::error_code ec;
  file_size_ = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("open_trace_stream: cannot stat " + path);
  std::uint8_t header[kJournalHeaderBytes];
  if (std::fread(header, 1, kJournalHeaderBytes, file_) != kJournalHeaderBytes ||
      !std::equal(header, header + 4, kJournalMagic)) {
    throw DecodeError("salvage_journal: bad magic");
  }
  if (ByteReader(std::span{header}.subspan(4, 2)).u16() != kJournalVersion) {
    throw DecodeError("salvage_journal: unsupported version");
  }
  bytes_kept_ = kJournalHeaderBytes;

  // The kBegin frame carries the stream identity (land, interval, planned
  // end); a journal without one never held a complete record.
  if (!read_frame()) {
    throw DecodeError("salvage_journal: no intact begin frame");
  }
  ByteReader r(frame_buf_);
  if (r.remaining() == 0 || static_cast<JournalRecord>(r.u8()) != JournalRecord::kBegin) {
    throw DecodeError("salvage_journal: first frame is not kBegin");
  }
  try {
    land_ = r.str();
    interval_ = r.f64();
    planned_end_ = r.f64();
    if (!r.at_end()) throw DecodeError("trailing bytes");
  } catch (const DecodeError&) {
    throw DecodeError("salvage_journal: no intact begin frame");
  }
  // Every censoring boundary is computed from these two; a value that
  // cannot bound a gap makes the journal unreadable, not the tear.
  if (!(interval_ > 0.0) || !std::isfinite(interval_) || !std::isfinite(planned_end_)) {
    throw DecodeError("salvage_journal: begin frame has an unusable interval or end");
  }
  bytes_kept_ += kFrameHeadBytes + frame_buf_.size();
  frames_read_ = 1;
}

JournalFileStream::~JournalFileStream() {
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  if (file_ != nullptr) std::fclose(file_);
}

// bytes_kept_ is the read position here: every frame read so far was kept.
// The file is read as it was at open, so a frame longer than the bytes left
// then is the tear, found before anything is sized by its length.
bool JournalFileStream::read_frame() {
  if (torn_ || bytes_kept_ == file_size_) return false;
  std::uint8_t head[kFrameHeadBytes];
  if (std::fread(head, 1, sizeof head, file_) != sizeof head) {
    torn_ = true;  // leftover bytes after the last whole frame
    return false;
  }
  ByteReader r(head);
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (len > kMaxFramePayload || kFrameHeadBytes + len > file_size_ - bytes_kept_) {
    torn_ = true;
    return false;
  }
  frame_buf_.resize(len);
  torn_ = (len > 0 && std::fread(frame_buf_.data(), 1, len, file_) != len) ||
          crc32(frame_buf_) != crc;
  return !torn_;
}

bool JournalFileStream::gap_start_ok(Seconds start) const {
  // A gap goes out before any snapshot at or past its start (the ordering
  // contract), and its bounds must be finite to compute censoring from.
  return std::isfinite(start) && !(have_snapshot_ && start <= last_snapshot_time_);
}

StreamEvent JournalFileStream::rate_change(Seconds time, std::uint32_t factor) {
  rates_.set_factor(time, factor);
  StreamEvent ev;
  ev.kind = StreamEventKind::kRateChange;
  ev.time = time;
  ev.factor = factor;
  return ev;
}

StreamEvent JournalFileStream::finalize() {
  if (!finalized_) {
    finalized_ = true;
    // A journal that did not finish with kEnd belongs to a run that died,
    // so the unrun remainder of the planned run becomes a trailing gap
    // (unless no snapshot was ever taken, in which case the trace simply
    // starts later). Analyses then never mistake "the process was killed"
    // for "the land emptied".
    if (!clean_end_ && have_snapshot_) {
      const Seconds last_gap_end = gaps_.any() ? gaps_.gaps().back().end : 0.0;
      const Seconds start = gap_pending_
                                ? gap_pending_start_
                                : std::max(last_snapshot_time_ + interval_, last_gap_end);
      trailing_gap_ = {start, std::max(planned_end_, start + interval_)};
      // Only times too large to add an interval to leave it empty.
      have_trailing_gap_ = trailing_gap_.start < trailing_gap_.end;
      // A degradation window still open at the tear ends at the censoring
      // boundary: the degraded snapshots already captured stay
      // rate-corrected, the unrun remainder is covered by the gap, and the
      // rate change back to 1 precedes it.
      have_trailing_rate_ = rates_.current_factor() > 1 && rates_.accepts(start, 1);
      trailing_rate_time_ = start;
    }
  }
  if (have_trailing_rate_) {
    have_trailing_rate_ = false;
    return rate_change(trailing_rate_time_, 1);
  }
  if (have_trailing_gap_) {
    have_trailing_gap_ = false;
    StreamEvent ev;
    ev.kind = StreamEventKind::kGap;
    ev.gap = trailing_gap_;
    return ev;
  }
  end_emitted_ = true;
  return {};
}

StreamEvent JournalFileStream::next() {
  if (end_emitted_) return {};
  if (finalized_) return finalize();
  for (;;) {
    if (!read_frame()) return finalize();
    StreamEvent ev;
    bool have_event = false;
    bool frame_ok = true;
    try {
      ByteReader r(frame_buf_);
      const auto type = static_cast<JournalRecord>(r.u8());
      switch (type) {
        case JournalRecord::kSnapshot: {
          get_snapshot(r, current_);
          if (!r.at_end() || (have_snapshot_ && current_.time < last_snapshot_time_) ||
              (gap_pending_ && current_.time >= gap_pending_start_)) {
            frame_ok = false;
            break;
          }
          last_snapshot_time_ = current_.time;
          have_snapshot_ = true;
          ++snapshot_frames_;
          ev.kind = StreamEventKind::kSnapshot;
          ev.snapshot = &current_;
          have_event = true;
          break;
        }
        case JournalRecord::kGapOpen: {
          const Seconds start = r.f64();
          if (!r.at_end() || !gap_start_ok(start) || !gaps_.admits({start, kOpenEnd})) {
            frame_ok = false;
            break;
          }
          gap_pending_ = true;
          gap_pending_start_ = start;
          break;
        }
        case JournalRecord::kGapClose: {
          const CoverageGap gap = get_gap(r);
          if (!r.at_end() || !gap_start_ok(gap.start) || !std::isfinite(gap.end) ||
              !gaps_.admits(gap)) {
            frame_ok = false;
            break;
          }
          gaps_.add(gap.start, gap.end);
          gap_pending_ = false;
          ev.kind = StreamEventKind::kGap;
          ev.gap = gap;
          have_event = true;
          break;
        }
        case JournalRecord::kSession:
          // The whole record decodes, or the frame is the tear; only the
          // time is kept.
          ev.time = r.f64();
          (void)r.u8();   // event code
          (void)r.str();  // detail
          if (!r.at_end()) {
            frame_ok = false;
            break;
          }
          ++session_events_;
          ev.kind = StreamEventKind::kSessionEvent;
          have_event = true;
          break;
        case JournalRecord::kDegradeOpen: {
          const Seconds start = r.f64();
          const std::uint32_t factor = r.u32();
          if (!r.at_end() || !rates_.admits({start, kOpenEnd, factor}) ||
              !rates_.accepts(start, factor)) {
            frame_ok = false;
            break;
          }
          ev = rate_change(start, factor);
          have_event = true;
          break;
        }
        case JournalRecord::kDegradeClose: {
          // The record names the window it closes; the rate change closes
          // the window open since the last change.
          const SamplingDegradation window = get_window(r);
          if (!r.at_end() || !rates_.admits(window) || !rates_.accepts(window.end, 1)) {
            frame_ok = false;
            break;
          }
          ev = rate_change(window.end, 1);
          have_event = true;
          break;
        }
        case JournalRecord::kEnd:
          (void)r.f64();  // end time: decoded only to find the record's end
          if (!r.at_end()) {
            frame_ok = false;
            break;
          }
          clean_end_ = true;
          break;
        default:
          // Includes a second kBegin: events already emitted cannot be
          // taken back, so a restarted journal tears there.
          frame_ok = false;
          break;
      }
      if (type != JournalRecord::kEnd && clean_end_) clean_end_ = false;
    } catch (const DecodeError&) {
      frame_ok = false;
    }
    if (!frame_ok) {
      torn_ = true;
      return finalize();
    }
    bytes_kept_ += kFrameHeadBytes + frame_buf_.size();
    ++frames_read_;
    if (have_event) return ev;
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<TraceStream> open_trace_stream(const std::string& path) {
  if (path.ends_with(".csv")) {
    // CSV has no incremental framing worth exploiting; load and stream from
    // memory with the same land/interval defaults read_any uses.
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("open_trace_stream: cannot open " + path);
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    return std::make_unique<MemoryTraceStream>(trace_from_csv(text, path, 10.0));
  }
  return std::make_unique<JournalFileStream>(path);
}

Trace collect_trace(TraceStream& stream) {
  Trace trace(stream.land_name(), stream.sampling_interval());
  DegradationTracker rates;
  for (;;) {
    const StreamEvent ev = stream.next();
    switch (ev.kind) {
      case StreamEventKind::kSnapshot:
        trace.add(*ev.snapshot);
        break;
      case StreamEventKind::kGap:
        trace.add_gap(ev.gap.start, ev.gap.end);
        break;
      case StreamEventKind::kRateChange:
        rates.set_factor(ev.time, ev.factor);
        break;
      case StreamEventKind::kSessionEvent:
        break;
      case StreamEventKind::kEnd:
        for (const auto& w : rates.windows()) trace.add_degradation(w.start, w.end, w.factor);
        return trace;
    }
  }
}

TraceSummary summarize(TraceStream& stream) {
  SummaryTracker tracker;
  drive_stream(stream, tracker);
  return tracker.summary();
}

void drive_stream(TraceStream& stream, LiveTraceSink& sink) {
  sink.on_begin(stream.land_name(), stream.sampling_interval());
  for (;;) {
    const StreamEvent ev = stream.next();
    switch (ev.kind) {
      case StreamEventKind::kSnapshot:
        sink.on_snapshot(*ev.snapshot);
        break;
      case StreamEventKind::kGap:
        sink.on_gap(ev.gap.start, ev.gap.end);
        break;
      case StreamEventKind::kRateChange:
        sink.on_rate_change(ev.time, ev.factor);
        break;
      case StreamEventKind::kSessionEvent:
        break;
      case StreamEventKind::kEnd:
        return;
    }
  }
}

}  // namespace slmob
