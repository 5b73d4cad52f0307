#include "trace/stream.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace slmob {
namespace {

// Frames are one snapshot (or less); a length beyond this is torn garbage,
// not a record.
constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;
// Wire sizes shared by .slt and .sltj: a fix is u32 id + 3 x f32 position,
// a gap f64 start + f64 end, a degradation window those plus u32 factor.
constexpr std::size_t kFixBytes = 16;
constexpr std::size_t kGapBytes = 16;
constexpr std::size_t kDegradationBytes = 20;

bool has_suffix(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The count comes from the file: it is checked against the bytes left
// before anything is sized by it. A NaN or infinite coordinate is no
// position, so the block is rejected like a non-finite snapshot time.
void decode_fixes(ByteReader& r, std::uint32_t count, Snapshot& out) {
  if (kFixBytes * count > r.remaining()) throw DecodeError("truncated fix block");
  out.fixes.clear();
  out.fixes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    AvatarFix fix;
    fix.id = AvatarId{r.u32()};
    fix.pos.x = r.f32();
    fix.pos.y = r.f32();
    fix.pos.z = r.f32();
    if (!fix.pos.finite()) throw DecodeError("non-finite fix coordinate");
    out.fixes.push_back(fix);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// GapTracker

void GapTracker::add(Seconds start, Seconds end) {
  if (!(start < end)) {
    throw std::invalid_argument("Trace::add_gap: gap must have start < end");
  }
  if (!gaps_.empty() && start < gaps_.back().end) {
    throw std::invalid_argument("Trace::add_gap: gaps must be ordered and disjoint");
  }
  gaps_.push_back({start, end});
}

bool GapTracker::covered_at(Seconds t) const {
  for (const auto& gap : gaps_) {
    if (gap.contains(t)) return false;
    if (gap.start > t) break;  // gaps are ordered
  }
  return true;
}

bool GapTracker::spans_gap(Seconds t0, Seconds t1) const {
  for (const auto& gap : gaps_) {
    if (gap.start < t1 && gap.end > t0) return true;
    if (gap.start >= t1) break;
  }
  return false;
}

Seconds GapTracker::next_gap_start(Seconds t) const {
  for (const auto& gap : gaps_) {
    if (gap.end > t) return gap.start;
  }
  return t;
}

Seconds GapTracker::gap_seconds() const {
  Seconds total = 0.0;
  for (const auto& gap : gaps_) total += gap.length();
  return total;
}

// ---------------------------------------------------------------------------
// DegradationTracker

void DegradationTracker::set_factor(Seconds time, std::uint32_t factor) {
  if (factor == factor_) return;
  if (factor_ > 1) {
    if (!(open_start_ < time)) {
      throw std::invalid_argument("Trace::add_degradation: window must have start < end");
    }
    if (!windows_.empty() && open_start_ < windows_.back().end) {
      throw std::invalid_argument(
          "Trace::add_degradation: windows must be ordered and disjoint");
    }
    windows_.push_back({open_start_, time, factor_});
  }
  factor_ = factor;
  open_start_ = time;
}

Seconds DegradationTracker::degraded_seconds() const {
  Seconds total = 0.0;
  for (const auto& w : windows_) total += w.length();
  return total;
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

namespace {

// Rate-change boundary for a degradation-window list under the cursor scheme
// used by MemoryTraceStream / SltFileStream: event 2k is window k's start
// (factor becomes windows[k].factor), event 2k+1 its end (factor back to 1).
bool rate_boundary(const std::vector<SamplingDegradation>& windows, std::size_t idx,
                   Seconds& time, std::uint32_t& factor) {
  const std::size_t w = idx / 2;
  if (w >= windows.size()) return false;
  if (idx % 2 == 0) {
    time = windows[w].start;
    factor = windows[w].factor;
  } else {
    time = windows[w].end;
    factor = 1;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryTraceStream

StreamEvent MemoryTraceStream::next() {
  const auto& snaps = trace_->snapshots();
  const auto& gaps = trace_->gaps();
  // A rate change goes out before the first snapshot at or past its time,
  // and before any gap at or past it (boundaries and gaps never interleave
  // ambiguously: the crawler closes degradation windows at gap edges).
  Seconds rate_time = 0.0;
  std::uint32_t rate_factor = 1;
  const bool have_rate = rate_boundary(trace_->degradations(), rate_next_, rate_time, rate_factor);
  if (have_rate &&
      (snap_next_ >= snaps.size() || rate_time <= snaps[snap_next_].time) &&
      (gap_next_ >= gaps.size() || rate_time <= gaps[gap_next_].start)) {
    ++rate_next_;
    StreamEvent ev;
    ev.kind = StreamEventKind::kRateChange;
    ev.time = rate_time;
    ev.factor = rate_factor;
    return ev;
  }
  // A gap goes out before the first snapshot at or past its start (the
  // ordering contract in the header comment).
  if (gap_next_ < gaps.size() &&
      (snap_next_ >= snaps.size() || gaps[gap_next_].start <= snaps[snap_next_].time)) {
    StreamEvent ev;
    ev.kind = StreamEventKind::kGap;
    ev.gap = gaps[gap_next_++];
    return ev;
  }
  if (snap_next_ < snaps.size()) {
    StreamEvent ev;
    ev.kind = StreamEventKind::kSnapshot;
    ev.snapshot = &snaps[snap_next_++];
    return ev;
  }
  if (have_rate) {
    // Trailing boundaries (window ends past the last snapshot) still go out
    // so every opened window is closed before kEnd.
    ++rate_next_;
    StreamEvent ev;
    ev.kind = StreamEventKind::kRateChange;
    ev.time = rate_time;
    ev.factor = rate_factor;
    return ev;
  }
  return {};
}

// ---------------------------------------------------------------------------
// SltFileStream

SltFileStream::SltFileStream(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("open_trace_stream: cannot open " + path);
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    throw std::runtime_error("open_trace_stream: cannot seek " + path);
  }
  const long file_size = std::ftell(file_);
  std::rewind(file_);
  // Counts read from the file are checked against this before anything is
  // sized or skipped by them.
  const auto bytes_left = [&] { return static_cast<std::uint64_t>(file_size - std::ftell(file_)); };

  // Header: magic, version, land name, sampling interval, snapshot count.
  read_exact(6);
  if (!std::equal(buf_.begin(), buf_.begin() + 4, kSltMagic)) {
    throw DecodeError("load_trace: bad magic");
  }
  std::uint16_t version = 0;
  {
    ByteReader r(std::span{buf_}.subspan(4, 2));
    version = r.u16();
  }
  if (version < 1 || version > kSltVersion) {
    throw DecodeError("load_trace: unsupported version");
  }
  read_exact(2);
  std::uint16_t land_len = 0;
  {
    ByteReader r(buf_);
    land_len = r.u16();
  }
  read_exact(land_len);
  land_.assign(reinterpret_cast<const char*>(buf_.data()), land_len);
  read_exact(12);
  {
    ByteReader r(buf_);
    interval_ = r.f64();
    snap_count_ = r.u32();
  }
  const long data_offset = std::ftell(file_);

  // Skip-scan: walk the snapshot headers (seeking over the fixes) to reach
  // the gap and degradation blocks and validate framing, then rewind. This
  // touches 12 bytes per snapshot, so it is I/O-cheap even for very long
  // traces.
  Seconds prev_time = 0.0;
  for (std::uint32_t i = 0; i < snap_count_; ++i) {
    read_exact(12);
    Seconds time = 0.0;
    std::uint32_t fix_count = 0;
    {
      ByteReader r(buf_);
      time = r.f64();
      fix_count = r.u32();
    }
    if (i > 0 && !(time >= prev_time)) {
      throw DecodeError("load_trace: snapshot times go backwards");
    }
    prev_time = time;
    const std::uint64_t fix_bytes = kFixBytes * fix_count;
    if (fix_bytes > bytes_left()) {
      throw DecodeError("load_trace: truncated snapshot block");
    }
    if (std::fseek(file_, static_cast<long>(fix_bytes), SEEK_CUR) != 0) {
      throw std::runtime_error("open_trace_stream: cannot seek " + path);
    }
  }
  if (version >= 2) {
    read_exact(4);
    std::uint32_t gap_count = 0;
    {
      ByteReader r(buf_);
      gap_count = r.u32();
    }
    if (kGapBytes * gap_count > bytes_left()) {
      throw DecodeError("load_trace: truncated gap block");
    }
    gaps_.reserve(gap_count);
    for (std::uint32_t i = 0; i < gap_count; ++i) {
      read_exact(kGapBytes);
      ByteReader r(buf_);
      const Seconds start = r.f64();
      const Seconds end = r.f64();
      if (!(start < end) || (!gaps_.empty() && !(start >= gaps_.back().end))) {
        throw DecodeError("load_trace: gaps must be non-empty, ordered and disjoint");
      }
      gaps_.push_back({start, end});
    }
  }
  if (version >= 3) {
    read_exact(4);
    std::uint32_t degr_count = 0;
    {
      ByteReader r(buf_);
      degr_count = r.u32();
    }
    if (kDegradationBytes * degr_count > bytes_left()) {
      throw DecodeError("load_trace: truncated degradation block");
    }
    degradations_.reserve(degr_count);
    for (std::uint32_t i = 0; i < degr_count; ++i) {
      read_exact(kDegradationBytes);
      ByteReader r(buf_);
      const Seconds start = r.f64();
      const Seconds end = r.f64();
      const std::uint32_t factor = r.u32();
      if (!(start < end) || factor < 2 ||
          (!degradations_.empty() && !(start >= degradations_.back().end))) {
        throw DecodeError(
            "load_trace: degradation windows must be non-empty, ordered, disjoint "
            "and have factor >= 2");
      }
      degradations_.push_back({start, end, factor});
    }
  }
  if (std::ftell(file_) != file_size) {
    throw DecodeError("load_trace: trailing bytes");
  }
  if (std::fseek(file_, data_offset, SEEK_SET) != 0) {
    throw std::runtime_error("open_trace_stream: cannot seek " + path);
  }
}

SltFileStream::~SltFileStream() {
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  if (file_ != nullptr) std::fclose(file_);
}

void SltFileStream::read_exact(std::size_t n) {
  buf_.resize(n);
  if (n > 0 && std::fread(buf_.data(), 1, n, file_) != n) {
    throw DecodeError("load_trace: unexpected end of file");
  }
}

void SltFileStream::decode_next_snapshot() {
  read_exact(12);
  std::uint32_t fix_count = 0;
  {
    ByteReader r(buf_);
    current_.time = r.f64();
    fix_count = r.u32();
  }
  read_exact(kFixBytes * static_cast<std::size_t>(fix_count));
  ByteReader r(buf_);
  decode_fixes(r, fix_count, current_);
}

StreamEvent SltFileStream::next() {
  if (done_) return {};
  if (!have_pending_ && snaps_emitted_ < snap_count_) {
    decode_next_snapshot();
    have_pending_ = true;
  }
  Seconds rate_time = 0.0;
  std::uint32_t rate_factor = 1;
  const bool have_rate = rate_boundary(degradations_, rate_next_, rate_time, rate_factor);
  if (have_rate && (!have_pending_ || rate_time <= current_.time) &&
      (gap_next_ >= gaps_.size() || rate_time <= gaps_[gap_next_].start)) {
    ++rate_next_;
    StreamEvent ev;
    ev.kind = StreamEventKind::kRateChange;
    ev.time = rate_time;
    ev.factor = rate_factor;
    return ev;
  }
  if (gap_next_ < gaps_.size() &&
      (!have_pending_ || gaps_[gap_next_].start <= current_.time)) {
    StreamEvent ev;
    ev.kind = StreamEventKind::kGap;
    ev.gap = gaps_[gap_next_++];
    return ev;
  }
  if (have_pending_) {
    have_pending_ = false;
    ++snaps_emitted_;
    StreamEvent ev;
    ev.kind = StreamEventKind::kSnapshot;
    ev.snapshot = &current_;
    return ev;
  }
  done_ = true;
  return {};
}

// ---------------------------------------------------------------------------
// JournalFileStream

JournalFileStream::JournalFileStream(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw std::runtime_error("open_trace_stream: cannot open " + path);
  }
  std::uint8_t header[kJournalHeaderBytes];
  if (std::fread(header, 1, kJournalHeaderBytes, file_) != kJournalHeaderBytes ||
      !std::equal(header, header + 4, kJournalMagic)) {
    throw DecodeError("salvage_journal: bad magic");
  }
  {
    ByteReader r(std::span{header}.subspan(4, 2));
    if (r.u16() != kJournalVersion) {
      throw DecodeError("salvage_journal: unsupported version");
    }
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
  } catch (const DecodeError&) {
    throw DecodeError("salvage_journal: no intact begin frame");
  }
  // Every censoring boundary is computed from these two; a value that
  // cannot bound a gap makes the journal unreadable, not the tear.
  if (!(interval_ > 0.0) || !std::isfinite(interval_) || !std::isfinite(planned_end_)) {
    throw DecodeError("salvage_journal: begin frame has an unusable interval or end");
  }
  bytes_kept_ += 8 + frame_buf_.size();
  frames_read_ = 1;
}

JournalFileStream::~JournalFileStream() {
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  if (file_ != nullptr) std::fclose(file_);
}

bool JournalFileStream::read_frame() {
  if (torn_) return false;
  std::uint8_t head[8];
  const std::size_t got = std::fread(head, 1, sizeof head, file_);
  if (got < sizeof head) {
    torn_ = got > 0;  // leftover bytes after the last whole frame are a tear
    return false;
  }
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  {
    ByteReader r(head);
    len = r.u32();
    crc = r.u32();
  }
  if (len > kMaxFramePayload) {
    torn_ = true;
    return false;
  }
  frame_buf_.resize(len);
  if (len > 0 && std::fread(frame_buf_.data(), 1, len, file_) != len) {
    torn_ = true;
    return false;
  }
  if (crc32(frame_buf_) != crc) {
    torn_ = true;
    return false;
  }
  return true;
}

bool JournalFileStream::gap_start_ok(Seconds start) const {
  // Gaps are ordered and disjoint, and go out before any snapshot at or
  // past their start (the ordering contract).
  return std::isfinite(start) && !(have_gap_ && start < last_gap_end_) &&
         !(have_snapshot_ && start <= last_snapshot_time_);
}

bool JournalFileStream::rate_change_ok(Seconds time, std::uint32_t factor) const {
  // DegradationTracker's rules: changes never go back in time, and one that
  // closes a window comes strictly after the window opened.
  if (factor == rate_factor_) return true;
  return rate_factor_ > 1 ? time > rate_since_ : time >= rate_since_;
}

StreamEvent JournalFileStream::rate_change(Seconds time, std::uint32_t factor) {
  if (factor != rate_factor_) {
    rate_factor_ = factor;
    rate_since_ = time;
  }
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
      const Seconds start =
          gap_pending_ ? gap_pending_start_
                       : std::max(last_snapshot_time_ + interval_, last_gap_end_);
      trailing_gap_ = {start, std::max(planned_end_, start + interval_)};
      // Only times too large to add an interval to leave it empty.
      have_trailing_gap_ = trailing_gap_.start < trailing_gap_.end;
      // A degradation window still open at the tear ends at the censoring
      // boundary: the degraded snapshots already captured stay
      // rate-corrected, the unrun remainder is covered by the gap, and the
      // rate change back to 1 precedes it.
      have_trailing_rate_ = rate_factor_ > 1 && rate_since_ < start;
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
          const Seconds time = r.f64();
          const std::uint32_t n = r.u32();
          if (!std::isfinite(time) || (have_snapshot_ && time < last_snapshot_time_) ||
              (gap_pending_ && time >= gap_pending_start_)) {
            frame_ok = false;
            break;
          }
          decode_fixes(r, n, current_);
          current_.time = time;
          last_snapshot_time_ = time;
          have_snapshot_ = true;
          ++snapshot_frames_;
          ev.kind = StreamEventKind::kSnapshot;
          ev.snapshot = &current_;
          have_event = true;
          break;
        }
        case JournalRecord::kGapOpen: {
          const Seconds start = r.f64();
          if (!gap_start_ok(start)) {
            frame_ok = false;
            break;
          }
          gap_pending_ = true;
          gap_pending_start_ = start;
          break;
        }
        case JournalRecord::kGapClose: {
          const Seconds start = r.f64();
          const Seconds end = r.f64();
          if (!gap_start_ok(start) || !(start < end) || !std::isfinite(end)) {
            frame_ok = false;
            break;
          }
          last_gap_end_ = end;
          have_gap_ = true;
          gap_pending_ = false;
          ev.kind = StreamEventKind::kGap;
          ev.gap = {start, end};
          have_event = true;
          break;
        }
        case JournalRecord::kSession:
          ++session_events_;
          ev.kind = StreamEventKind::kSessionEvent;
          ev.time = r.remaining() >= 8 ? r.f64() : 0.0;
          have_event = true;
          break;
        case JournalRecord::kDegradeOpen: {
          const Seconds start = r.f64();
          const std::uint32_t factor = r.u32();
          if (factor < 2 || !rate_change_ok(start, factor)) {
            frame_ok = false;
            break;
          }
          ev = rate_change(start, factor);
          have_event = true;
          break;
        }
        case JournalRecord::kDegradeClose: {
          const Seconds start = r.f64();
          const Seconds end = r.f64();
          const std::uint32_t factor = r.u32();
          if (!(start < end) || factor < 2 || !rate_change_ok(end, 1)) {
            frame_ok = false;
            break;
          }
          ev = rate_change(end, 1);
          have_event = true;
          break;
        }
        case JournalRecord::kEnd:
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
    bytes_kept_ += 8 + frame_buf_.size();
    ++frames_read_;
    if (have_event) return ev;
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<TraceStream> open_trace_stream(const std::string& path) {
  if (has_suffix(path, ".sltj")) {
    return std::make_unique<JournalFileStream>(path);
  }
  if (has_suffix(path, ".csv")) {
    // CSV has no incremental framing worth exploiting; load and stream from
    // memory with the same land/interval defaults read_any uses.
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("open_trace_stream: cannot open " + path);
    std::string text{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
    return std::make_unique<MemoryTraceStream>(trace_from_csv(text, path, 10.0));
  }
  return std::make_unique<SltFileStream>(path);
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
