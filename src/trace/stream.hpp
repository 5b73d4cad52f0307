// Streaming trace access: event-at-a-time readers and live sinks.
//
// A TraceStream yields snapshots, coverage gaps and session events one at a
// time from a .slt file, a .sltj journal or an in-memory trace, so a single
// forward pass can analyze traces of any length with memory bounded by
// *concurrent* users rather than trace duration. It is how every trace
// reaches the analysis engine (analysis/streaming.hpp), in-memory ones
// included.
//
// The file readers here are the only decoders of their formats:
// load_trace and salvage_journal are collect_trace over SltFileStream and
// JournalFileStream, so every command reads a file the same way. Malformed
// content never escapes as anything but DecodeError (.slt) or a tear
// (.sltj): counts read from a file are checked against the bytes left
// before anything is sized by them, and records that would break the
// ordering contract below are rejected rather than handed on.
//
// Every stream honours one ordering contract consumers may rely on:
//
//   a gap [start, end) is emitted before any snapshot with time >= start.
//
// Sampling-degradation windows are delivered as *rate-change* events under
// the analogous contract: a change of the effective sampling factor at time
// t is emitted before any snapshot with time >= t. A consumer that applies
// each change as it arrives therefore knows the exact factor in force for
// every snapshot it processes, and reconstructs the same closed windows the
// finished Trace carries.
//
// With that contract, censoring decisions made from the gaps seen so far
// (GapTracker) are identical to decisions made with the complete gap list
// in hand: when a snapshot at time t is processed, every gap that could
// contain t or start before t is already known, and gaps still unseen start
// strictly after t, so covered_at / spans_gap / next_gap_start answer
// exactly as they would on the finished Trace. That equivalence is why a
// file, a journal and a live capture analyze exactly like the in-memory
// trace they form; tests/test_trace_stream.cpp checks every reader against
// independently built expectations, and the golden fingerprints of
// tests/analysis_goldens.hpp pin the resulting reports.
#pragma once

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "trace/trace.hpp"

namespace slmob {

enum class StreamEventKind : std::uint8_t {
  kSnapshot = 0,
  kGap = 1,
  kSessionEvent = 2,
  kEnd = 3,
  kRateChange = 4,
};

struct StreamEvent {
  StreamEventKind kind{StreamEventKind::kEnd};
  // kSnapshot: points at the reader's internal snapshot buffer; valid until
  // the next call to next().
  const Snapshot* snapshot{nullptr};
  CoverageGap gap{};   // kGap
  Seconds time{0.0};   // kSessionEvent / kRateChange
  std::uint32_t factor{1};  // kRateChange: effective sampling factor from `time` on
};

// Pull-based trace reader. next() returns kEnd forever once exhausted.
class TraceStream {
 public:
  virtual ~TraceStream() = default;
  [[nodiscard]] virtual const std::string& land_name() const = 0;
  [[nodiscard]] virtual Seconds sampling_interval() const = 0;
  virtual StreamEvent next() = 0;
};

// Incrementally collected coverage gaps, answering the same questions as
// Trace (covered_at / spans_gap) plus the contact analysis' truncation-point
// query, against the gaps seen so far.
class GapTracker {
 public:
  // Same validation as Trace::add_gap: start < end, ordered, disjoint
  // (throws std::invalid_argument otherwise).
  void add(Seconds start, Seconds end);

  [[nodiscard]] bool any() const { return !gaps_.empty(); }
  [[nodiscard]] const std::vector<CoverageGap>& gaps() const { return gaps_; }
  [[nodiscard]] bool covered_at(Seconds t) const;
  [[nodiscard]] bool spans_gap(Seconds t0, Seconds t1) const;
  // Start of the first gap ending after covered instant `t` (t itself when
  // no such gap exists); the truncation point for observations running at t.
  [[nodiscard]] Seconds next_gap_start(Seconds t) const;
  [[nodiscard]] Seconds gap_seconds() const;

 private:
  std::vector<CoverageGap> gaps_;
};

// Incrementally collected sampling-degradation windows, fed by rate-change
// events. current_factor() answers the factor in force for the snapshot
// being processed (per the rate-change ordering contract); windows() equals
// Trace::degradations() once the stream has closed its last window.
class DegradationTracker {
 public:
  // Same validation as Trace::add_degradation via the window it closes;
  // throws std::invalid_argument on out-of-order changes.
  void set_factor(Seconds time, std::uint32_t factor);

  [[nodiscard]] bool any() const { return !windows_.empty() || factor_ > 1; }
  [[nodiscard]] std::uint32_t current_factor() const { return factor_; }
  [[nodiscard]] const std::vector<SamplingDegradation>& windows() const {
    return windows_;
  }
  [[nodiscard]] Seconds degraded_seconds() const;

 private:
  std::vector<SamplingDegradation> windows_;
  std::uint32_t factor_{1};
  Seconds open_start_{0.0};
};

// Push-based consumer of a live capture: the crawler (or drive_stream)
// forwards each snapshot and gap as it is recorded. on_begin is called once,
// before any other callback.
class LiveTraceSink {
 public:
  virtual ~LiveTraceSink() = default;
  virtual void on_begin(const std::string& land_name, Seconds sampling_interval) = 0;
  virtual void on_snapshot(const Snapshot& snapshot) = 0;
  virtual void on_gap(Seconds start, Seconds end) = 0;
  // Effective sampling factor changes to `factor` at `time` (overload
  // degradation ladder). Default no-op: sinks that ignore rate changes see
  // the historical callback set unchanged.
  virtual void on_rate_change(Seconds time, std::uint32_t factor) {
    (void)time;
    (void)factor;
  }
};

// The one TraceSummary computation: fed every snapshot, gap and rate change
// of a stream, summary() equals what the trace those events form reports.
// Every snapshot counts, covered or not. It also holds the gaps and
// degradation windows seen so far, for consumers that censor or rate-correct
// against them (StreamingAnalyzer).
class SummaryTracker final : public LiveTraceSink {
 public:
  void on_begin(const std::string& /*land_name*/, Seconds /*sampling_interval*/) override {}
  void on_snapshot(const Snapshot& snapshot) override;
  // Validated by GapTracker::add / DegradationTracker::set_factor.
  void on_gap(Seconds start, Seconds end) override { gaps_.add(start, end); }
  void on_rate_change(Seconds time, std::uint32_t factor) override {
    rates_.set_factor(time, factor);
  }

  [[nodiscard]] const GapTracker& gaps() const { return gaps_; }
  [[nodiscard]] const DegradationTracker& rates() const { return rates_; }
  [[nodiscard]] std::size_t snapshots() const { return snapshots_; }
  [[nodiscard]] std::size_t users_seen() const { return users_.size(); }
  [[nodiscard]] std::size_t max_concurrent() const { return max_concurrent_; }
  [[nodiscard]] TraceSummary summary() const;

 private:
  GapTracker gaps_;
  DegradationTracker rates_;
  // Distinct avatar id values; only the count is read.
  std::unordered_set<std::uint32_t> users_;
  std::size_t snapshots_{0};
  std::size_t total_fixes_{0};
  std::size_t max_concurrent_{0};
  Seconds first_time_{0.0};
  Seconds last_time_{0.0};
};

// Streams an in-memory Trace (snapshots and gaps merge-ordered per the gap
// contract above). The viewing constructor keeps a reference — the trace
// must outlive the stream; the owning constructor moves the trace in.
class MemoryTraceStream final : public TraceStream {
 public:
  explicit MemoryTraceStream(const Trace& trace) : trace_(&trace) {}
  explicit MemoryTraceStream(Trace&& trace)
      : owned_(std::make_unique<Trace>(std::move(trace))), trace_(owned_.get()) {}

  [[nodiscard]] const std::string& land_name() const override {
    return trace_->land_name();
  }
  [[nodiscard]] Seconds sampling_interval() const override {
    return trace_->sampling_interval();
  }
  StreamEvent next() override;

 private:
  std::unique_ptr<Trace> owned_;
  const Trace* trace_;
  std::size_t snap_next_{0};
  std::size_t gap_next_{0};
  // Rate-change boundary cursor: event 2k is window k's start, 2k+1 its end.
  std::size_t rate_next_{0};
};

// Streams a binary .slt trace file (layout in trace/serialize.hpp) without
// materialising it. The gap and degradation blocks trail the snapshots, so
// construction makes one cheap skip-scan pass (read each snapshot's header,
// seek over its fixes) to collect them and validate framing, then rewinds;
// snapshots decode one at a time on demand. Throws DecodeError on any
// malformed content: bad magic or version, truncation, trailing bytes,
// snapshot times going backwards, gap or degradation records that are
// empty, out of order or (degradations) have a factor below 2, and (from
// next()) a fix with a non-finite coordinate.
class SltFileStream final : public TraceStream {
 public:
  explicit SltFileStream(const std::string& path);
  ~SltFileStream() override;
  SltFileStream(const SltFileStream&) = delete;
  SltFileStream& operator=(const SltFileStream&) = delete;

  [[nodiscard]] const std::string& land_name() const override { return land_; }
  [[nodiscard]] Seconds sampling_interval() const override { return interval_; }
  StreamEvent next() override;

 private:
  void read_exact(std::size_t n);
  void decode_next_snapshot();

  std::string path_;
  std::FILE* file_{nullptr};
  std::string land_;
  Seconds interval_{10.0};
  std::uint32_t snap_count_{0};
  std::uint32_t snaps_emitted_{0};
  std::vector<CoverageGap> gaps_;
  std::size_t gap_next_{0};
  std::vector<SamplingDegradation> degradations_;
  std::size_t rate_next_{0};  // boundary cursor, same scheme as MemoryTraceStream
  Snapshot current_;
  bool have_pending_{false};
  bool done_{false};
  std::vector<std::uint8_t> buf_;
};

// Streams a .sltj write-ahead journal (layout in trace/journal.hpp) with
// salvage semantics: frames are decoded until the first torn frame, which
// (with everything after it) is discarded. A frame is torn when it is
// truncated, oversized, fails its CRC or cannot be decoded, and also when
// its record would break the ordering contract or the trace it forms: a
// second kBegin, a snapshot time going backwards or inside a gap left open,
// a fix count larger than the frame, a fix with a non-finite coordinate, a
// gap that is empty, overlaps an earlier gap or starts at or before an
// emitted snapshot, a degradation factor below 2, or a rate change that
// goes back in time or closes a window at its own start.
// A journal that did not end with kEnd gets a synthetic trailing gap
// censoring the unrun remainder of the planned run. Throws DecodeError only
// when the header or kBegin frame is unreadable.
class JournalFileStream final : public TraceStream {
 public:
  explicit JournalFileStream(const std::string& path);
  ~JournalFileStream() override;
  JournalFileStream(const JournalFileStream&) = delete;
  JournalFileStream& operator=(const JournalFileStream&) = delete;

  [[nodiscard]] const std::string& land_name() const override { return land_; }
  [[nodiscard]] Seconds sampling_interval() const override { return interval_; }
  StreamEvent next() override;

  // Salvage statistics (copied into JournalSalvage); torn/clean_end/
  // bytes_kept are final once next() has returned kEnd.
  [[nodiscard]] bool torn() const { return torn_; }
  [[nodiscard]] bool clean_end() const { return clean_end_; }
  [[nodiscard]] Seconds planned_end() const { return planned_end_; }
  [[nodiscard]] std::size_t frames_read() const { return frames_read_; }
  [[nodiscard]] std::size_t snapshot_frames() const { return snapshot_frames_; }
  [[nodiscard]] std::size_t session_events() const { return session_events_; }
  [[nodiscard]] std::uint64_t bytes_kept() const { return bytes_kept_; }

 private:
  // Reads one frame into frame_buf_; false on clean EOF or tear (torn_ set).
  bool read_frame();
  [[nodiscard]] bool gap_start_ok(Seconds start) const;
  [[nodiscard]] bool rate_change_ok(Seconds time, std::uint32_t factor) const;
  // Records an emitted rate change and returns its event.
  StreamEvent rate_change(Seconds time, std::uint32_t factor);
  StreamEvent finalize();

  std::string path_;
  std::FILE* file_{nullptr};
  std::string land_;
  Seconds interval_{10.0};
  Seconds planned_end_{0.0};
  Snapshot current_;
  std::vector<std::uint8_t> frame_buf_;
  Seconds last_snapshot_time_{0.0};
  Seconds last_gap_end_{0.0};
  bool have_snapshot_{false};
  bool have_gap_{false};
  bool gap_pending_{false};
  Seconds gap_pending_start_{0.0};
  // Factor in force after the last emitted rate change, and its time.
  std::uint32_t rate_factor_{1};
  Seconds rate_since_{-std::numeric_limits<double>::infinity()};
  bool clean_end_{false};
  bool torn_{false};
  bool finalized_{false};
  bool end_emitted_{false};
  CoverageGap trailing_gap_{};
  bool have_trailing_gap_{false};
  // A degradation window left open at the tear closes at the censoring
  // boundary; the rate change back to 1 goes out before the trailing gap.
  Seconds trailing_rate_time_{0.0};
  bool have_trailing_rate_{false};
  std::size_t frames_read_{0};
  std::size_t snapshot_frames_{0};
  std::size_t session_events_{0};
  std::uint64_t bytes_kept_{0};
};

// Opens the right stream for a path by extension: .sltj -> journal stream,
// .csv -> an owning in-memory stream (CSV has no incremental framing), else
// binary .slt stream.
std::unique_ptr<TraceStream> open_trace_stream(const std::string& path);

// Materialises every event of `stream` as a Trace: snapshots, gaps, and the
// degradation windows its rate changes close. A window the stream leaves
// open is dropped.
[[nodiscard]] Trace collect_trace(TraceStream& stream);

// The TraceSummary of every event of `stream`, in one bounded-memory pass.
[[nodiscard]] TraceSummary summarize(TraceStream& stream);

// Pumps every event of `stream` into `sink` (session events are dropped —
// they carry no trace data). Calls sink.on_begin first.
void drive_stream(TraceStream& stream, LiveTraceSink& sink);

}  // namespace slmob
