// The analysis engine: the one implementation of every §3 metric.
//
// StreamingAnalyzer consumes a trace one snapshot at a time (as a
// LiveTraceSink — fed by drive_stream over any TraceStream, or live by the
// crawler) and produces its AnalysisReport. An in-memory Trace goes through
// the same engine via MemoryTraceStream (analyze_trace in
// core/experiment.hpp). Correctness is pinned by brute-force oracles per
// consumer (ProximityOracle, ContactOracle, GraphOracle) and by committed
// golden fingerprints of whole reports (tests/analysis_goldens.hpp).
// Memory is bounded by *concurrent* users — the persistent proximity state,
// per-consumer open records, buffered per-session samples and a fixed-size
// snapshot window — never by trace duration; no snapshot is retained beyond
// its window.
//
// One pass, all metrics: each snapshot advances the IncrementalProximity
// state once (all radii share it) and is buffered — snapshot, positions,
// per-range pair lists — into a fixed-size window. When the window fills,
// per-consumer tasks — contacts and graphs per range, zones, the session ->
// trips/flights chain — each run over the whole window as one tight loop,
// fanned across a thread pool. Windowing exists purely for throughput:
// switching six consumer hot loops every snapshot thrashes the instruction
// cache and branch predictors, while per-window loops keep each consumer's
// hot loop resident.
//
// Windows are double-buffered. A full window is swapped with the drained
// one and handed to the pool as a single driver task (which fans the
// consumer tasks out with parallel_for); the caller returns at once and
// goes on advancing proximity into the other window, so the serial
// producer work overlaps the consumers. The window in flight is joined
// before the next flush, before a gap is recorded (consumers read the gap
// list, which recording may reallocate), in finish and in the destructor;
// a consumer's exception is rethrown at that join. Windows are thus
// consumed one at a time, in order, and tasks own disjoint consumer state,
// so every consumer sees its inputs in time order and results are
// identical for any thread count, 1 included (a one-thread pool runs the
// driver inline at the flush). Deferring consumption is sound by the
// stream ordering contract: every gap covering a buffered snapshot was
// recorded before that snapshot arrived, and later gaps start strictly
// after it, so gap predicates answer identically at flush time.
//
// Gap handling is always on: consumers censor against the gaps seen so far
// (GapTracker), which by the stream ordering contract (trace/stream.hpp)
// answers exactly as the finished trace's gap list would. On gap-free
// traces no censor predicate ever fires.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "analysis/analysis_report.hpp"
#include "analysis/flights.hpp"
#include "analysis/incremental_proximity.hpp"
#include "analysis/relations.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "trace/sessions.hpp"
#include "trace/stream.hpp"
#include "util/thread_pool.hpp"

namespace slmob {

struct StreamingOptions {
  // Communication radii (defaults: the paper's Bluetooth and WiFi ranges).
  std::vector<double> ranges{10.0, 80.0};
  double land_size{256.0};
  double zone_cell_size{20.0};
  // Total analysis threads including the caller; 0 = default_concurrency().
  std::size_t threads{0};
  // IncrementalProximity full-rebuild threshold (fraction of changed
  // avatars per snapshot).
  double churn_threshold{0.35};
  // Covered snapshots buffered between consumer fan-outs (>= 1; throws
  // std::invalid_argument on 0). Larger windows amortise consumer switching
  // at the price of `window` retained snapshots; results are identical for
  // every value.
  std::size_t window{64};
  // Drop (0,0,0) fixes per snapshot — equals Trace::strip_sitting_fixes on
  // the whole trace, which run_experiment applies before analyzing. The CLI
  // does not strip.
  bool strip_sitting_fixes{false};
  // Optional heavier analyses, off by default (analyze_trace and
  // run_experiment do not compute them).
  bool flights{false};
  bool relations{false};
  // Contact range feeding the relation graph; must be one of `ranges`.
  double relation_range{10.0};
  SessionExtractionOptions sessions;
  FlightAnalysisOptions flight_options;
  RelationGraphOptions relation_options;
};

// Monotonic counters, readable between snapshots (e.g. by the crawler's
// status line while an attached analyzer is running).
struct StreamingProgress {
  std::size_t snapshots{0};
  std::size_t covered_snapshots{0};  // snapshots outside any known gap
  std::size_t gaps{0};
  std::size_t users_seen{0};
  std::size_t max_concurrent{0};
  Seconds last_time{0.0};
  std::size_t proximity_rebuilds{0};
  std::size_t proximity_delta_updates{0};
};

class StreamingAnalyzer final : public LiveTraceSink {
 public:
  // Throws std::invalid_argument on bad ranges / zone sizes, or when
  // `relations` is requested with a relation_range not in `ranges`.
  explicit StreamingAnalyzer(StreamingOptions options = {});
  ~StreamingAnalyzer() override;

  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  // LiveTraceSink: feed in time order; on_begin first, gaps per the stream
  // ordering contract.
  void on_begin(const std::string& land_name, Seconds sampling_interval) override;
  void on_snapshot(const Snapshot& snapshot) override;
  void on_gap(Seconds start, Seconds end) override;
  // Rate-change events from the overload ladder: snapshots arriving while a
  // degradation window is open carry integer weight = factor into every
  // time-weighted consumer (currently zones), as
  // Trace::degradation_factor_at would weight them on the finished trace.
  void on_rate_change(Seconds time, std::uint32_t factor) override;

  // Finalises every consumer and assembles the report. Call once, after the
  // last event.
  [[nodiscard]] AnalysisReport finish();

  [[nodiscard]] StreamingProgress progress() const { return progress_; }
  [[nodiscard]] std::size_t threads_used() const { return pool_.concurrency(); }

 private:
  struct RangeConsumers;  // per-range contact + graph streams

  // One covered snapshot held for deferred consumption: the (possibly
  // stripped) snapshot itself plus the proximity answer computed for it.
  // Entries are reused across flushes, so their vectors keep capacity.
  struct WindowEntry {
    Snapshot snap;
    std::vector<Vec3> positions;
    std::vector<IncrementalProximity::PairList> lists;
    // Rate-correction weight: the degradation factor in force at snap.time.
    std::uint32_t weight{1};
  };

  void flush_window();
  // Waits for the window in flight, if any, and rethrows a consumer's
  // exception from it.
  void join_window();

  StreamingOptions options_;
  ThreadPool pool_;
  GapTracker gaps_;
  DegradationTracker rates_;
  IncrementalProximity prox_;
  std::unique_ptr<ZoneStream> zones_;
  std::vector<std::unique_ptr<RangeConsumers>> per_range_;
  std::unique_ptr<SessionStream> sessions_;
  std::unique_ptr<TripStream> trips_;
  std::unique_ptr<FlightStream> flights_;
  std::unique_ptr<RelationStream> relations_;
  // Per-consumer loops over draining_[0, drain_used_); built once in
  // on_begin.
  std::vector<std::function<void()>> window_tasks_;
  // Double buffer: the producer fills window_[0, win_used_) while the pool
  // drains draining_[0, drain_used_); flush_window swaps them.
  std::vector<WindowEntry> window_;
  std::size_t win_used_{0};
  std::vector<WindowEntry> draining_;
  std::size_t drain_used_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  bool in_flight_{false};           // guarded by drain_mutex_
  std::exception_ptr drain_error_;  // guarded by drain_mutex_

  // Summary bookkeeping (matches Trace::summary on the accumulated trace).
  std::set<AvatarId> unique_users_;
  std::size_t total_fixes_{0};
  bool have_first_{false};
  Seconds first_time_{0.0};
  Seconds last_time_{0.0};

  StreamingProgress progress_;
  Snapshot stripped_;  // scratch for strip_sitting_fixes
  bool begun_{false};
  bool finished_{false};
};

// Drives `stream` through a StreamingAnalyzer and returns the report.
[[nodiscard]] AnalysisReport analyze_stream(TraceStream& stream,
                                            const StreamingOptions& options = {});

// Opens `path` (.slt / .sltj / .csv) and streams it. `progress_out`, when
// non-null, receives the final progress counters (snapshots/s inputs).
[[nodiscard]] AnalysisReport analyze_stream_file(const std::string& path,
                                                 const StreamingOptions& options = {},
                                                 StreamingProgress* progress_out = nullptr);

}  // namespace slmob
