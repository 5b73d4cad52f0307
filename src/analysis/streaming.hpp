// The analysis engine: the one implementation of every §3 metric.
//
// StreamingAnalyzer consumes a trace one snapshot at a time (as a
// LiveTraceSink fed by drive_stream over any TraceStream) and produces its
// AnalysisReport. A capture still being written is analysed through its
// journal: JournalFileStream reads a live or torn .sltj up to its last
// intact frame. An in-memory Trace goes through the same engine via
// MemoryTraceStream (analyze_trace in core/experiment.hpp). Correctness is
// pinned by brute-force oracles per consumer (ProximityOracle,
// ContactOracle, GraphOracle) and by committed golden fingerprints of whole
// reports (tests/analysis_goldens.hpp).
// Memory is bounded by *concurrent* users — per-consumer open records,
// buffered per-session samples and a fixed-size snapshot window — never by
// trace duration; no snapshot is retained beyond its window.
//
// One pass, all metrics: each covered snapshot is buffered into a
// fixed-size window. When the window fills, its per-snapshot stages run
// first, in parallel over the window's snapshots: positions, the pairs at
// every radius (snapshot_proximity: one PairKernel pass at the largest
// radius, classified into the others), one line-of-sight GraphSample per
// radius (GraphKernel::measure) and the contact keys per radius
// (contact_keys: the snapshot's sorted, distinct id-pair keys and per-fix
// contact flags). These stages keep no state across snapshots and their
// scratch is thread_local, so each entry is a pure function of its
// snapshot. The pair lists themselves stay in that scratch: no ordered
// task reads them. Then the ordered per-consumer tasks — contacts per
// range (a merge-join of consecutive snapshots' keys), graph samples
// added per range, zones, the session -> trips chain — each run over the
// whole window as one tight loop, fanned across a thread pool. Windowing
// exists for throughput: the stateless stages get a window's worth of
// parallel work, and per-window consumer loops keep each consumer's hot
// loop resident instead of cycling all six through the instruction cache
// every snapshot.
//
// Windows are double-buffered. flush_window computes the filled window's
// per-snapshot stages with parallel_for on the producer thread *before*
// it joins the window in flight, so those stages overlap the previous
// window's ordered consumers. It then swaps the filled window with the
// drained one and hands it to the pool as a single driver task (which fans
// the consumer tasks out with parallel_for); the caller returns at once and
// goes on buffering into the other window. The window in flight is joined
// before the next flush, before a gap is recorded (consumers read the gap
// list, which recording may reallocate), in finish and in the destructor;
// a consumer's exception is rethrown at that join. Windows are thus
// consumed one at a time, in order, and tasks own disjoint consumer state,
// so every consumer sees its inputs in time order and results are
// identical for any thread count, 1 included (a one-thread pool runs every
// stage and the driver inline at the flush). Deferring consumption is
// sound by the stream ordering contract: every gap covering a buffered
// snapshot was recorded before that snapshot arrived, and later gaps start
// strictly after it, so gap predicates answer identically at flush time.
//
// Gap handling is always on: consumers censor against the gaps seen so far
// (the SummaryTracker's GapTracker), which by the stream ordering contract
// (trace/stream.hpp) answers exactly as the finished trace's gap list
// would. On gap-free traces no censor predicate ever fires. The report's
// summary comes from the same SummaryTracker that Trace::summary and
// `slmob summary` use.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/analysis_report.hpp"
#include "analysis/incremental_proximity.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "trace/sessions.hpp"
#include "trace/stream.hpp"
#include "util/thread_pool.hpp"

namespace slmob {

// The settings of one analysis: the paper's §3 metrics and nothing else.
// The §5 relation graph and flight decomposition are per-trace analyses
// (RelationGraph, analyze_flights), not stages of this engine.
struct StreamingOptions {
  // Communication radii (defaults: the paper's Bluetooth and WiFi ranges).
  std::vector<double> ranges{10.0, 80.0};
  double land_size{256.0};
  double zone_cell_size{20.0};
  // Total analysis threads including the caller; 0 = default_concurrency().
  std::size_t threads{0};
  // Inert: read only by perfbench's replay; deleted with it (ROADMAP
  // item 2).
  double churn_threshold{0.35};
  // Covered snapshots buffered between consumer fan-outs (>= 1; throws
  // std::invalid_argument on 0). Larger windows amortise consumer switching
  // at the price of `window` retained snapshots; results are identical for
  // every value.
  std::size_t window{64};
  SessionExtractionOptions sessions;
};

class StreamingAnalyzer final : public LiveTraceSink {
 public:
  // Throws std::invalid_argument on bad ranges / zone sizes or a zero
  // window.
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
  // time-weighted consumer (currently zones): the factor of the
  // Trace::degradations() window covering their time on the finished trace.
  void on_rate_change(Seconds time, std::uint32_t factor) override;

  // Finalises every consumer and assembles the report. Call once, after the
  // last event.
  [[nodiscard]] AnalysisReport finish();

 private:
  struct RangeConsumers;  // per-range contact + graph streams

  // One covered snapshot held for deferred consumption: the snapshot
  // itself plus its per-snapshot stages, filled by measure_window. Entries
  // are reused across flushes, so their vectors keep capacity.
  struct WindowEntry {
    Snapshot snap;
    std::vector<Vec3> positions;
    std::vector<ContactKeys> contacts;  // per range
    std::vector<GraphSample> graphs;    // per range
    // Rate-correction weight: the degradation factor in force at snap.time.
    std::uint32_t weight{1};
  };

  // Runs the stateless per-snapshot stages over window_[0, win_used_),
  // fanned out with parallel_for from the calling thread.
  void measure_window();
  void flush_window();
  // Waits for the window in flight, if any, and rethrows a consumer's
  // exception from it.
  void join_window();

  StreamingOptions options_;
  ThreadPool pool_;
  // The report's TraceSummary, and the gaps and degradation windows seen so
  // far that the consumers censor and rate-correct against.
  SummaryTracker summary_;
  std::vector<double> ranges_;  // options_.ranges, sorted and deduplicated
  std::unique_ptr<ZoneStream> zones_;
  std::vector<std::unique_ptr<RangeConsumers>> per_range_;
  std::unique_ptr<SessionStream> sessions_;
  std::unique_ptr<TripStream> trips_;
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

  bool begun_{false};
  bool finished_{false};
};

// Drives `stream` through a StreamingAnalyzer and returns the report.
[[nodiscard]] AnalysisReport analyze_stream(TraceStream& stream,
                                            const StreamingOptions& options = {});

// Opens `path` (a trace journal, or .csv) and streams it.
[[nodiscard]] AnalysisReport analyze_stream_file(const std::string& path,
                                                 const StreamingOptions& options = {});

}  // namespace slmob
