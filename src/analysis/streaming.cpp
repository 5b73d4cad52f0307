#include "analysis/streaming.hpp"

#include <stdexcept>
#include <utility>

#include "util/sysinfo.hpp"

namespace slmob {

// Per-range consumer pair. Each instance is owned by exactly one snapshot
// task (contacts) plus one graph task, so tasks never share mutable state.
struct StreamingAnalyzer::RangeConsumers {
  RangeConsumers(double r, std::size_t index, Seconds tau, const GapTracker& gaps)
      : range(r), ri(index), contacts(r, tau, gaps), graphs(r) {}

  double range;
  std::size_t ri;  // index into WindowEntry::contacts and ::graphs
  ContactStream contacts;
  GraphStream graphs;
};

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      ranges_(proximity_ranges(options_.ranges)) {
  if (options_.window == 0) {
    throw std::invalid_argument("StreamingAnalyzer: window must be >= 1");
  }
  // Bounded peak RSS is this engine's contract; make the allocator return
  // freed pages at once (see sysinfo.hpp).
  tune_malloc_for_streaming();
  window_.resize(options_.window);
  zones_ = std::make_unique<ZoneStream>(options_.land_size, options_.zone_cell_size);
  sessions_ = std::make_unique<SessionStream>(summary_.gaps(), options_.sessions);
  trips_ = std::make_unique<TripStream>(options_.sessions);
  sessions_->set_sink([this](Session&& session) { trips_->on_session(session); });
}

StreamingAnalyzer::~StreamingAnalyzer() {
  // A window may still be in flight on the pool (finish was never called):
  // wait for it before any consumer it touches is destroyed. Its error, if
  // any, has no one left to report to.
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return !in_flight_; });
}

void StreamingAnalyzer::on_begin(const std::string& /*land_name*/,
                                 Seconds sampling_interval) {
  if (begun_) return;
  begun_ = true;

  for (std::size_t ri = 0; ri < ranges_.size(); ++ri) {
    per_range_.push_back(
        std::make_unique<RangeConsumers>(ranges_[ri], ri, sampling_interval, summary_.gaps()));
  }

  // One task list, rebuilt never: each task walks the draining window as a
  // tight per-consumer loop (draining_[0, drain_used_) is read-only while
  // in flight) and appends to exactly one consumer. Looping per consumer
  // rather than fanning out per snapshot keeps each consumer's hot loop
  // resident instead of cycling all six through the instruction cache
  // every 10 simulated seconds. The contact tasks come first, largest range
  // first: that one is the longest, and parallel_for hands out indices in
  // order, so it starts at once on the driver's own thread.
  for (auto it = per_range_.rbegin(); it != per_range_.rend(); ++it) {
    RangeConsumers* c = it->get();
    window_tasks_.emplace_back([this, c] {
      for (std::size_t k = 0; k < drain_used_; ++k)
        c->contacts.on_snapshot(draining_[k].snap, draining_[k].contacts[c->ri]);
    });
  }
  for (auto& rc : per_range_) {
    RangeConsumers* c = rc.get();
    window_tasks_.emplace_back([this, c] {
      for (std::size_t k = 0; k < drain_used_; ++k)
        c->graphs.add(draining_[k].graphs[c->ri]);
    });
  }
  window_tasks_.emplace_back([this] {
    for (std::size_t k = 0; k < drain_used_; ++k)
      zones_->on_snapshot(draining_[k].positions, draining_[k].weight);
  });
  window_tasks_.emplace_back([this] {
    for (std::size_t k = 0; k < drain_used_; ++k)
      sessions_->on_snapshot(draining_[k].snap);
  });
}

void StreamingAnalyzer::on_snapshot(const Snapshot& snapshot) {
  if (!begun_) throw std::logic_error("StreamingAnalyzer: on_begin was not called");

  const Snapshot* use = &snapshot;
  if (options_.strip_sitting_fixes) {
    stripped_.time = snapshot.time;
    stripped_.fixes.clear();
    for (const auto& fix : snapshot.fixes) {
      const bool origin = fix.pos.x == 0.0 && fix.pos.y == 0.0 && fix.pos.z == 0.0;
      if (!origin) stripped_.fixes.push_back(fix);
    }
    use = &stripped_;
  }

  // Every snapshot counts toward the summary, covered or not.
  summary_.on_snapshot(*use);
  ++progress_.snapshots;
  const bool covered = summary_.gaps().covered_at(use->time);
  if (covered) ++progress_.covered_snapshots;
  progress_.users_seen = summary_.users_seen();
  progress_.max_concurrent = summary_.max_concurrent();
  progress_.last_time = use->time;

  // A snapshot inside a recorded coverage gap carries no valid observation:
  // every consumer skips it (it still counted toward the summary above).
  // The stream ordering contract guarantees any gap covering this snapshot
  // is already known, so the gaps-so-far answer equals the finished
  // trace's.
  if (!covered) return;

  // Buffer the snapshot; its per-snapshot stages and the consumers run when
  // the window fills (or in finish). Deferring is safe: by the stream ordering
  // contract every gap relevant to this snapshot is already known, and
  // gaps arriving later start strictly after use->time, so every censor
  // predicate a consumer evaluates at flush time answers exactly as it
  // would have here. Copy-assignment into a reused entry keeps the window's
  // allocations warm after the first lap.
  WindowEntry& entry = window_[win_used_];
  entry.snap.time = use->time;
  entry.snap.fixes = use->fixes;
  entry.weight = summary_.rates().current_factor();
  if (++win_used_ == window_.size()) flush_window();
}

void StreamingAnalyzer::measure_window() {
  parallel_for(pool_, win_used_, [this](std::size_t k) {
    thread_local GraphKernel graph_kernel;
    thread_local std::vector<IncrementalProximity::PairList> lists;
    WindowEntry& entry = window_[k];
    snapshot_proximity(entry.snap, ranges_, entry.positions, lists);
    entry.graphs.resize(ranges_.size());
    for (std::size_t ri = 0; ri < ranges_.size(); ++ri) {
      graph_kernel.measure(entry.snap.fixes.size(), lists[ri], entry.graphs[ri]);
    }
    entry.contacts.resize(ranges_.size());
    contact_keys(entry.snap, lists, entry.contacts);
  });
}

// Measures the filled window while the previous one may still be in flight,
// then joins that one (windows are consumed in order, one at a time), hands
// the filled window to the pool and returns at once, so the caller goes on
// buffering into the other window while the consumers drain this one. With
// a one-thread pool every stage and the driver run inline, so this is the
// plain sequential loop.
void StreamingAnalyzer::flush_window() {
  if (win_used_ == 0) return;
  measure_window();
  join_window();
  // The second window is allocated here rather than in the constructor, so
  // an analyzer that never fills one window does not pay for it.
  if (draining_.size() != window_.size()) draining_.resize(window_.size());
  std::swap(window_, draining_);
  drain_used_ = win_used_;
  win_used_ = 0;
  {
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    in_flight_ = true;
  }
  pool_.submit([this] {
    std::exception_ptr error;
    try {
      parallel_for(pool_, window_tasks_.size(),
                   [this](std::size_t i) { window_tasks_[i](); });
    } catch (...) {
      error = std::current_exception();
    }
    // Notify under the lock: once in_flight_ reads false the joining thread
    // may destroy the analyzer, condition variable included.
    const std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_error_ = error;
    in_flight_ = false;
    drained_.notify_all();
  });
}

void StreamingAnalyzer::join_window() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return !in_flight_; });
  if (drain_error_) std::rethrow_exception(std::exchange(drain_error_, nullptr));
}

void StreamingAnalyzer::on_gap(Seconds start, Seconds end) {
  // Consumers in flight read the gap list, and adding may reallocate it.
  join_window();
  summary_.on_gap(start, end);
  ++progress_.gaps;
}

void StreamingAnalyzer::on_rate_change(Seconds time, std::uint32_t factor) {
  summary_.on_rate_change(time, factor);
}

AnalysisReport StreamingAnalyzer::finish() {
  if (finished_) throw std::logic_error("StreamingAnalyzer: finish called twice");
  finished_ = true;
  // A source with zero events never called on_begin; with no snapshots the
  // sampling interval is unobservable in any output, so any value yields
  // the same empty report.
  if (!begun_) on_begin("", 10.0);
  flush_window();  // drain the partially filled last window
  join_window();

  AnalysisReport report;
  report.summary = summary_.summary();

  // Pre-create map nodes so finish tasks only write through references
  // (std::map never invalidates mapped references).
  std::vector<std::function<void()>> tasks;
  for (auto& rc : per_range_) {
    RangeConsumers* c = rc.get();
    ContactAnalysis& contacts = report.contacts[c->range];
    tasks.emplace_back([c, &contacts] { contacts = c->contacts.finish(); });
    GraphMetrics& graphs = report.graphs[c->range];
    tasks.emplace_back([c, &graphs] { graphs = c->graphs.finish(); });
  }
  tasks.emplace_back([this, &report] { report.zones = zones_->finish(); });
  tasks.emplace_back([this, &report] {
    // Session closure emits into trips, so the chain is one sequential task.
    sessions_->finish();
    report.trips = trips_->finish();
  });

  parallel_for(pool_, tasks.size(), [&](std::size_t i) { tasks[i](); });
  return report;
}

AnalysisReport analyze_stream(TraceStream& stream, const StreamingOptions& options) {
  StreamingAnalyzer analyzer(options);
  drive_stream(stream, analyzer);
  return analyzer.finish();
}

AnalysisReport analyze_stream_file(const std::string& path,
                                   const StreamingOptions& options,
                                   StreamingProgress* progress_out) {
  const auto stream = open_trace_stream(path);
  StreamingAnalyzer analyzer(options);
  drive_stream(*stream, analyzer);
  AnalysisReport report = analyzer.finish();
  if (progress_out != nullptr) *progress_out = analyzer.progress();
  return report;
}

}  // namespace slmob
