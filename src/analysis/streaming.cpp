#include "analysis/streaming.hpp"

#include <algorithm>
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
  std::size_t ri;  // index into IncrementalProximity::pairs()
  ContactStream contacts;
  GraphStream graphs;
  bool feeds_relations{false};
};

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions options)
    : options_(std::move(options)),
      pool_(options_.threads),
      prox_(options_.ranges, options_.churn_threshold) {
  if (options_.window == 0) {
    throw std::invalid_argument("StreamingAnalyzer: window must be >= 1");
  }
  // Bounded peak RSS is this engine's contract; make the allocator return
  // freed pages and grow sample buffers without copying (see sysinfo.hpp).
  tune_malloc_for_streaming();
  window_.resize(options_.window);
  zones_ = std::make_unique<ZoneStream>(options_.land_size, options_.zone_cell_size);
  if (options_.relations) {
    const auto& rs = prox_.ranges();
    if (std::find(rs.begin(), rs.end(), options_.relation_range) == rs.end()) {
      throw std::invalid_argument(
          "StreamingAnalyzer: relation_range must be one of ranges");
    }
    relations_ = std::make_unique<RelationStream>(options_.relation_options);
  }

  // The session chain is shared: one SessionStream feeds trips (always) and
  // flights (optional). Sessions are extracted with options_.sessions;
  // flight_options.sessions is unused here (FlightStream only applies the
  // speed/length thresholds), so agreement with analyze_flights requires
  // flight_options.sessions == sessions — true for the defaults.
  sessions_ = std::make_unique<SessionStream>(gaps_, options_.sessions);
  trips_ = std::make_unique<TripStream>(options_.sessions);
  if (options_.flights) {
    flights_ = std::make_unique<FlightStream>(options_.flight_options);
  }
  sessions_->set_sink([this](Session&& session) {
    trips_->on_session(session);
    if (flights_) flights_->on_session(session);
  });
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

  for (std::size_t ri = 0; ri < prox_.ranges().size(); ++ri) {
    const double r = prox_.ranges()[ri];
    auto rc = std::make_unique<RangeConsumers>(r, ri, sampling_interval, gaps_);
    if (relations_ && r == options_.relation_range) {
      rc->feeds_relations = true;
      rc->contacts.set_interval_sink(
          [this](const ContactInterval& interval) { relations_->on_interval(interval); });
    }
    per_range_.push_back(std::move(rc));
  }

  // One task list, rebuilt never: each task walks the draining window as a
  // tight per-consumer loop (draining_[0, drain_used_) is read-only while
  // in flight) and appends to exactly one consumer. Looping per consumer
  // rather than fanning out per snapshot keeps each consumer's hot loop
  // resident instead of cycling all six through the instruction cache
  // every 10 simulated seconds.
  for (auto& rc : per_range_) {
    RangeConsumers* c = rc.get();
    window_tasks_.emplace_back([this, c] {
      for (std::size_t k = 0; k < drain_used_; ++k)
        c->contacts.on_snapshot(draining_[k].snap, draining_[k].lists[c->ri]);
    });
    window_tasks_.emplace_back([this, c] {
      for (std::size_t k = 0; k < drain_used_; ++k)
        c->graphs.on_snapshot(draining_[k].snap.fixes.size(), draining_[k].lists[c->ri]);
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

  // Summary bookkeeping, replicating Trace::summary on the trace the
  // snapshots would have formed. Every snapshot counts, covered or not.
  total_fixes_ += use->fixes.size();
  for (const auto& fix : use->fixes) unique_users_.insert(fix.id);
  if (!have_first_) {
    have_first_ = true;
    first_time_ = use->time;
  }
  last_time_ = use->time;
  ++progress_.snapshots;
  const bool covered = gaps_.covered_at(use->time);
  if (covered) ++progress_.covered_snapshots;
  progress_.users_seen = unique_users_.size();
  progress_.max_concurrent = std::max(progress_.max_concurrent, use->fixes.size());
  progress_.last_time = use->time;

  // A snapshot inside a recorded coverage gap carries no valid observation:
  // every consumer skips it (it still counts toward the summary,
  // which Trace::summary computes over all snapshots). The stream ordering
  // contract guarantees any gap covering this snapshot is already known, so
  // the gaps-so-far answer equals the finished trace's.
  if (!covered) return;

  prox_.advance(*use);
  progress_.proximity_rebuilds = prox_.rebuilds();
  progress_.proximity_delta_updates = prox_.delta_updates();

  // Buffer the snapshot with its proximity answer; consumers run when the
  // window fills (or in finish). Deferring is safe: by the stream ordering
  // contract every gap relevant to this snapshot is already in gaps_, and
  // gaps arriving later start strictly after use->time, so every censor
  // predicate a consumer evaluates at flush time answers exactly as it
  // would have here. Copy-assignment into a reused entry keeps the window's
  // allocations warm after the first lap.
  WindowEntry& entry = window_[win_used_];
  entry.snap.time = use->time;
  entry.snap.fixes = use->fixes;
  entry.weight = rates_.current_factor();
  entry.positions = prox_.positions();
  entry.lists.resize(prox_.ranges().size());
  for (std::size_t ri = 0; ri < entry.lists.size(); ++ri) {
    entry.lists[ri] = prox_.pairs(ri);
  }
  if (++win_used_ == window_.size()) flush_window();
}

// Hands the filled window to the pool and returns at once, so the caller
// goes on advancing proximity into the other window while the consumers
// drain this one. The previous window is joined first: windows are consumed
// in order, one at a time. With a one-thread pool submit runs the driver
// inline, so this is the plain sequential loop.
void StreamingAnalyzer::flush_window() {
  if (win_used_ == 0) return;
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
  // Consumers in flight read gaps_, and add may reallocate it.
  join_window();
  gaps_.add(start, end);
  ++progress_.gaps;
}

void StreamingAnalyzer::on_rate_change(Seconds time, std::uint32_t factor) {
  rates_.set_factor(time, factor);
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
  TraceSummary& s = report.summary;
  s.snapshot_count = progress_.snapshots;
  s.gap_count = gaps_.gaps().size();
  s.gap_seconds = gaps_.gap_seconds();
  s.degradation_count = rates_.windows().size();
  s.degraded_seconds = rates_.degraded_seconds();
  if (progress_.snapshots > 0) {
    s.unique_users = unique_users_.size();
    s.max_concurrent = progress_.max_concurrent;
    s.avg_concurrent =
        static_cast<double>(total_fixes_) / static_cast<double>(progress_.snapshots);
    s.duration = last_time_ - first_time_;
  }

  // Pre-create map nodes so finish tasks only write through references
  // (std::map never invalidates mapped references).
  if (options_.flights) report.flights.emplace();
  if (relations_) report.relations.emplace();
  std::vector<std::function<void()>> tasks;
  for (auto& rc : per_range_) {
    RangeConsumers* c = rc.get();
    ContactAnalysis& contacts = report.contacts[c->range];
    tasks.emplace_back([this, c, &contacts, &report] {
      contacts = c->contacts.finish();
      // The relation stream consumes this range's interval sink, so its
      // finish must follow this contact finish — same task, sequentially.
      if (c->feeds_relations) *report.relations = relations_->finish();
    });
    GraphMetrics& graphs = report.graphs[c->range];
    tasks.emplace_back([c, &graphs] { graphs = c->graphs.finish(); });
  }
  tasks.emplace_back([this, &report] { report.zones = zones_->finish(); });
  tasks.emplace_back([this, &report] {
    // Session closure emits into trips/flights, so the whole chain is one
    // sequential task.
    sessions_->finish();
    report.trips = trips_->finish();
    if (flights_) *report.flights = flights_->finish();
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
