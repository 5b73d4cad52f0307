#include "core/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "util/log.hpp"
#include "util/thread_pool.hpp"
#include "util/wallclock.hpp"

namespace slmob {

const char* shard_phase_name(ShardPhase phase) {
  switch (phase) {
    case ShardPhase::kIdle: return "idle";
    case ShardPhase::kRunning: return "running";
    case ShardPhase::kStalled: return "stalled";
    case ShardPhase::kBackoff: return "backoff";
    case ShardPhase::kCompleted: return "completed";
    case ShardPhase::kFailedPartial: return "failed-partial";
  }
  return "unknown";
}

namespace {

// Watchdog/backoff timing measures the host, not the simulation, and goes
// through the sanctioned wall-clock seam so tests can mock it.
struct Clock {
  using time_point = slmob::wallclock::TimePoint;
  static time_point now() { return slmob::wallclock::now(); }
};
using slmob::wallclock::ms_since;
using slmob::wallclock::sleep_ms;

// Interrupts that unwind a shard's run loop to its crash barrier. They model
// process death, so they deliberately skip all trace/journal finalization —
// the on-disk state they leave is exactly a SIGKILL's.
struct InjectedCrash : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct InjectedStall : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct WatchdogAbort : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Heartbeat channel between one shard's loop and the watchdog thread. The
// shard publishes (attempt, heartbeat, phase); the watchdog only ever sets
// `cancel`. Addresses must stay stable while threads run, so run_supervised
// holds these behind unique_ptr.
struct ShardRuntime {
  std::atomic<std::uint64_t> heartbeat{0};
  std::atomic<std::uint64_t> attempt{0};
  std::atomic<bool> cancel{false};
  std::atomic<int> phase{static_cast<int>(ShardPhase::kIdle)};
};

// Everything one shard's supervision loop needs, owned by the shard's
// worker thread (only ShardRuntime is shared). It is also the shard's
// observer on the durable segment loop (core/checkpoint.hpp): heartbeats,
// watchdog cancels and injected shard faults.
class ShardCtx final : public SegmentObserver {
 public:
  ShardCtx(const ExperimentConfig& shard_config, const SupervisorOptions& options,
           std::string shard_dir, std::string shard_out_path, ShardRuntime& runtime,
           ShardHealth& shard_health)
      : config(shard_config),
        opt(options),
        dir(std::move(shard_dir)),
        out_path(std::move(shard_out_path)),
        rt(runtime),
        health(shard_health),
        injections(make_testbed_config(shard_config).faults.shard_faults()),
        heartbeat(options.heartbeat_every > 0.0 ? options.heartbeat_every
                                                : shard_config.duration) {}

  const ExperimentConfig& config;
  const SupervisorOptions& opt;
  std::string dir;       // this shard's checkpoint directory
  std::string out_path;  // destination trace path ("" = none)
  ShardRuntime& rt;
  ShardHealth& health;

  // Shard-fault windows in start order; `next_injection` indexes the first
  // window that has not fired yet. The index persists across restart
  // attempts: a fired fault never re-arms, like a real crash that does not
  // recur on replay.
  std::vector<FaultWindow> injections;
  std::size_t next_injection{0};

  // Recovery-latency bookkeeping: set when a failure is contained, resolved
  // when the restarted shard completes its first segment.
  std::optional<std::size_t> pending_recovery_event;
  Clock::time_point recovery_t0{};

  Seconds heartbeat;  // opt.heartbeat_every, sanitised

  [[nodiscard]] std::string journal_file() const { return dir + "/" + kJournalFileName; }

  void set_phase(ShardPhase p) {
    rt.phase.store(static_cast<int>(p), std::memory_order_relaxed);
    health.phase = p;
  }
  [[nodiscard]] bool canceled() const {
    return rt.cancel.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Seconds heartbeat_every() const override { return heartbeat; }
  Seconds before_step(Seconds t, Testbed& bed, const TraceJournalWriter* writer) override;
  void after_step(bool replaying, bool checkpointed) override {
    rt.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (replaying) return;
    if (pending_recovery_event) {
      // First completed segment after a restart: the shard is ticking again.
      health.events[*pending_recovery_event].recovery_ms = ms_since(recovery_t0);
      pending_recovery_event.reset();
    }
    if (opt.test_segment_delay_ms > 0.0) sleep_ms(opt.test_segment_delay_ms);
    if (checkpointed) ++health.checkpoints_written;
  }
};

std::string describe(const char* what, Seconds at) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s at t=%.0f s", what, at);
  return buf;
}

// Builds the rig for one attempt. The first attempt is a fresh start, like
// every run that does not resume (start_durable_rig clears whatever an
// earlier run left in the directory). A restart resumes from the best usable
// checkpoint generation, else cold-starts. Corrupt checkpoints and
// replay-verify mismatches are contained here — they demote the restart to
// a cold restart (with a diagnostic) instead of failing the shard.
DurableRig prepare_rig(ShardCtx& c) {
  if (c.rt.attempt.load(std::memory_order_relaxed) == 1) {
    return start_durable_rig(c.config, c.dir, c.opt.checkpoint_every, c.out_path);
  }
  try {
    DurableResume resumed = resume_durable_rig(c.dir, &c.config, &c);
    if (!resumed.loaded.diagnostic.empty()) c.health.last_error = resumed.loaded.diagnostic;
    if (resumed.rig) {
      if (resumed.loaded.used_fallback) c.health.used_fallback_checkpoint = true;
      // Later checkpoints carry this run's destination and interval.
      resumed.rig->state.out_path = c.out_path;
      resumed.rig->state.checkpoint_every = c.opt.checkpoint_every;
      return std::move(*resumed.rig);
    }
    // No loadable checkpoint at all (too early for the first save, or every
    // generation corrupt): the restart replays nothing. Count it.
    ++c.health.cold_restarts;
  } catch (const WatchdogAbort&) {
    throw;
  } catch (const std::exception& e) {
    c.health.last_error = std::string("checkpoint unusable, cold-restarting: ") + e.what();
    log_warn("supervisor", c.health.last_error);
    ++c.health.cold_restarts;
  }
  return start_durable_rig(c.config, c.dir, c.opt.checkpoint_every, c.out_path);
}

// Fires the next due shard fault. Marks it fired *before* throwing so a
// restarted attempt sails past the window, and records the fault event with
// the snapshots captured so far (test_core_supervisor gates frames lost per
// crash against it).
void fire_injection(ShardCtx& c, Testbed& bed, const FaultWindow& w) {
  ++c.next_injection;  // at most once per run
  ShardFaultEvent ev;
  ev.at = w.start;
  ev.snapshots_at_fault = bed.crawler()->stats().snapshots_taken;

  if (w.kind == FaultKind::kShardCrash) {
    ev.kind = ShardFaultEvent::Kind::kInjectedCrash;
    ev.what = describe("injected shard crash", w.start);
    c.health.events.push_back(ev);
    ++c.health.crashes;
    throw InjectedCrash(ev.what);
  }

  // Stall: stop heartbeating and wedge until the watchdog cancels us. With
  // the watchdog disabled the stall would hang the run forever, so it
  // converts to an immediate failure instead.
  ev.kind = ShardFaultEvent::Kind::kInjectedStall;
  c.set_phase(ShardPhase::kStalled);
  ++c.health.stalls;
  if (c.opt.watchdog_timeout_ms <= 0.0) {
    ev.detect_ms = 0.0;
    ev.what = describe("injected shard stall (watchdog disabled)", w.start);
    c.health.events.push_back(ev);
    throw InjectedStall(ev.what);
  }
  const Clock::time_point stalled_at = Clock::now();
  while (!c.canceled()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ev.detect_ms = ms_since(stalled_at);
  ++c.health.watchdog_aborts;
  ev.what = describe("injected shard stall", w.start) + " (watchdog canceled after " +
            std::to_string(static_cast<long>(ev.detect_ms)) + " ms)";
  c.health.events.push_back(ev);
  throw InjectedStall(ev.what);
}

// Replay (no writer) only answers the watchdog; the run also stops at the
// next shard-fault time and fires it once reached.
Seconds ShardCtx::before_step(Seconds t, Testbed& bed, const TraceJournalWriter* writer) {
  if (writer == nullptr) {
    if (canceled()) throw WatchdogAbort("watchdog canceled shard during checkpoint replay");
    return std::numeric_limits<Seconds>::infinity();
  }
  if (canceled()) throw WatchdogAbort("watchdog canceled shard");
  if (next_injection == injections.size()) return std::numeric_limits<Seconds>::infinity();
  const FaultWindow& w = injections[next_injection];
  if (w.start <= t + 1e-9) fire_injection(*this, bed, w);
  return w.start;
}

// Retry budget exhausted: salvage whatever the journal holds. The salvaged
// trace carries a trailing CoverageGap to the planned end of the run, so
// downstream analysis sees the unrun remainder as censored, not as empty
// calm.
ShardResult degrade_to_partial(ShardCtx& c) {
  c.health.failed_partial = true;
  c.set_phase(ShardPhase::kFailedPartial);
  log_warn("supervisor", "shard retry budget exhausted, degrading to failed-partial: " +
                             c.health.last_error);

  ShardResult result;
  result.archetype = c.config.archetype;
  result.seed = c.config.seed;
  result.out_path = c.out_path;
  result.checkpoints_written = c.health.checkpoints_written;
  try {
    JournalSalvage salvage = salvage_journal(c.journal_file());
    result.trace = std::move(salvage.trace);
  } catch (const std::exception& e) {
    // The journal never held one complete record: the entire planned run is
    // one censored gap.
    const TestbedConfig tb = make_testbed_config(c.config);
    Trace empty(archetype_name(c.config.archetype), tb.crawler.sample_interval);
    empty.add_gap(0.0, c.config.duration);
    result.trace = std::move(empty);
    c.health.last_error += std::string("; journal unsalvageable: ") + e.what();
  }
  return result;
}

// The crash barrier: runs attempts until the shard completes or its retry
// budget is exhausted. Everything a shard can throw is contained here;
// misconfiguration (no crawler) is rejected by run_supervised up front.
ShardResult supervise_shard(ShardCtx& c) {
  for (;;) {
    c.rt.attempt.fetch_add(1, std::memory_order_relaxed);
    c.rt.cancel.store(false, std::memory_order_relaxed);
    c.set_phase(ShardPhase::kRunning);
    try {
      DurableRig rig = prepare_rig(c);
      DurableRunResult result = run_durable_rig(rig, std::nullopt, &c);
      c.set_phase(ShardPhase::kCompleted);
      result.checkpoints_written = c.health.checkpoints_written;
      return result;
    } catch (const InjectedCrash& e) {
      c.health.last_error = e.what();
    } catch (const InjectedStall& e) {
      c.health.last_error = e.what();
    } catch (const WatchdogAbort& e) {
      ++c.health.watchdog_aborts;
      c.health.last_error = e.what();
      c.health.events.push_back({ShardFaultEvent::Kind::kWatchdogAbort,
                                 /*at=*/-1.0, 0, -1.0, -1.0, e.what()});
    } catch (const std::exception& e) {
      // A real bug or I/O failure — contained exactly like an injected
      // crash, so one broken shard cannot take down the run.
      ++c.health.crashes;
      c.health.last_error = e.what();
      c.health.events.push_back({ShardFaultEvent::Kind::kException,
                                 /*at=*/-1.0, 0, -1.0, -1.0, e.what()});
    }

    c.recovery_t0 = Clock::now();
    c.pending_recovery_event =
        c.health.events.empty() ? std::optional<std::size_t>{}
                                : std::optional<std::size_t>{c.health.events.size() - 1};

    if (c.health.restarts >= c.opt.max_restarts) {
      return degrade_to_partial(c);
    }
    ++c.health.restarts;
    c.set_phase(ShardPhase::kBackoff);
    const double exp =
        std::ldexp(c.opt.backoff_base_ms,
                   static_cast<int>(std::min<std::uint64_t>(c.health.restarts - 1, 20)));
    sleep_ms(std::min(exp, c.opt.backoff_max_ms));
  }
}

// Deadline watchdog: one thread polling every shard's (attempt, heartbeat)
// epoch. A shard whose epoch has not moved for `timeout_ms` wall ms while
// it claims to be running (or is wedged in a stall) gets canceled; the
// shard observes the flag at its next boundary — or, for a true stall, in
// its wedge loop — and unwinds to the crash barrier.
void watchdog_loop(std::vector<std::unique_ptr<ShardRuntime>>& runtimes,
                   double timeout_ms, std::atomic<bool>& done) {
  struct Seen {
    std::uint64_t attempt{0};
    std::uint64_t heartbeat{0};
    Clock::time_point since{Clock::now()};
  };
  std::vector<Seen> seen(runtimes.size());
  const double poll_ms = std::clamp(timeout_ms / 4.0, 1.0, 50.0);
  while (!done.load(std::memory_order_relaxed)) {
    sleep_ms(poll_ms);
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < runtimes.size(); ++i) {
      ShardRuntime& rt = *runtimes[i];
      const std::uint64_t a = rt.attempt.load(std::memory_order_relaxed);
      const std::uint64_t h = rt.heartbeat.load(std::memory_order_relaxed);
      if (a != seen[i].attempt || h != seen[i].heartbeat) {
        seen[i] = {a, h, now};
        continue;
      }
      const auto phase = static_cast<ShardPhase>(rt.phase.load(std::memory_order_relaxed));
      if (phase != ShardPhase::kRunning && phase != ShardPhase::kStalled) {
        seen[i].since = now;  // idle/backoff/finished shards are never stale
        continue;
      }
      const double stale_ms =
          std::chrono::duration<double, std::milli>(now - seen[i].since).count();
      if (stale_ms >= timeout_ms &&
          a == rt.attempt.load(std::memory_order_relaxed)) {
        rt.cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
}

}  // namespace

SupervisedRun run_supervised(const std::vector<ExperimentConfig>& shards,
                             const SupervisorOptions& options) {
  if (options.checkpoint_dir.empty()) {
    throw std::invalid_argument("run_supervised: checkpoint_dir required");
  }
  check_out_paths(options.out_paths, shards.size());
  for (const ExperimentConfig& config : shards) {
    if (!config.testbed.with_crawler) {
      throw std::logic_error("run_supervised: every shard needs a crawler to journal");
    }
  }

  SupervisedRun run;
  run.shards.resize(shards.size());
  run.health.resize(shards.size());
  std::vector<std::unique_ptr<ShardRuntime>> runtimes;
  runtimes.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    runtimes.push_back(std::make_unique<ShardRuntime>());
  }

  std::atomic<bool> done{false};
  std::thread watchdog;
  if (options.watchdog_timeout_ms > 0.0) {
    watchdog = std::thread(
        [&] { watchdog_loop(runtimes, options.watchdog_timeout_ms, done); });
  }

  ThreadPool pool(options.threads);
  std::exception_ptr error;
  try {
    parallel_for(pool, shards.size(), [&](std::size_t i) {
      ShardCtx c(shards[i], options,
                 options.checkpoint_dir + "/" + shard_dir_name(i, shards[i].archetype),
                 options.out_paths.empty() ? std::string{} : options.out_paths[i],
                 *runtimes[i], run.health[i]);
      c.health.index = i;
      c.health.archetype = shards[i].archetype;
      c.health.seed = shards[i].seed;
      run.shards[i] = supervise_shard(c);
    });
  } catch (...) {
    error = std::current_exception();
  }
  done.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) watchdog.join();
  if (error) std::rethrow_exception(error);
  return run;
}

}  // namespace slmob
