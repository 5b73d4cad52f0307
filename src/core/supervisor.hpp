// Self-healing run supervisor: crash containment, watchdog, and automatic
// checkpoint-resume for sharded multi-land runs.
//
// The paper's measurement campaign ran for days against live regions and
// was "interrupted several times" — crawler logouts, sim restarts, library
// crashes — each interruption needing a human to restart the capture. The
// supervisor makes a sharded run (core/shards.hpp) survive those events on
// its own. Every shard executes behind a crash barrier: exceptions and
// injected process faults (FaultKind::kShardCrash / kShardStall) are
// contained to the shard, a deadline watchdog detects shards that stop
// making tick progress, and any contained failure triggers an in-process
// restart of just that shard from its last durable checkpoint, with capped
// exponential backoff and a per-shard retry budget. Every attempt is a
// durable run through the one segment loop and resume routine of
// core/checkpoint.hpp, with the shard as the loop's observer (heartbeats,
// shard-fault stops, watchdog cancels); only the failure policy is the
// supervisor's own: a checkpoint that does not load or replay demotes the
// attempt to a cold restart instead of failing it.
//
// Core invariant (enforced by test_core_supervisor, chiefly
// Supervisor.ChaosRunBitIdenticalToUninterruptedAcrossThreadCounts, which
// also gates frames lost per crash and recovery latency): because
// checkpoint resume is deterministic replay (core/checkpoint.hpp), a
// supervised run with injected crashes emits traces bit-identical to an
// uninterrupted run of the same configs, at any thread count.
//
// When a shard exhausts its retry budget the run degrades instead of
// failing: the supervisor salvages the shard's journal, the unrun remainder
// stays censored as a trailing CoverageGap, the shard is marked
// failed-partial in its health record, and every other shard finishes
// normally.
//
// Per-shard state machine (see DESIGN.md §13):
//
//   idle → running → completed
//            │ ↑
//            │ └──────── resumed (replay from checkpoint)
//            ▼                ↑
//      crashed / stalled → backoff ──(budget exhausted)→ failed-partial
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/shards.hpp"

namespace slmob {

// Lifecycle phase of one supervised shard, also published (atomically) to
// the watchdog while the shard runs.
enum class ShardPhase : int {
  kIdle = 0,
  kRunning,
  kStalled,        // wedged in a kShardStall window, waiting for the watchdog
  kBackoff,        // contained a failure, sleeping before the restart
  kCompleted,
  kFailedPartial,  // retry budget exhausted; journal salvaged, tail censored
};

[[nodiscard]] const char* shard_phase_name(ShardPhase phase);

// One contained failure of one shard, with enough timing to gate recovery
// latency (test_core_supervisor).
struct ShardFaultEvent {
  enum class Kind {
    kInjectedCrash,  // FaultKind::kShardCrash window reached
    kInjectedStall,  // FaultKind::kShardStall window reached
    kWatchdogAbort,  // watchdog canceled a shard that stopped heartbeating
    kException,      // a real exception escaped the shard
  };
  Kind kind{Kind::kException};
  Seconds at{0.0};                       // virtual time of the failure
  std::uint64_t snapshots_at_fault{0};   // crawler snapshots taken so far
  // Stalls: wall ms from entering the stall to the watchdog's cancel.
  double detect_ms{-1.0};
  // Wall ms from containing the failure to the restarted shard completing
  // its first segment (detect → backoff → resume → ticking); -1 when the
  // failure ended the shard (budget exhausted).
  double recovery_ms{-1.0};
  std::string what;                      // exception text / fault description
};

// Health record of one shard over the whole supervised run.
struct ShardHealth {
  std::size_t index{0};
  LandArchetype archetype{LandArchetype::kIsleOfView};
  std::uint64_t seed{0};
  ShardPhase phase{ShardPhase::kIdle};
  std::uint64_t crashes{0};          // injected crashes + real exceptions
  std::uint64_t stalls{0};           // injected stalls
  std::uint64_t watchdog_aborts{0};  // cancels issued by the watchdog
  std::uint64_t restarts{0};         // restart attempts consumed
  std::uint64_t cold_restarts{0};    // restarts that found no usable checkpoint
  std::size_t checkpoints_written{0};
  bool used_fallback_checkpoint{false};  // a resume loaded checkpoint.prev.slck
  bool failed_partial{false};
  std::string last_error;            // most recent failure / diagnostic text
  std::vector<ShardFaultEvent> events;
};

struct SupervisorOptions {
  // Worker threads across shards, ThreadPool semantics (1 = serial,
  // 0 = SLMOB_THREADS / hardware default).
  std::size_t threads{0};
  // Required: every shard runs journaled + checkpointed under
  // <checkpoint_dir>/shard-NN-<land>/, rotating two checkpoint generations.
  std::string checkpoint_dir;
  Seconds checkpoint_every{300.0};
  // Optional, parallel to the shard configs (see ShardRunOptions).
  std::vector<std::string> out_paths;
  // Retry budget per shard; exceeding it degrades the shard to
  // failed-partial instead of failing the run.
  std::uint64_t max_restarts{5};
  // Watchdog deadline in wall milliseconds without heartbeat progress;
  // <= 0 disables the watchdog (injected stalls then fail immediately).
  double watchdog_timeout_ms{30000.0};
  // Capped exponential backoff between restart attempts (wall ms).
  double backoff_base_ms{100.0};
  double backoff_max_ms{2000.0};
  // Heartbeat granularity in *virtual* seconds: the shard loop publishes a
  // heartbeat to the watchdog at least this often. Smaller = faster stall
  // detection, more sub-steps (never affects trace content).
  Seconds heartbeat_every{60.0};
  // Test hook: wall ms slept after every completed segment, making a shard
  // slow-but-healthy so tests can prove the watchdog does not false-kill.
  double test_segment_delay_ms{0.0};
};

struct SupervisedRun {
  std::vector<ShardResult> shards;  // config order, like run_sharded
  std::vector<ShardHealth> health;  // parallel to `shards`

  [[nodiscard]] bool all_completed() const {
    for (const auto& h : health) {
      if (h.phase != ShardPhase::kCompleted) return false;
    }
    return true;
  }
  [[nodiscard]] bool any_failed_partial() const {
    for (const auto& h : health) {
      if (h.failed_partial) return true;
    }
    return false;
  }
};

// Runs every shard under supervision. Shard-fault windows in each config's
// fault schedule (FaultSchedule::shard_faults) are injected at their start
// times, each at most once per run. Before any shard starts, throws
// std::invalid_argument when `options.checkpoint_dir` is empty or
// `options.out_paths` has the wrong length (check_out_paths), and
// std::logic_error for a shard config without a crawler (only crawler
// traces are journaled and thus healable).
SupervisedRun run_supervised(const std::vector<ExperimentConfig>& shards,
                             const SupervisorOptions& options);

}  // namespace slmob
