#include "core/supervisor.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace slmob {
namespace {

// The golden 3-land experiment under the shard-chaos scenario: every
// archetype once, consecutive seeds, three scripted shard crashes plus one
// stall per shard (FaultSchedule "shard-chaos").
std::vector<ExperimentConfig> three_lands(const std::string& faults = "shard-chaos",
                                          Seconds duration = 900.0) {
  const LandArchetype lands[] = {LandArchetype::kApfelLand, LandArchetype::kDanceIsland,
                                 LandArchetype::kIsleOfView};
  std::vector<ExperimentConfig> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    ExperimentConfig cfg;
    cfg.archetype = lands[i];
    cfg.duration = duration;
    cfg.seed = 42 + i;
    cfg.fault_scenario = faults;
    cfg.ranges = {};
    shards.push_back(cfg);
  }
  return shards;
}

std::vector<std::uint32_t> digests(const std::vector<ShardResult>& results) {
  std::vector<std::uint32_t> out;
  for (const auto& r : results) out.push_back(crc32(encode_trace(r.trace)));
  return out;
}

std::size_t snapshots_at_or_before(const Trace& trace, Seconds t) {
  std::size_t n = 0;
  for (const auto& snap : trace.snapshots()) n += snap.time <= t + 1e-9;
  return n;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Fast-recovery knobs for tests: small checkpoint segments, an aggressive
// watchdog and near-zero backoff, so a whole chaos run heals in seconds of
// wall time. None of these affect trace content.
SupervisorOptions test_options(const std::string& dir) {
  SupervisorOptions opt;
  opt.checkpoint_dir = dir;
  opt.checkpoint_every = 100.0;
  opt.heartbeat_every = 50.0;
  opt.watchdog_timeout_ms = 200.0;
  opt.backoff_base_ms = 1.0;
  opt.backoff_max_ms = 8.0;
  return opt;
}

// The supervisor's core invariant: a supervised run through 3 injected
// crashes and 1 stall per shard completes unattended and its traces are
// bit-identical to the uninterrupted (fault-ignoring) run — at every thread
// count. Shard-fault windows are invisible outside the supervisor, so plain
// run_sharded over the same configs IS the uninterrupted reference. Each
// crash also loses at most the frame in flight, and every contained failure
// resumes within a bounded wall time.
TEST(Supervisor, ChaosRunBitIdenticalToUninterruptedAcrossThreadCounts) {
  constexpr double kRecoveryBoundMs = 15000.0;
  const auto shards = three_lands();
  ShardRunOptions plain;
  plain.threads = 1;
  const auto baseline = run_sharded(shards, plain);
  const auto reference = digests(baseline);
  ASSERT_EQ(reference.size(), 3u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::string dir =
        fresh_dir("supervisor-chaos-t" + std::to_string(threads));
    SupervisorOptions opt = test_options(dir);
    opt.threads = threads;
    const SupervisedRun run = run_supervised(shards, opt);

    EXPECT_TRUE(run.all_completed()) << "thread count " << threads;
    EXPECT_FALSE(run.any_failed_partial());
    EXPECT_EQ(digests(run.shards), reference) << "thread count " << threads;

    std::uint64_t crashes = 0, stalls = 0;
    for (const auto& h : run.health) {
      crashes += h.crashes;
      stalls += h.stalls;
      EXPECT_EQ(h.phase, ShardPhase::kCompleted);
      EXPECT_GE(h.restarts, 1u) << "shard " << h.index << " was never restarted";
      for (const ShardFaultEvent& ev : h.events) {
        if (ev.kind == ShardFaultEvent::Kind::kInjectedCrash) {
          // The journal trails what the uninterrupted run had captured by
          // the same virtual instant by at most the frame in flight.
          const std::size_t captured =
              snapshots_at_or_before(baseline[h.index].trace, ev.at);
          EXPECT_LE(captured, ev.snapshots_at_fault + 1)
              << "shard " << h.index << ": " << ev.what;
        }
        if (ev.kind != ShardFaultEvent::Kind::kWatchdogAbort) {
          EXPECT_GE(ev.recovery_ms, 0.0)
              << "shard " << h.index << " never resumed after: " << ev.what;
        }
        EXPECT_LE(ev.recovery_ms, kRecoveryBoundMs) << "shard " << h.index << ": " << ev.what;
      }
    }
    // shard-chaos scripts 3 crashes + 1 stall per shard, all of which fire.
    EXPECT_GE(crashes, 9u);
    EXPECT_GE(stalls, 3u);
  }
}

TEST(Supervisor, WatchdogDetectsStallWithinDeadlineAndRestarts) {
  std::vector<ExperimentConfig> one = three_lands("none");
  one.resize(1);
  // Programmatic schedule (not a named scenario): a single stall mid-run.
  one[0].testbed.faults.add(
      {FaultKind::kShardStall, 300.0, 301.0, 1.0, {}});

  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(one, plain));

  SupervisorOptions opt = test_options(fresh_dir("supervisor-stall"));
  opt.threads = 1;
  const SupervisedRun run = run_supervised(one, opt);

  ASSERT_TRUE(run.all_completed());
  const ShardHealth& h = run.health[0];
  EXPECT_EQ(h.stalls, 1u);
  EXPECT_EQ(h.crashes, 0u);
  EXPECT_GE(h.watchdog_aborts, 1u);
  EXPECT_EQ(h.restarts, 1u);

  // The stall event records how long the watchdog took to cancel the wedged
  // shard: detection must happen within a small multiple of the deadline
  // (poll quantum + scheduling slack), never hang.
  ASSERT_EQ(h.events.size(), 1u);
  const ShardFaultEvent& ev = h.events[0];
  EXPECT_EQ(ev.kind, ShardFaultEvent::Kind::kInjectedStall);
  EXPECT_GE(ev.detect_ms, 0.0);
  EXPECT_LE(ev.detect_ms, 10.0 * opt.watchdog_timeout_ms);
  EXPECT_GE(ev.recovery_ms, 0.0);  // it resumed and ticked again

  EXPECT_EQ(digests(run.shards), reference);
}

TEST(Supervisor, InjectedCrashFiresAtItsStartTime) {
  // 437 s is neither a heartbeat (50 s) nor a checkpoint (100 s) multiple:
  // the segment loop must stop there for the fault, not at the next stop.
  std::vector<ExperimentConfig> one = three_lands("none");
  one.resize(1);
  one[0].testbed.faults.add({FaultKind::kShardCrash, 437.0, 438.0, 1.0, {}});
  Testbed bed(make_testbed_config(one[0]));
  bed.run_until(437.0);
  const std::uint64_t snapshots_at_437 = bed.crawler()->stats().snapshots_taken;

  SupervisorOptions opt = test_options(fresh_dir("supervisor-crash-time"));
  opt.threads = 1;
  const SupervisedRun run = run_supervised(one, opt);
  ASSERT_TRUE(run.all_completed());
  ASSERT_EQ(run.health[0].events.size(), 1u);
  const ShardFaultEvent& ev = run.health[0].events[0];
  EXPECT_EQ(ev.kind, ShardFaultEvent::Kind::kInjectedCrash);
  EXPECT_DOUBLE_EQ(ev.at, 437.0);
  EXPECT_EQ(ev.snapshots_at_fault, snapshots_at_437);
}

TEST(Supervisor, HealthySlowShardIsNotFalselyKilled) {
  std::vector<ExperimentConfig> one = three_lands("none", 600.0);
  one.resize(1);

  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(one, plain));

  // Each 50-virtual-second segment sleeps 150 wall ms — a shard crawling
  // along at a good fraction of the 400 ms deadline. Progress (heartbeats)
  // keeps arriving, so the watchdog must leave it alone.
  SupervisorOptions opt = test_options(fresh_dir("supervisor-slow"));
  opt.threads = 1;
  opt.watchdog_timeout_ms = 400.0;
  opt.test_segment_delay_ms = 150.0;
  const SupervisedRun run = run_supervised(one, opt);

  ASSERT_TRUE(run.all_completed());
  EXPECT_EQ(run.health[0].restarts, 0u);
  EXPECT_EQ(run.health[0].watchdog_aborts, 0u);
  EXPECT_TRUE(run.health[0].events.empty());
  EXPECT_EQ(digests(run.shards), reference);
}

TEST(Supervisor, RetryBudgetExhaustionDegradesToFailedPartial) {
  // Shard 1 carries two crash windows but gets a budget of one restart; the
  // other two shards are fault-free and must be untouched by its failure.
  auto shards = three_lands("none");
  shards[1].testbed.faults.add({FaultKind::kShardCrash, 300.0, 301.0, 1.0, {}});
  shards[1].testbed.faults.add({FaultKind::kShardCrash, 500.0, 501.0, 1.0, {}});

  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(shards, plain));

  SupervisorOptions opt = test_options(fresh_dir("supervisor-budget"));
  opt.threads = 2;
  opt.max_restarts = 1;
  const SupervisedRun run = run_supervised(shards, opt);

  EXPECT_FALSE(run.all_completed());
  ASSERT_TRUE(run.any_failed_partial());
  const ShardHealth& h = run.health[1];
  EXPECT_TRUE(h.failed_partial);
  EXPECT_EQ(h.phase, ShardPhase::kFailedPartial);
  EXPECT_EQ(h.crashes, 2u);
  EXPECT_EQ(h.restarts, 1u);

  // Survivors are bit-identical to the uninterrupted run.
  EXPECT_EQ(crc32(encode_trace(run.shards[0].trace)), reference[0]);
  EXPECT_EQ(crc32(encode_trace(run.shards[2].trace)), reference[2]);

  // The salvaged partial trace is honest: it covers the run up to (at most)
  // the fatal crash and censors everything after as a trailing gap ending
  // at the planned end of the run.
  const Trace& partial = run.shards[1].trace;
  ASSERT_FALSE(partial.gaps().empty());
  EXPECT_DOUBLE_EQ(partial.gaps().back().end, 900.0);
  EXPECT_GT(partial.snapshots().size(), 0u);  // pre-crash capture survived

  // ... and the gap-censored analysis pipeline takes it as it is.
  AnalysisReport report;
  ASSERT_NO_THROW(report = analyze_trace(partial, {kBluetoothRange}, kDefaultLandSize, 1));
  EXPECT_GE(report.summary.gap_count, 1u);
  EXPECT_EQ(report.summary.snapshot_count, partial.snapshots().size());
}

// Plants unreadable files where the shard's two checkpoint generations live.
void plant_garbage_checkpoints(const std::string& dir, const ExperimentConfig& shard) {
  const std::string shard_dir = dir + "/" + shard_dir_name(0, shard.archetype);
  std::filesystem::create_directories(shard_dir);
  for (const char* name : {kCheckpointFileName, kCheckpointPrevFileName}) {
    std::FILE* f = std::fopen((shard_dir + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage, both generations", f);
    ASSERT_EQ(std::fclose(f), 0);
  }
}

TEST(Supervisor, FreshStartClearsCorruptCheckpointsLeftInTheDirectory) {
  auto one = three_lands("none");
  one.resize(1);
  one[0].testbed.faults.add({FaultKind::kShardCrash, 450.0, 451.0, 1.0, {}});

  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(one, plain));

  // The first attempt starts fresh and clears both planted files; the
  // restart after the 450 s crash resumes from this run's own 400 s
  // checkpoint, never from the garbage.
  const std::string dir = fresh_dir("supervisor-corrupt");
  plant_garbage_checkpoints(dir, one[0]);
  SupervisorOptions opt = test_options(dir);
  opt.threads = 1;
  const SupervisedRun run = run_supervised(one, opt);

  ASSERT_TRUE(run.all_completed());
  EXPECT_EQ(digests(run.shards), reference);
  const ShardHealth& h = run.health[0];
  EXPECT_EQ(h.restarts, 1u);
  EXPECT_EQ(h.cold_restarts, 0u);
  EXPECT_FALSE(h.used_fallback_checkpoint);
}

TEST(Supervisor, RestartBeforeTheFirstCheckpointColdRestartsAndCompletes) {
  auto one = three_lands("none");
  one.resize(1);
  one[0].testbed.faults.add({FaultKind::kShardCrash, 450.0, 451.0, 1.0, {}});

  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(one, plain));

  const std::string dir = fresh_dir("supervisor-both-corrupt");
  plant_garbage_checkpoints(dir, one[0]);
  SupervisorOptions opt = test_options(dir);
  opt.threads = 1;
  // No checkpoint ever lands (segments longer than the run), and the fresh
  // start cleared the planted files, so the restart after the 450 s crash
  // finds nothing to load: it cold-restarts from zero, without a rejected
  // checkpoint to report, and still reproduces the uninterrupted trace.
  opt.checkpoint_every = 1e9;
  const SupervisedRun run = run_supervised(one, opt);

  ASSERT_TRUE(run.all_completed());
  EXPECT_EQ(digests(run.shards), reference);
  const ShardHealth& h = run.health[0];
  EXPECT_EQ(h.cold_restarts, 1u);
  EXPECT_EQ(h.last_error.find(kCheckpointFileName), std::string::npos) << h.last_error;
}

// A crash whose newest checkpoint generation is torn on disk: the restart
// rejects checkpoint.slck, resumes from checkpoint.prev.slck (one segment
// further back) and still reproduces the uninterrupted trace. The tear
// fires at 449 s, after the 400 s save and before the 450 s crash, and no
// save falls between, so the restart meets exactly the torn file.
TEST(Supervisor, TornNewestCheckpointResumesFromTheFallbackGeneration) {
  auto one = three_lands("none");
  one.resize(1);
  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(one, plain));

  one[0].testbed.faults.add({FaultKind::kCheckpointTear, 449.0, 450.0, 1.0, {}});
  one[0].testbed.faults.add({FaultKind::kShardCrash, 450.0, 451.0, 1.0, {}});
  SupervisorOptions opt = test_options(fresh_dir("supervisor-torn-newest"));
  opt.threads = 1;
  const SupervisedRun run = run_supervised(one, opt);

  ASSERT_TRUE(run.all_completed());
  EXPECT_EQ(digests(run.shards), reference);
  const ShardHealth& h = run.health[0];
  EXPECT_EQ(h.restarts, 1u);
  EXPECT_TRUE(h.used_fallback_checkpoint);
  EXPECT_EQ(h.cold_restarts, 0u);
  EXPECT_NE(h.last_error.find(kCheckpointFileName), std::string::npos) << h.last_error;
}

// Both generations torn: no checkpoint loads, so the restart cold-restarts
// from zero with a diagnostic naming both files, instead of failing the
// shard, and the trace is still the uninterrupted one.
TEST(Supervisor, BothCheckpointGenerationsTornColdRestarts) {
  auto one = three_lands("none");
  one.resize(1);
  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(one, plain));

  one[0].testbed.faults.add({FaultKind::kCheckpointTear, 449.0, 450.0, 2.0, {}});
  one[0].testbed.faults.add({FaultKind::kShardCrash, 450.0, 451.0, 1.0, {}});
  SupervisorOptions opt = test_options(fresh_dir("supervisor-torn-both"));
  opt.threads = 1;
  const SupervisedRun run = run_supervised(one, opt);

  ASSERT_TRUE(run.all_completed());
  EXPECT_EQ(digests(run.shards), reference);
  const ShardHealth& h = run.health[0];
  EXPECT_EQ(h.restarts, 1u);
  EXPECT_EQ(h.crashes, 1u);
  EXPECT_EQ(h.cold_restarts, 1u);
  EXPECT_FALSE(h.used_fallback_checkpoint);
  EXPECT_NE(h.last_error.find(kCheckpointFileName), std::string::npos) << h.last_error;
  EXPECT_NE(h.last_error.find(kCheckpointPrevFileName), std::string::npos) << h.last_error;
}

// Running the same supervised config twice in one directory is two fresh
// runs: the second never resumes the first one's checkpoints (which would
// fire every shard fault scheduled before that frontier at the frontier,
// each with its own restart and replay).
TEST(Supervisor, RerunInSameDirectoryStartsFresh) {
  const auto shards = three_lands();
  SupervisorOptions opt = test_options(fresh_dir("supervisor-rerun"));
  opt.threads = 3;
  const SupervisedRun first = run_supervised(shards, opt);
  const SupervisedRun second = run_supervised(shards, opt);

  ASSERT_TRUE(first.all_completed());
  ASSERT_TRUE(second.all_completed());
  EXPECT_EQ(digests(second.shards), digests(first.shards));
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardHealth& a = first.health[i];
    const ShardHealth& b = second.health[i];
    EXPECT_EQ(b.crashes, a.crashes) << "shard " << i;
    EXPECT_EQ(b.stalls, a.stalls) << "shard " << i;
    EXPECT_EQ(b.restarts, a.restarts) << "shard " << i;
    EXPECT_EQ(b.cold_restarts, a.cold_restarts) << "shard " << i;
    EXPECT_EQ(b.checkpoints_written, a.checkpoints_written) << "shard " << i;
    EXPECT_GT(a.checkpoints_written, 0u) << "shard " << i;
  }
}

TEST(Supervisor, RequiresCheckpointDir) {
  EXPECT_THROW(run_supervised(three_lands(), SupervisorOptions{}),
               std::invalid_argument);
}

TEST(Supervisor, RejectsShardWithoutCrawler) {
  // Only crawler traces are journaled, so a crawler-less shard is a
  // misconfiguration the caller hears about before any shard runs.
  auto shards = three_lands("none");
  shards[2].testbed.with_crawler = false;
  shards[2].testbed.with_ground_truth = true;
  const std::string dir = fresh_dir("supervisor-no-crawler");
  EXPECT_THROW(run_supervised(shards, test_options(dir)), std::logic_error);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace slmob
