#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <vector>

#include "trace/serialize.hpp"

namespace slmob {
namespace {

ExperimentConfig short_config(std::uint64_t seed, const std::string& faults = "none") {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = 900.0;
  cfg.seed = seed;
  cfg.fault_scenario = faults;
  cfg.ranges = {};
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CheckpointState sample_state() {
  CheckpointState state;
  state.archetype = LandArchetype::kDanceIsland;
  state.duration = 86400.0;
  state.seed = 1234;
  state.fault_scenario = "chaos";
  state.fault_seed = 99;
  state.out_path = "runs/dance.slt";
  state.checkpoint_every = 600.0;
  state.time = 7200.0;
  state.engine_tick = 7200;
  state.journal_offset = 123456;
  state.world_rng = {1, 2, 3, 4};
  state.network_rng = {5, 6, 7, 8};
  state.crawler_backoff_level = 2;
  state.crawler_snapshots = 700;
  state.crawler_relogins = 3;
  state.crawler_coverage_gaps = 2;
  state.world_logins = 4000;
  state.network_sent = 250000;
  return state;
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const CheckpointState state = sample_state();
  EXPECT_EQ(decode_checkpoint(encode_checkpoint(state)), state);
}

TEST(Checkpoint, DecodeRejectsTampering) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(sample_state());
  EXPECT_THROW(decode_checkpoint({}), DecodeError);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_checkpoint(bad_magic), DecodeError);

  // Any payload bit-flip fails the CRC — a checkpoint is trusted wholesale
  // (it gates a resumed measurement) so corruption must never half-decode.
  std::vector<std::uint8_t> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x10;
  EXPECT_THROW(decode_checkpoint(flipped), DecodeError);

  std::vector<std::uint8_t> truncated = bytes;
  truncated.resize(bytes.size() - 3);
  EXPECT_THROW(decode_checkpoint(truncated), DecodeError);
}

TEST(Checkpoint, ByteFlipSweepNeverHalfDecodes) {
  // Like test_trace_journal's torn-tail sweep, but for the checkpoint file:
  // flip every single byte in turn and require a clean DecodeError (or, for
  // a lucky flip inside a string length that still CRC-fails, any decode
  // exception) — never UB, never a silently different state.
  const CheckpointState state = sample_state();
  const std::vector<std::uint8_t> bytes = encode_checkpoint(state);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> flipped = bytes;
      flipped[i] ^= mask;
      EXPECT_THROW(decode_checkpoint(flipped), DecodeError)
          << "byte " << i << " mask " << int(mask);
    }
  }
}

TEST(Checkpoint, TruncationSweepNeverHalfDecodes) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint(sample_state());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_checkpoint(truncated), DecodeError) << "length " << len;
  }
}

TEST(Checkpoint, RotatingSaveKeepsTwoGenerations) {
  const std::string dir = fresh_dir("checkpoint_rotate");
  std::filesystem::create_directories(dir);
  CheckpointState older = sample_state();
  older.time = 600.0;
  CheckpointState newer = sample_state();
  newer.time = 1200.0;

  save_checkpoint_rotating(older, dir);
  EXPECT_FALSE(std::filesystem::exists(dir + "/" + kCheckpointPrevFileName));
  save_checkpoint_rotating(newer, dir);

  const CheckpointLoadResult loaded = try_load_checkpoint(dir);
  ASSERT_TRUE(loaded.state.has_value());
  EXPECT_FALSE(loaded.used_fallback);
  EXPECT_TRUE(loaded.diagnostic.empty());
  EXPECT_EQ(*loaded.state, newer);
}

TEST(Checkpoint, CorruptNewestGenerationFallsBackToPrevious) {
  const std::string dir = fresh_dir("checkpoint_fallback");
  std::filesystem::create_directories(dir);
  CheckpointState older = sample_state();
  older.time = 600.0;
  CheckpointState newer = sample_state();
  newer.time = 1200.0;
  save_checkpoint_rotating(older, dir);
  save_checkpoint_rotating(newer, dir);

  // Bit-flip the newest generation on disk.
  const std::string main_path = dir + "/" + kCheckpointFileName;
  std::vector<std::uint8_t> bytes = encode_checkpoint(newer);
  bytes[bytes.size() - 1] ^= 0x40;
  {
    std::FILE* f = std::fopen(main_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
  }

  const CheckpointLoadResult loaded = try_load_checkpoint(dir);
  ASSERT_TRUE(loaded.state.has_value());
  EXPECT_TRUE(loaded.used_fallback);
  // The rejection is loud and names the corrupt file and the CRC failure.
  EXPECT_NE(loaded.diagnostic.find(kCheckpointFileName), std::string::npos);
  EXPECT_NE(loaded.diagnostic.find("CRC"), std::string::npos);
  EXPECT_EQ(*loaded.state, older);
}

TEST(Checkpoint, AllGenerationsCorruptReportsBothAndYieldsNothing) {
  const std::string dir = fresh_dir("checkpoint_both_corrupt");
  std::filesystem::create_directories(dir);
  for (const char* name : {kCheckpointFileName, kCheckpointPrevFileName}) {
    std::FILE* f = std::fopen((dir + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    ASSERT_EQ(std::fclose(f), 0);
  }
  const CheckpointLoadResult loaded = try_load_checkpoint(dir);
  EXPECT_FALSE(loaded.state.has_value());
  EXPECT_NE(loaded.diagnostic.find(kCheckpointFileName), std::string::npos);
  EXPECT_NE(loaded.diagnostic.find(kCheckpointPrevFileName), std::string::npos);
}

TEST(Checkpoint, TryLoadOnFreshDirectoryIsSilentlyEmpty) {
  const std::string dir = fresh_dir("checkpoint_fresh");
  std::filesystem::create_directories(dir);
  const CheckpointLoadResult loaded = try_load_checkpoint(dir);
  EXPECT_FALSE(loaded.state.has_value());
  EXPECT_FALSE(loaded.used_fallback);
  EXPECT_TRUE(loaded.diagnostic.empty());  // nothing there is not an error
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string dir = fresh_dir("checkpoint_saveload");
  std::filesystem::create_directories(dir);
  const CheckpointState state = sample_state();
  save_checkpoint(state, dir);
  EXPECT_EQ(load_checkpoint(dir), state);
  EXPECT_THROW(load_checkpoint(fresh_dir("checkpoint_missing")), std::runtime_error);
}

TEST(Checkpoint, DurableRunMatchesPlainExperiment) {
  // Journal + checkpoint instrumentation must not perturb the measurement:
  // the captured trace is bit-identical to run_experiment's raw trace.
  const ExperimentConfig cfg = short_config(11);
  DurableRunOptions options;
  options.config = cfg;
  options.dir = fresh_dir("durable_vs_plain");
  options.checkpoint_every = 120.0;
  const DurableRunResult durable = run_durable(options);
  EXPECT_FALSE(durable.killed);
  EXPECT_GT(durable.checkpoints_written, 0u);

  ExperimentConfig plain = cfg;
  plain.ranges = {};
  Testbed bed(make_testbed_config(plain));
  bed.run_until(plain.duration);
  const Trace expected = bed.crawler()->take_trace();
  EXPECT_EQ(encode_trace(durable.trace), encode_trace(expected));
}

TEST(Checkpoint, KillAndResumeReproducesUnkilledTrace) {
  const ExperimentConfig cfg = short_config(21, "blackouts");

  DurableRunOptions uninterrupted;
  uninterrupted.config = cfg;
  uninterrupted.dir = fresh_dir("resume_baseline");
  uninterrupted.checkpoint_every = 120.0;
  const DurableRunResult baseline = run_durable(uninterrupted);
  ASSERT_FALSE(baseline.killed);

  DurableRunOptions killed = uninterrupted;
  killed.dir = fresh_dir("resume_killed");
  killed.kill_at = 437.0;  // mid-segment, mid-blackout-free stretch
  const DurableRunResult dead = run_durable(killed);
  EXPECT_TRUE(dead.killed);
  EXPECT_TRUE(dead.trace.empty());

  const DurableRunResult resumed = resume_durable(killed.dir);
  EXPECT_FALSE(resumed.killed);
  EXPECT_EQ(encode_trace(resumed.trace), encode_trace(baseline.trace));
  EXPECT_EQ(resumed.crawler_stats.snapshots_taken, baseline.crawler_stats.snapshots_taken);
  EXPECT_EQ(resumed.world_stats.total_logins, baseline.world_stats.total_logins);
  EXPECT_EQ(resumed.network_stats.sent, baseline.network_stats.sent);

  // The journal on disk also tells the whole story after the resume.
  const JournalSalvage s = salvage_journal(resumed.journal_path);
  EXPECT_TRUE(s.clean_end);
  EXPECT_EQ(encode_trace(s.trace), encode_trace(baseline.trace));
}

TEST(Checkpoint, ResumeIsDeterministicAcrossAttempts) {
  const ExperimentConfig cfg = short_config(31);
  DurableRunOptions options;
  options.config = cfg;
  options.dir = fresh_dir("resume_twice_a");
  options.checkpoint_every = 180.0;
  options.kill_at = 500.0;
  ASSERT_TRUE(run_durable(options).killed);

  // Two resumes of the same on-disk state (resume mutates the journal, so
  // clone the directory first) must produce byte-identical traces.
  const std::string copy = fresh_dir("resume_twice_b");
  std::filesystem::copy(options.dir, copy);
  const DurableRunResult first = resume_durable(options.dir);
  const DurableRunResult second = resume_durable(copy);
  EXPECT_EQ(encode_trace(first.trace), encode_trace(second.trace));
}

TEST(Checkpoint, ResumeSurvivesRepeatedKills) {
  // A run killed over and over — resumed each time from the latest
  // checkpoint — still converges to the uninterrupted trace.
  const ExperimentConfig cfg = short_config(41);
  DurableRunOptions options;
  options.config = cfg;
  options.dir = fresh_dir("resume_repeated");
  options.checkpoint_every = 120.0;
  options.kill_at = 250.0;
  ASSERT_TRUE(run_durable(options).killed);
  ASSERT_TRUE(resume_durable(options.dir, 619.0).killed);
  const DurableRunResult final_run = resume_durable(options.dir);
  ASSERT_FALSE(final_run.killed);

  DurableRunOptions uninterrupted;
  uninterrupted.config = cfg;
  uninterrupted.dir = fresh_dir("resume_repeated_baseline");
  uninterrupted.checkpoint_every = 120.0;
  const DurableRunResult baseline = run_durable(uninterrupted);
  EXPECT_EQ(encode_trace(final_run.trace), encode_trace(baseline.trace));
}

TEST(Checkpoint, ResumeFallsBackToPreviousGeneration) {
  // Every durable run keeps two checkpoint generations. When the newest is
  // torn or bit-flipped, resume replays from the one before it and still
  // reproduces the unkilled trace.
  const ExperimentConfig cfg = short_config(71, "blackouts");
  DurableRunOptions uninterrupted;
  uninterrupted.config = cfg;
  uninterrupted.dir = fresh_dir("resume_fallback_baseline");
  uninterrupted.checkpoint_every = 120.0;
  const DurableRunResult baseline = run_durable(uninterrupted);
  ASSERT_FALSE(baseline.killed);

  DurableRunOptions options = uninterrupted;
  options.dir = fresh_dir("resume_fallback");
  options.kill_at = 500.0;
  const DurableRunResult dead = run_durable(options);
  ASSERT_TRUE(dead.killed);
  ASSERT_GE(dead.checkpoints_written, 2u);
  ASSERT_TRUE(std::filesystem::exists(options.dir + "/" + kCheckpointPrevFileName));

  const std::string newest = options.dir + "/" + kCheckpointFileName;
  {
    std::FILE* f = std::fopen(newest.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int last = std::fgetc(f);
    ASSERT_NE(last, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    ASSERT_NE(std::fputc(last ^ 0x40, f), EOF);
    ASSERT_EQ(std::fclose(f), 0);
  }
  const CheckpointLoadResult loaded = try_load_checkpoint(options.dir);
  ASSERT_TRUE(loaded.used_fallback);
  EXPECT_DOUBLE_EQ(loaded.state->time, 360.0);

  const DurableRunResult resumed = resume_durable(options.dir);
  EXPECT_FALSE(resumed.killed);
  EXPECT_EQ(encode_trace(resumed.trace), encode_trace(baseline.trace));
  const JournalSalvage s = salvage_journal(resumed.journal_path);
  EXPECT_TRUE(s.clean_end);
  EXPECT_EQ(encode_trace(s.trace), encode_trace(baseline.trace));
}

TEST(Checkpoint, NoCheckpointAtTheFinalInstant) {
  // The run ends at t == duration anyway: 900 s at 300 s intervals saves at
  // 300 and 600 only.
  DurableRunOptions options;
  options.config = short_config(81);
  options.dir = fresh_dir("no_final_checkpoint");
  options.checkpoint_every = 300.0;
  const DurableRunResult done = run_durable(options);
  ASSERT_FALSE(done.killed);
  EXPECT_EQ(done.checkpoints_written, 2u);
  EXPECT_DOUBLE_EQ(load_checkpoint(options.dir).time, 600.0);
}

TEST(Checkpoint, StartClearsAnEarlierRunsCheckpoints) {
  // A run that does not resume starts fresh, whatever the directory holds:
  // another seed's two checkpoint generations are gone once the new rig is
  // wired, so a later resume can never splice them onto the new journal.
  DurableRunOptions earlier;
  earlier.config = short_config(91);
  earlier.dir = fresh_dir("start_clears_checkpoints");
  earlier.checkpoint_every = 120.0;
  earlier.kill_at = 500.0;
  ASSERT_TRUE(run_durable(earlier).killed);
  ASSERT_TRUE(std::filesystem::exists(earlier.dir + "/" + kCheckpointPrevFileName));
  ASSERT_TRUE(try_load_checkpoint(earlier.dir).state.has_value());

  const DurableRig rig = start_durable_rig(short_config(92), earlier.dir, 120.0, "");
  const CheckpointLoadResult loaded = try_load_checkpoint(earlier.dir);
  EXPECT_FALSE(loaded.state.has_value());
  EXPECT_TRUE(loaded.diagnostic.empty()) << loaded.diagnostic;
  EXPECT_DOUBLE_EQ(rig.state.time, 0.0);
}

// Records where the segment loop stops while it replays to a checkpoint.
class ReplayStopRecorder final : public SegmentObserver {
 public:
  explicit ReplayStopRecorder(Seconds every) : every_(every) {}
  [[nodiscard]] Seconds heartbeat_every() const override { return every_; }
  Seconds before_step(Seconds, Testbed& bed, const TraceJournalWriter*) override {
    bed_ = &bed;
    return std::numeric_limits<Seconds>::infinity();
  }
  void after_step(bool replaying, bool) override {
    if (replaying) replay_stops.push_back(bed_->engine().now());
  }
  std::vector<Seconds> replay_stops;

 private:
  Seconds every_;
  Testbed* bed_{nullptr};
};

TEST(Checkpoint, ReplayHeartbeatsAtEveryObserverStep) {
  // The run supervisor's watchdog sees progress only through the loop's
  // stops. A replay to a checkpoint 600 s into the run must therefore stop
  // every heartbeat interval, not only at checkpoint multiples (300 s), or a
  // long replay looks like a stall.
  DurableRunOptions options;
  options.config = short_config(95);
  options.dir = fresh_dir("replay_heartbeat");
  options.checkpoint_every = 300.0;
  options.kill_at = 700.0;
  ASSERT_TRUE(run_durable(options).killed);
  ASSERT_DOUBLE_EQ(load_checkpoint(options.dir).time, 600.0);

  constexpr Seconds kHeartbeat = 10.0;
  ReplayStopRecorder recorder(kHeartbeat);
  const DurableResume resumed = resume_durable_rig(options.dir, nullptr, &recorder);
  ASSERT_TRUE(resumed.rig.has_value());
  ASSERT_FALSE(recorder.replay_stops.empty());
  EXPECT_DOUBLE_EQ(recorder.replay_stops.back(), 600.0);
  Seconds previous = 0.0;
  for (const Seconds stop : recorder.replay_stops) {
    EXPECT_LE(stop - previous, kHeartbeat + 1e-9) << "replay stop at " << stop;
    previous = stop;
  }
}

bool same_snapshot(const Snapshot& a, const Snapshot& b) {
  if (a.time != b.time || a.fixes.size() != b.fixes.size()) return false;
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    if (a.fixes[i].id != b.fixes[i].id || !(a.fixes[i].pos == b.fixes[i].pos)) return false;
  }
  return true;
}

// Crash safety over a grid of fault scenarios and kill points: 0.5 h of
// Isle of View, checkpointed every 300 s, killed at 25/50/75 % of the run.
// In every cell a journal whose last byte is also torn (a kill inside
// fwrite) loses at most the frame in flight, salvage recovers a bit-exact
// prefix of the never-killed run, and resuming two clones of the killed
// directory gives byte-identical traces equal to the never-killed run's.
TEST(Checkpoint, KilledRunsLoseAtMostTheFrameInFlightAndResumeExactly) {
  for (const std::string scenario : {"none", "blackouts", "chaos"}) {
    ExperimentConfig cfg = short_config(42, scenario);
    cfg.duration = 0.5 * kSecondsPerHour;
    DurableRunOptions uninterrupted;
    uninterrupted.config = cfg;
    uninterrupted.dir = fresh_dir("durability_" + scenario + "_baseline");
    uninterrupted.checkpoint_every = 300.0;
    const DurableRunResult baseline = run_durable(uninterrupted);
    ASSERT_FALSE(baseline.killed);
    const std::vector<std::uint8_t> baseline_bytes = encode_trace(baseline.trace);

    for (const int percent : {25, 50, 75}) {
      const std::string cell = scenario + "_" + std::to_string(percent);
      SCOPED_TRACE(cell);
      DurableRunOptions killed = uninterrupted;
      killed.dir = fresh_dir("durability_" + cell);
      killed.kill_at = percent / 100.0 * cfg.duration;
      const DurableRunResult dead = run_durable(killed);
      ASSERT_TRUE(dead.killed);

      const JournalSalvage clean = salvage_journal(dead.journal_path);
      const std::string torn_path = dead.journal_path + ".torn.sltj";
      std::filesystem::copy_file(dead.journal_path, torn_path);
      std::filesystem::resize_file(torn_path, std::filesystem::file_size(torn_path) - 1);
      const JournalSalvage torn = salvage_journal(torn_path);
      EXPECT_LE(torn.snapshots, clean.snapshots);
      EXPECT_LE(clean.snapshots - torn.snapshots, 1u);

      ASSERT_LE(torn.trace.size(), baseline.trace.size());
      for (std::size_t i = 0; i < torn.trace.size(); ++i) {
        ASSERT_TRUE(same_snapshot(torn.trace.snapshots()[i], baseline.trace.snapshots()[i]))
            << "salvaged snapshot " << i << " differs from the never-killed run";
      }

      // Resume truncates the journal in place, so the second resume runs on
      // a clone taken before the first.
      const std::string clone = fresh_dir("durability_" + cell + "_clone");
      std::filesystem::copy(killed.dir, clone);
      const std::vector<std::uint8_t> first = encode_trace(resume_durable(killed.dir).trace);
      const std::vector<std::uint8_t> second = encode_trace(resume_durable(clone).trace);
      EXPECT_TRUE(first == second) << "two resumes of one killed directory differ";
      EXPECT_TRUE(first == baseline_bytes) << "the resumed trace is not the never-killed one";
    }
  }
}

TEST(Checkpoint, ResumeRejectsWitnessMismatch) {
  const ExperimentConfig cfg = short_config(51);
  DurableRunOptions options;
  options.config = cfg;
  options.dir = fresh_dir("resume_mismatch");
  options.checkpoint_every = 120.0;
  options.kill_at = 300.0;
  ASSERT_TRUE(run_durable(options).killed);

  // Re-seed the identity but keep the witness: the replay diverges and the
  // resume must refuse rather than splice two different worlds together.
  CheckpointState ck = load_checkpoint(options.dir);
  ck.seed += 1;
  save_checkpoint(ck, options.dir);
  EXPECT_THROW(resume_durable(options.dir), std::runtime_error);
}

TEST(Checkpoint, KillBeforeFirstCheckpointLeavesSalvageableJournal) {
  const ExperimentConfig cfg = short_config(61);
  DurableRunOptions options;
  options.config = cfg;
  options.dir = fresh_dir("killed_early");
  options.checkpoint_every = 600.0;
  options.kill_at = 90.0;
  const DurableRunResult dead = run_durable(options);
  EXPECT_TRUE(dead.killed);
  EXPECT_EQ(dead.checkpoints_written, 0u);

  // No checkpoint yet -> not resumable, but the journal already holds every
  // sampled snapshot and salvage censors the unrun remainder.
  const JournalSalvage s = salvage_journal(dead.journal_path);
  EXPECT_FALSE(s.clean_end);
  EXPECT_GT(s.snapshots, 0u);
  ASSERT_FALSE(s.trace.gaps().empty());
  EXPECT_DOUBLE_EQ(s.trace.gaps().back().end, cfg.duration);
}

}  // namespace
}  // namespace slmob
