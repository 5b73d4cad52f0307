#include "core/shards.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace slmob {
namespace {

// The golden 3-land experiment: every archetype once, consecutive seeds —
// the same shape `slmob run --land apfel,dance,isle` produces.
std::vector<ExperimentConfig> three_lands(const std::string& faults = "none",
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

// Bit-identity is judged on the serialized raw trace, exactly as it would
// land on disk.
std::vector<std::uint32_t> digests(const std::vector<ShardResult>& results) {
  std::vector<std::uint32_t> out;
  for (const auto& r : results) out.push_back(crc32(encode_trace(r.trace)));
  return out;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Shards, TracesBitIdenticalAcrossThreadCounts) {
  const auto shards = three_lands();
  ShardRunOptions serial_options;
  serial_options.threads = 1;
  const auto serial = digests(run_sharded(shards, serial_options));
  ASSERT_EQ(serial.size(), 3u);
  // Distinct lands/seeds must not collapse to the same trace.
  EXPECT_NE(serial[0], serial[1]);
  EXPECT_NE(serial[1], serial[2]);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ShardRunOptions options;
    options.threads = threads;
    EXPECT_EQ(digests(run_sharded(shards, options)), serial)
        << "thread count " << threads;
  }
}

TEST(Shards, ChaosFaultScenarioBitIdenticalAcrossThreadCounts) {
  // The all-faults scenario exercises every RNG stream (world, network,
  // faults, crawler backoff); sharding must not reorder a single draw.
  const auto shards = three_lands("chaos");
  ShardRunOptions serial_options;
  serial_options.threads = 1;
  const auto serial = digests(run_sharded(shards, serial_options));
  ShardRunOptions options;
  options.threads = 4;
  EXPECT_EQ(digests(run_sharded(shards, options)), serial);
}

TEST(Shards, ShardMatchesStandaloneRun) {
  // A shard is a pure function of its config: running Dance alongside two
  // other lands yields the same bytes as running Dance alone.
  const auto shards = three_lands();
  ShardRunOptions options;
  options.threads = 4;
  const auto together = digests(run_sharded(shards, options));

  const std::vector<ExperimentConfig> alone{shards[1]};
  ShardRunOptions alone_options;
  alone_options.threads = 1;
  const auto standalone = digests(run_sharded(alone, alone_options));
  EXPECT_EQ(together[1], standalone[0]);
}

TEST(Shards, DurableKillAndResumeBitIdentical) {
  const auto shards = three_lands("chaos");
  ShardRunOptions reference_options;
  reference_options.threads = 4;
  const auto reference = digests(run_sharded(shards, reference_options));

  const std::string dir = fresh_dir("shards_resume");
  ShardRunOptions options;
  options.threads = 4;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 200.0;
  options.kill_at = 450.0;
  options.out_paths = {"a.slt", "b.slt", "c.slt"};
  const auto killed = run_sharded(shards, options);
  ASSERT_EQ(killed.size(), 3u);
  for (const auto& r : killed) EXPECT_TRUE(r.killed);

  const auto resumed = resume_sharded(dir, 2);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(digests(resumed), reference);
  // Identity and destination ride along in each shard's checkpoint.
  EXPECT_EQ(resumed[1].archetype, LandArchetype::kDanceIsland);
  EXPECT_EQ(resumed[1].seed, 43u);
  EXPECT_EQ(resumed[0].out_path, "a.slt");
  EXPECT_EQ(resumed[2].out_path, "c.slt");
  for (const auto& r : resumed) EXPECT_FALSE(r.killed);
}

TEST(Shards, ResumeAcceptsSingleShardDirectory) {
  const std::vector<ExperimentConfig> shards{three_lands()[1]};
  ShardRunOptions reference_options;
  reference_options.threads = 1;
  const auto reference = digests(run_sharded(shards, reference_options));

  const std::string dir = fresh_dir("shards_resume_single");
  ShardRunOptions options;
  options.threads = 1;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 200.0;
  options.kill_at = 400.0;
  ASSERT_TRUE(run_sharded(shards, options).front().killed);

  // Point resume at the shard's own directory, the layout a single-land
  // `slmob run --checkpoint DIR` writes.
  const auto resumed =
      resume_sharded(dir + "/" + shard_dir_name(0, shards[0].archetype));
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(digests(resumed), reference);
}

TEST(Shards, ResumeRejectsEmptyDirectory) {
  const std::string dir = fresh_dir("shards_resume_empty");
  std::filesystem::create_directories(dir);
  EXPECT_THROW(resume_sharded(dir), std::runtime_error);
}

TEST(Shards, ShardDirNamesSortInShardOrder) {
  EXPECT_EQ(shard_dir_name(0, LandArchetype::kApfelLand), "shard-00-apfelland");
  EXPECT_EQ(shard_dir_name(3, LandArchetype::kDanceIsland), "shard-03-dance");
  EXPECT_EQ(shard_dir_name(12, LandArchetype::kIsleOfView), "shard-12-isle-of-view");
}

TEST(Shards, ExperimentsShardedMatchSerial) {
  // Full experiment cells (sim + analysis) through the sharded driver:
  // summary statistics are thread-count independent.
  auto cells = three_lands("none", 600.0);
  for (auto& cfg : cells) cfg.ranges = {10.0};
  const auto serial = run_experiments_sharded(cells, 1);
  const auto parallel = run_experiments_sharded(cells, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(encode_trace(serial[i].trace), encode_trace(parallel[i].trace));
    EXPECT_EQ(serial[i].analysis.summary.unique_users, parallel[i].analysis.summary.unique_users);
    EXPECT_EQ(serial[i].analysis.contacts.at(10.0).intervals.size(),
              parallel[i].analysis.contacts.at(10.0).intervals.size());
  }
}

}  // namespace
}  // namespace slmob
