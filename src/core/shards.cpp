#include "core/shards.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace slmob {
namespace {

// One shard, in-memory: wire the rig, run it, hand over the raw trace.
ShardResult run_shard_in_memory(const ExperimentConfig& config) {
  Testbed bed(make_testbed_config(config));
  bed.run_until(config.duration);

  ShardResult result;
  static_cast<RigStats&>(result) = bed.stats();
  result.archetype = config.archetype;
  result.seed = config.seed;
  result.trace = bed.take_trace();
  return result;
}

// Either generation counts: a kill inside save_checkpoint_rotating can leave
// only checkpoint.prev.slck behind.
bool has_checkpoint(const std::filesystem::path& dir) {
  return std::filesystem::exists(dir / kCheckpointFileName) ||
         std::filesystem::exists(dir / kCheckpointPrevFileName);
}

std::string slug(std::string name) {
  for (char& c : name) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    } else if (!(c >= 'a' && c <= 'z') && !(c >= '0' && c <= '9')) {
      c = '-';
    }
  }
  return name;
}

}  // namespace

std::string shard_dir_name(std::size_t index, LandArchetype archetype) {
  char prefix[32];
  std::snprintf(prefix, sizeof prefix, "shard-%02zu-", index);
  return prefix + slug(archetype_name(archetype));
}

void check_out_paths(const std::vector<std::string>& out_paths, std::size_t shard_count) {
  if (!out_paths.empty() && out_paths.size() != shard_count) {
    throw std::invalid_argument("out_paths holds " + std::to_string(out_paths.size()) +
                                " paths for " + std::to_string(shard_count) +
                                " shards; give one per shard or none");
  }
}

std::vector<ShardResult> run_sharded(const std::vector<ExperimentConfig>& shards,
                                     const ShardRunOptions& options) {
  check_out_paths(options.out_paths, shards.size());
  ThreadPool pool(options.threads);
  return parallel_map<ShardResult>(pool, shards.size(), [&](std::size_t i) {
    const ExperimentConfig& config = shards[i];
    if (options.checkpoint_dir.empty()) return run_shard_in_memory(config);
    return run_durable(
        {.config = config,
         .dir = options.checkpoint_dir + "/" + shard_dir_name(i, config.archetype),
         .checkpoint_every = options.checkpoint_every,
         .out_path = options.out_paths.empty() ? std::string{} : options.out_paths[i],
         .kill_at = options.kill_at});
  });
}

std::vector<ShardResult> resume_sharded(const std::string& checkpoint_dir,
                                        std::size_t threads,
                                        std::optional<Seconds> kill_at) {
  namespace fs = std::filesystem;
  std::vector<std::string> dirs;
  if (has_checkpoint(checkpoint_dir)) {
    // A single shard's own directory (also the layout `slmob run
    // --checkpoint` writes for a one-land run).
    dirs.push_back(checkpoint_dir);
  } else {
    for (const auto& entry : fs::directory_iterator(checkpoint_dir)) {
      if (!entry.is_directory()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("shard-", 0) != 0) continue;
      if (!has_checkpoint(entry.path())) continue;
      dirs.push_back(entry.path().string());
    }
    // directory_iterator order is unspecified; shard-NN- prefixes make the
    // sorted order the original shard order.
    std::sort(dirs.begin(), dirs.end());
  }
  if (dirs.empty()) {
    throw std::runtime_error("resume_sharded: no shard checkpoints in " + checkpoint_dir);
  }

  ThreadPool pool(threads);
  return parallel_map<ShardResult>(
      pool, dirs.size(), [&](std::size_t i) { return resume_durable(dirs[i], kill_at); });
}

std::vector<ExperimentResults> run_experiments_sharded(
    const std::vector<ExperimentConfig>& shards, std::size_t threads) {
  ThreadPool pool(threads);
  return parallel_map<ExperimentResults>(pool, shards.size(), [&](std::size_t i) {
    ExperimentConfig config = shards[i];
    // Shard-level parallelism only: nested analysis fan-out would
    // oversubscribe the pool's workers.
    config.analysis_threads = 1;
    return run_experiment(config);
  });
}

}  // namespace slmob
