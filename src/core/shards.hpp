// Sharded multi-land simulation engine.
//
// A shard is one complete measurement rig — world, sim server, network,
// client/crawler, monitors — for one land, and is a pure function of its
// config (all randomness flows from the shard's seeds). Shards share no
// state, so a multi-land study runs them concurrently on a thread pool and
// every shard's trace is bit-identical to a serial run at any thread count.
//
// Two execution modes:
//  * in-memory (run_sharded with an empty checkpoint_dir): fastest, nothing
//    on disk;
//  * durable (checkpoint_dir set): each shard runs journaled + checkpointed
//    in its own subdirectory (shard-NN-<land>), so a killed multi-land run
//    resumes per shard via resume_sharded — shards that already finished
//    replay from their last checkpoint and rerun only the segment after it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"

namespace slmob {

// Raw capture of one shard: a durable run's result (core/checkpoint.hpp),
// so durable and supervised shards hand theirs over as is. The trace is
// exactly what the shard's measurement instrument recorded (not
// sitting-stripped), which is what determinism digests compare. In-memory
// shards leave killed, checkpoints_written, out_path and journal_path at
// their defaults; ground-truth-only shards have zero crawler and circuit
// stats.
using ShardResult = DurableRunResult;

struct ShardRunOptions {
  // Total worker threads across shards, counting the caller (ThreadPool
  // semantics): 1 = serial, 0 = SLMOB_THREADS env var / hardware default.
  std::size_t threads{0};
  // When set, every shard runs journaled + checkpointed under
  // <checkpoint_dir>/shard-NN-<land>/.
  std::string checkpoint_dir;
  Seconds checkpoint_every{300.0};
  // Optional, parallel to the shard configs (see check_out_paths):
  // destination trace path per shard, stamped into each checkpoint
  // (surfaced again on resume).
  std::vector<std::string> out_paths;
  // Test hook: durable shards stop abruptly at this virtual time,
  // leaving resumable on-disk state (see DurableRunOptions::kill_at).
  std::optional<Seconds> kill_at;
};

// Throws std::invalid_argument unless `out_paths` is empty or holds one
// path per shard config (run_sharded and run_supervised both check it).
void check_out_paths(const std::vector<std::string>& out_paths, std::size_t shard_count);

// Subdirectory name of shard `index`: "shard-03-dance" etc. Zero-padded so
// lexicographic directory order equals shard order.
[[nodiscard]] std::string shard_dir_name(std::size_t index, LandArchetype archetype);

// Runs every shard (one per config) and returns results in config order.
// Results are bit-identical for any `threads` value.
std::vector<ShardResult> run_sharded(const std::vector<ExperimentConfig>& shards,
                                     const ShardRunOptions& options = {});

// Resumes a killed run_sharded from its checkpoint directory: accepts either
// a directory of shard-* subdirectories or a single shard's own directory
// (one holding a checkpoint generation). Shards resume concurrently; results
// are in shard (directory) order and bit-identical to the never-killed run's.
std::vector<ShardResult> resume_sharded(const std::string& checkpoint_dir,
                                        std::size_t threads = 0,
                                        std::optional<Seconds> kill_at = std::nullopt);

// Full experiments (simulation + analysis pipeline) for every config,
// sharded across `threads`. Each cell's analysis runs single-threaded inside
// its shard — the parallelism budget is spent across cells, as in `slmob
// sweep`. Results are in config order and thread-count independent.
std::vector<ExperimentResults> run_experiments_sharded(
    const std::vector<ExperimentConfig>& shards, std::size_t threads = 0);

}  // namespace slmob
