// Checkpoint/resume for long measurement runs.
//
// The paper's 24 h crawls died and were restarted by hand; this module makes
// a killed run resumable. A checkpoint directory holds:
//
//   trace.sltj            write-ahead journal of everything captured so far
//   checkpoint.slck       CRC-framed snapshot of the run's identity and progress
//   checkpoint.prev.slck  the generation before it
//
// A checkpoint records the run identity (archetype, duration, seed, fault
// scenario), the progress frontier (virtual time, engine tick, journal byte
// offset) and a replay-verification witness: the world and network RNG
// stream positions, the crawler's backoff level, and key component counters.
// Every durable run saves one at each multiple of its interval short of the
// end (the run finishes at that instant anyway), rotating the previous one
// to checkpoint.prev.slck, so a torn or bit-flipped newest checkpoint costs
// one extra replay segment, not the run.
//
// Resume reconstructs state by *deterministic replay*: the rig is rebuilt
// from the recorded identity and re-run silently to the checkpointed tick —
// the whole simulator is a pure function of its seeds, so this recreates
// every avatar, in-flight datagram and crawler timer exactly, without
// serializing any of them. The recorded witness is then compared against the
// replayed state; any mismatch (code drift, edited config, cosmic-ray
// checkpoint corruption survived by CRC) aborts the resume instead of
// silently producing a franken-trace. After verification the journal is
// truncated to the recorded offset (replay regenerates any frames past it
// bit-for-bit) and capture continues, so the post-resume trace is
// bit-identical to the trace of a run that was never killed.
//
// One segment loop and one resume routine (bottom of this header) serve
// run_durable, resume_durable, run_sharded / resume_sharded and every
// attempt of the run supervisor.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "trace/journal.hpp"

namespace slmob {

inline constexpr const char* kCheckpointFileName = "checkpoint.slck";
// Previous generation kept by save_checkpoint_rotating: when the newest
// checkpoint turns out truncated or bit-flipped (CRC failure), the loader
// falls back to this one instead of abandoning the run.
inline constexpr const char* kCheckpointPrevFileName = "checkpoint.prev.slck";
inline constexpr const char* kJournalFileName = "trace.sltj";

struct CheckpointState {
  // Run identity: enough to rebuild the rig. Only runs with a default
  // TestbedConfig (the `slmob run` shape) are checkpointable; programmatic
  // rigs with custom testbed knobs must carry their own config to resume.
  LandArchetype archetype{LandArchetype::kIsleOfView};
  Seconds duration{0.0};
  std::uint64_t seed{0};
  std::string fault_scenario{"none"};
  std::uint64_t fault_seed{0};
  std::string out_path;
  Seconds checkpoint_every{0.0};

  // Progress frontier.
  Seconds time{0.0};
  std::uint64_t engine_tick{0};
  std::uint64_t journal_offset{0};

  // Replay-verification witness.
  std::array<std::uint64_t, 4> world_rng{};
  std::array<std::uint64_t, 4> network_rng{};
  std::uint32_t crawler_backoff_level{0};
  std::uint64_t crawler_snapshots{0};
  std::uint64_t crawler_relogins{0};
  std::uint64_t crawler_coverage_gaps{0};
  std::uint64_t world_logins{0};
  std::uint64_t network_sent{0};

  friend bool operator==(const CheckpointState&, const CheckpointState&) = default;
};

// Binary encoding (magic "SLCK" | u16 version | u32 crc32(payload) |
// payload). decode throws DecodeError on bad magic/version/CRC/truncation.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointState& state);
CheckpointState decode_checkpoint(std::span<const std::uint8_t> bytes);

// Atomic write to <dir>/checkpoint.slck: a kill during the save leaves the
// previous checkpoint intact, never a torn file.
void save_checkpoint(const CheckpointState& state, const std::string& dir);
// Throws std::runtime_error when the file is missing or unreadable.
CheckpointState load_checkpoint(const std::string& dir);

// Like save_checkpoint, but first rotates the current checkpoint.slck to
// checkpoint.prev.slck, so two independent generations exist on disk. Every
// durable run saves this way: losing the newest checkpoint to corruption
// then costs one extra replay segment, not the whole run.
void save_checkpoint_rotating(const CheckpointState& state, const std::string& dir);

// Result of a fallback-aware load. `state` is empty when no generation
// decoded cleanly; `diagnostic` names every file that was rejected and why
// (missing, truncated, CRC mismatch, ...), so a corrupted checkpoint is a
// loud, explained event rather than UB or a silent cold start.
struct CheckpointLoadResult {
  std::optional<CheckpointState> state;
  bool used_fallback{false};  // state came from checkpoint.prev.slck
  std::string diagnostic;     // non-empty whenever any generation was rejected
};

// Tries checkpoint.slck, then checkpoint.prev.slck. Never throws on corrupt
// or missing files — corruption is reported in `diagnostic` and the next
// generation is tried; the caller decides between resume and cold restart.
CheckpointLoadResult try_load_checkpoint(const std::string& dir);

struct DurableRunOptions {
  // Only archetype/duration/seed/fault_scenario/fault_seed are recorded in
  // the checkpoint; the testbed config must stay default for a resume to
  // rebuild the identical rig.
  ExperimentConfig config;
  std::string dir;                 // checkpoint directory, created if missing
  Seconds checkpoint_every{0.0};   // 0 = journal only (salvageable, not resumable)
  std::string out_path;            // recorded for `slmob run --resume`
  // Test hook simulating a SIGKILL: the run stops abruptly at this
  // virtual time — no trace handover, no journal finalization, exactly the
  // on-disk state a killed process leaves behind.
  std::optional<Seconds> kill_at;
};

// What a durable run hands back; also the result of every shard of
// run_sharded and run_supervised (ShardResult, core/shards.hpp).
struct DurableRunResult : RigStats {
  // Run identity, as the checkpoint records it.
  LandArchetype archetype{LandArchetype::kIsleOfView};
  std::uint64_t seed{0};
  // Where the finished trace should land ("" = not given), recorded in the
  // checkpoint so a resume needs no re-specification.
  std::string out_path;
  // The raw capture (not sitting-stripped); empty when the run was killed.
  Trace trace;
  bool killed{false};
  std::size_t checkpoints_written{0};
  std::string journal_path;
};

// Runs a journaled (and, when checkpoint_every > 0, checkpointed)
// measurement from t = 0. Requires a crawler-equipped config.
DurableRunResult run_durable(const DurableRunOptions& options);

// Resumes a killed run from the newest checkpoint generation in `dir` that
// loads (replay, verify, truncate journal, continue). Deterministic:
// resuming the same directory twice produces bit-identical traces, equal to
// the never-killed run's. Throws std::runtime_error when no generation
// loads or the replay does not match the recorded witness.
DurableRunResult resume_durable(const std::string& dir,
                                std::optional<Seconds> kill_at = std::nullopt);

// Records the replay witness of `bed` into `ck`.
void fill_checkpoint_witness(CheckpointState& ck, Testbed& bed);

// ---- The one durable run path ----
//
// Every durable run wires its rig with start_durable_rig or
// resume_durable_rig and drives it with run_durable_rig.

// What the run supervisor adds to the segment loop: heartbeat stops,
// injected shard faults and watchdog cancels. run_durable and
// resume_durable run without one.
class SegmentObserver {
 public:
  virtual ~SegmentObserver() = default;
  // The loop stops at least this often (virtual seconds), replay included.
  [[nodiscard]] virtual Seconds heartbeat_every() const = 0;
  // At each stop `t`, before the rig simulates on. `writer` is null while
  // replaying to a checkpoint. May throw to abandon the attempt. Returns the
  // next time it needs a stop at (> t), or +infinity.
  virtual Seconds before_step(Seconds t, Testbed& bed,
                              const TraceJournalWriter* writer) = 0;
  // After each step; `checkpointed` when the step ended in a saved
  // checkpoint.
  virtual void after_step(bool replaying, bool checkpointed) = 0;
};

// A wired rig with its journal attached, sitting at `state.time`. Both live
// behind pointers, so the crawler's pointer to the writer survives moves.
struct DurableRig {
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<TraceJournalWriter> writer;
  CheckpointState state;  // run identity; `time` is where the rig sits
  std::string dir;        // checkpoint directory
};

// A fresh rig at t = 0 for `config`, with `dir` created, both checkpoint
// generations in it removed and its journal started (an existing one is
// truncated): a run that does not resume never reads an earlier run's
// state. Throws std::logic_error when the config has no crawler to journal.
DurableRig start_durable_rig(const ExperimentConfig& config, const std::string& dir,
                             Seconds checkpoint_every, const std::string& out_path);

struct DurableResume {
  CheckpointLoadResult loaded;    // which generation loaded, why others did not
  std::optional<DurableRig> rig;  // empty when no generation loaded
};

// The one resume routine: loads the newest checkpoint generation that
// decodes (try_load_checkpoint), rebuilds the rig, silently replays it to
// the checkpoint's frontier (in heartbeat steps under an observer),
// verifies the witness and reopens the journal at the recorded offset.
// `config` is the rig to rebuild; null rebuilds the default rig of the
// checkpoint's identity (the `slmob run` shape). Failure policy stays with
// the caller: an empty `rig` means nothing loaded, and a replay that does
// not match its witness throws std::runtime_error.
DurableResume resume_durable_rig(const std::string& dir,
                                 const ExperimentConfig* config = nullptr,
                                 SegmentObserver* observer = nullptr);

// The one segment loop: runs `rig` from its frontier to the end of the run.
// It stops at every multiple of the checkpoint interval and saves a
// checkpoint there (save_checkpoint_rotating: two generations on disk),
// except at the run's final instant; at the observer's stops; and at
// `kill_at`, after which the run returns killed.
DurableRunResult run_durable_rig(DurableRig& rig,
                                 std::optional<Seconds> kill_at = std::nullopt,
                                 SegmentObserver* observer = nullptr);

}  // namespace slmob
