#include "core/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"

namespace slmob {
namespace {

constexpr std::uint8_t kCheckpointMagic[4] = {'S', 'L', 'C', 'K'};
constexpr std::uint16_t kCheckpointVersion = 1;

std::string checkpoint_path(const std::string& dir) {
  return dir + "/" + kCheckpointFileName;
}

std::string journal_path(const std::string& dir) { return dir + "/" + kJournalFileName; }

}  // namespace

void fill_checkpoint_witness(CheckpointState& ck, Testbed& bed) {
  ck.engine_tick = static_cast<std::uint64_t>(bed.engine().tick());
  ck.world_rng = bed.world().rng_state();
  ck.network_rng = bed.network().rng_state();
  ck.crawler_backoff_level = bed.crawler()->backoff_level();
  ck.crawler_snapshots = bed.crawler()->stats().snapshots_taken;
  ck.crawler_relogins = bed.crawler()->stats().relogins;
  ck.crawler_coverage_gaps = bed.crawler()->stats().coverage_gaps;
  ck.world_logins = bed.world().stats().total_logins;
  ck.network_sent = bed.network().stats().sent;
}

namespace {

// Throws std::runtime_error naming the first mismatching component.
void verify_checkpoint_replay(const CheckpointState& ck, Testbed& bed) {
  const auto check = [](bool ok, const char* what) {
    if (!ok) {
      throw std::runtime_error(
          std::string("checkpoint resume: replay mismatch on ") + what +
          " — the checkpoint was taken under a different build, config or seed; "
          "refusing to resume into a diverged run");
    }
  };
  check(static_cast<std::uint64_t>(bed.engine().tick()) == ck.engine_tick, "engine tick");
  check(bed.world().rng_state() == ck.world_rng, "world RNG stream");
  check(bed.network().rng_state() == ck.network_rng, "network RNG stream");
  check(bed.crawler()->backoff_level() == ck.crawler_backoff_level,
        "crawler backoff level");
  check(bed.crawler()->stats().snapshots_taken == ck.crawler_snapshots,
        "crawler snapshot count");
  check(bed.crawler()->stats().relogins == ck.crawler_relogins, "crawler relogins");
  check(bed.crawler()->stats().coverage_gaps == ck.crawler_coverage_gaps,
        "crawler coverage gaps");
  check(bed.world().stats().total_logins == ck.world_logins, "world login count");
  check(bed.network().stats().sent == ck.network_sent, "network datagram count");
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const CheckpointState& state) {
  ByteWriter payload;
  payload.u8(static_cast<std::uint8_t>(state.archetype));
  payload.f64(state.duration);
  payload.u64(state.seed);
  payload.str(state.fault_scenario);
  payload.u64(state.fault_seed);
  payload.str(state.out_path);
  payload.f64(state.checkpoint_every);
  payload.f64(state.time);
  payload.u64(state.engine_tick);
  payload.u64(state.journal_offset);
  for (const std::uint64_t word : state.world_rng) payload.u64(word);
  for (const std::uint64_t word : state.network_rng) payload.u64(word);
  payload.u32(state.crawler_backoff_level);
  payload.u64(state.crawler_snapshots);
  payload.u64(state.crawler_relogins);
  payload.u64(state.crawler_coverage_gaps);
  payload.u64(state.world_logins);
  payload.u64(state.network_sent);

  ByteWriter out;
  out.raw(kCheckpointMagic);
  out.u16(kCheckpointVersion);
  out.u32(crc32(payload.bytes()));
  out.raw(payload.bytes());
  return out.take();
}

CheckpointState decode_checkpoint(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 10 ||
      !std::equal(bytes.begin(), bytes.begin() + 4, kCheckpointMagic)) {
    throw DecodeError("decode_checkpoint: bad magic");
  }
  ByteReader head(bytes.subspan(4, 6));
  if (head.u16() != kCheckpointVersion) {
    throw DecodeError("decode_checkpoint: unsupported version");
  }
  const std::uint32_t crc = head.u32();
  const auto payload = bytes.subspan(10);
  if (crc32(payload) != crc) {
    throw DecodeError("decode_checkpoint: CRC mismatch (torn or corrupted checkpoint)");
  }
  ByteReader r(payload);
  CheckpointState state;
  state.archetype = static_cast<LandArchetype>(r.u8());
  state.duration = r.f64();
  state.seed = r.u64();
  state.fault_scenario = r.str();
  state.fault_seed = r.u64();
  state.out_path = r.str();
  state.checkpoint_every = r.f64();
  state.time = r.f64();
  state.engine_tick = r.u64();
  state.journal_offset = r.u64();
  for (auto& word : state.world_rng) word = r.u64();
  for (auto& word : state.network_rng) word = r.u64();
  state.crawler_backoff_level = r.u32();
  state.crawler_snapshots = r.u64();
  state.crawler_relogins = r.u64();
  state.crawler_coverage_gaps = r.u64();
  state.world_logins = r.u64();
  state.network_sent = r.u64();
  if (!r.at_end()) throw DecodeError("decode_checkpoint: trailing bytes");
  return state;
}

void save_checkpoint(const CheckpointState& state, const std::string& dir) {
  write_file_atomic(checkpoint_path(dir), encode_checkpoint(state));
}

namespace {

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  return bytes;
}

}  // namespace

CheckpointState load_checkpoint(const std::string& dir) {
  const std::string path = checkpoint_path(dir);
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_file_bytes(path);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("load_checkpoint: cannot open " + path);
  }
  return decode_checkpoint(bytes);
}

void save_checkpoint_rotating(const CheckpointState& state, const std::string& dir) {
  const std::string path = checkpoint_path(dir);
  const std::string prev = dir + "/" + kCheckpointPrevFileName;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // rename is atomic on POSIX: at every instant either generation is a
    // complete file, so a kill inside this function costs at most the
    // newest checkpoint, never both.
    std::filesystem::rename(path, prev, ec);
    if (ec) {
      throw std::runtime_error("save_checkpoint_rotating: cannot rotate " + path +
                               ": " + ec.message());
    }
  }
  write_file_atomic(path, encode_checkpoint(state));
}

CheckpointLoadResult try_load_checkpoint(const std::string& dir) {
  CheckpointLoadResult result;
  const struct {
    std::string path;
    bool fallback;
  } generations[] = {{checkpoint_path(dir), false},
                     {dir + "/" + kCheckpointPrevFileName, true}};
  for (const auto& gen : generations) {
    std::error_code ec;
    if (!std::filesystem::exists(gen.path, ec)) {
      if (gen.fallback && !result.diagnostic.empty()) {
        result.diagnostic += "; " + gen.path + ": missing (no fallback generation)";
      }
      continue;
    }
    try {
      result.state = decode_checkpoint(read_file_bytes(gen.path));
      result.used_fallback = gen.fallback;
      return result;
    } catch (const std::exception& e) {
      if (!result.diagnostic.empty()) result.diagnostic += "; ";
      result.diagnostic += gen.path + ": " + e.what();
    }
  }
  return result;
}

namespace {

constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();

bool on_multiple(Seconds t, Seconds every) {
  return std::abs(t / every - std::round(t / every)) < 1e-9;
}

std::unique_ptr<Testbed> make_durable_testbed(const ExperimentConfig& config) {
  auto bed = std::make_unique<Testbed>(make_testbed_config(config));
  if (bed->crawler() == nullptr) {
    throw std::logic_error("durable run: config has no crawler to journal");
  }
  return bed;
}

// The one segment loop. Advances the rig from `t` to `until`, stopping at
// each checkpoint multiple, at the observer's heartbeats and requested
// stops, and at `kill`. With a journal attached it saves a checkpoint at
// every multiple short of the run's end; without one it is replaying to a
// checkpoint. Stops never change what the rig simulates, only where this
// loop regains control. Returns the time reached: `until`, or `kill` when
// that came first.
Seconds advance(DurableRig& rig, Seconds t, Seconds until, Seconds kill,
                SegmentObserver* observer, std::size_t& checkpoints) {
  Testbed& bed = *rig.bed;
  const Seconds every = rig.state.checkpoint_every;
  const Seconds step = observer != nullptr ? observer->heartbeat_every() : kNever;
  while (t < until && t < kill) {
    Seconds next = std::min({until, kill, t + step});
    if (observer != nullptr) {
      next = std::min(next, observer->before_step(t, bed, rig.writer.get()));
    }
    if (every > 0.0) next = std::min(next, every * (std::floor(t / every + 1e-9) + 1.0));
    bed.run_until(next);
    t = next;
    const bool checkpointed = rig.writer != nullptr && every > 0.0 &&
                              t < rig.state.duration && on_multiple(t, every);
    if (checkpointed) {
      CheckpointState ck = rig.state;
      ck.time = t;
      ck.journal_offset = rig.writer->offset();
      fill_checkpoint_witness(ck, bed);
      save_checkpoint_rotating(ck, rig.dir);
      ++checkpoints;
    }
    if (observer != nullptr) observer->after_step(rig.writer == nullptr, checkpointed);
  }
  return t;
}

}  // namespace

DurableRig start_durable_rig(const ExperimentConfig& config, const std::string& dir,
                             Seconds checkpoint_every, const std::string& out_path) {
  std::filesystem::create_directories(dir);
  // A fresh start is fresh: an earlier run's checkpoints go before the
  // journal is truncated, so no kill in between can leave one pointing into
  // the new journal.
  for (const char* name : {kCheckpointFileName, kCheckpointPrevFileName}) {
    std::filesystem::remove(dir + "/" + name);
  }
  DurableRig rig;
  rig.dir = dir;
  rig.state.archetype = config.archetype;
  rig.state.duration = config.duration;
  rig.state.seed = config.seed;
  rig.state.fault_scenario = config.fault_scenario;
  rig.state.fault_seed = config.fault_seed;
  rig.state.out_path = out_path;
  rig.state.checkpoint_every = checkpoint_every;
  rig.bed = make_durable_testbed(config);
  rig.writer = std::make_unique<TraceJournalWriter>(journal_path(dir), config.duration);
  rig.bed->crawler()->attach_journal(rig.writer.get());
  return rig;
}

DurableResume resume_durable_rig(const std::string& dir, const ExperimentConfig* config,
                                 SegmentObserver* observer) {
  DurableResume resumed;
  resumed.loaded = try_load_checkpoint(dir);
  if (!resumed.loaded.diagnostic.empty()) {
    log_warn("checkpoint", "checkpoint rejected: " + resumed.loaded.diagnostic);
  }
  if (!resumed.loaded.state) return resumed;
  const CheckpointState& ck = *resumed.loaded.state;

  ExperimentConfig identity;
  identity.archetype = ck.archetype;
  identity.duration = ck.duration;
  identity.seed = ck.seed;
  identity.fault_scenario = ck.fault_scenario;
  identity.fault_seed = ck.fault_seed;

  DurableRig rig;
  rig.dir = dir;
  rig.state = ck;
  rig.bed = make_durable_testbed(config != nullptr ? *config : identity);
  // Silent replay to the checkpointed frontier: the simulator is a pure
  // function of its seeds, so this reconstructs every avatar, datagram and
  // crawler timer without serializing any of them. No journal is attached —
  // the frames for this prefix already sit in the journal file.
  std::size_t no_checkpoints = 0;
  advance(rig, 0.0, ck.time, kNever, observer, no_checkpoints);
  verify_checkpoint_replay(ck, *rig.bed);
  rig.writer = std::make_unique<TraceJournalWriter>(
      TraceJournalWriter::resume(journal_path(dir), ck.journal_offset, ck.duration));
  rig.bed->crawler()->attach_journal(rig.writer.get());
  resumed.rig = std::move(rig);
  return resumed;
}

DurableRunResult run_durable_rig(DurableRig& rig, std::optional<Seconds> kill_at,
                                 SegmentObserver* observer) {
  const Seconds duration = rig.state.duration;
  DurableRunResult result;
  result.archetype = rig.state.archetype;
  result.seed = rig.state.seed;
  result.out_path = rig.state.out_path;
  result.journal_path = rig.writer->path();
  const Seconds kill = kill_at && *kill_at < duration ? *kill_at : kNever;
  const Seconds reached =
      advance(rig, rig.state.time, duration, kill, observer, result.checkpoints_written);
  // A kill is a simulated SIGKILL: no trace handover and no kEnd frame —
  // exactly the on-disk state a killed process leaves.
  result.killed = reached < duration;
  if (!result.killed) {
    result.trace = rig.bed->crawler()->take_trace();
    rig.writer->append_end(rig.bed->engine().now());
  }
  static_cast<RigStats&>(result) = rig.bed->stats();
  return result;
}

DurableRunResult run_durable(const DurableRunOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("run_durable: checkpoint directory required");
  }
  DurableRig rig = start_durable_rig(options.config, options.dir, options.checkpoint_every,
                                     options.out_path);
  return run_durable_rig(rig, options.kill_at);
}

DurableRunResult resume_durable(const std::string& dir, std::optional<Seconds> kill_at) {
  DurableResume resumed = resume_durable_rig(dir);
  if (!resumed.rig) {
    std::string what = "resume_durable: no loadable checkpoint in " + dir;
    if (!resumed.loaded.diagnostic.empty()) what += " (" + resumed.loaded.diagnostic + ")";
    throw std::runtime_error(what);
  }
  return run_durable_rig(*resumed.rig, kill_at);
}

}  // namespace slmob
