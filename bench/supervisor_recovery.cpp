// supervisor_recovery: scores the self-healing run supervisor.
//
// Reference: plain run_sharded over the 3-land shard-chaos configs — shard
// fault windows are invisible outside the supervisor, so the same configs
// run uninterrupted ARE the ground truth. Against it the bench gates:
//  * digests_match     — the supervised run (3 injected crashes + 1 stall
//                        per shard) emits bit-identical traces at 1/2/4
//                        worker threads;
//  * max_frames_lost   — per injected crash, the journal trails the
//                        baseline capture by at most one frame (the
//                        snapshot in flight): baseline snapshots with
//                        time <= crash time minus snapshots journaled at
//                        the fault;
//  * max_recovery_ms   — every contained failure that resumed did so within
//                        a bounded wall time (detect -> backoff -> replay ->
//                        first completed segment);
//  * failed_partial    — a shard that exhausts its retry budget degrades:
//                        survivors still match the reference bit-for-bit and
//                        the salvaged partial trace analyzes cleanly with
//                        its unrun tail censored as a trailing gap.
//
// Results go to BENCH_supervision.json; exits non-zero when any gate fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/supervisor.hpp"
#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace {

using namespace slmob;

// Per-supervised-run score; the failed-partial cell reuses the same record
// with the degradation fields filled in.
struct CellScore {
  std::string cell;
  std::size_t threads{0};
  bool all_completed{false};
  bool digests_match{false};
  std::uint64_t crashes{0};
  std::uint64_t stalls{0};
  std::uint64_t watchdog_aborts{0};
  std::uint64_t restarts{0};
  std::uint64_t max_frames_lost{0};
  double max_recovery_ms{0.0};
  // failed-partial cell only:
  bool failed_partial{false};
  bool survivors_match{false};
  bool partial_analysis_ok{false};
  std::size_t partial_snapshots{0};
  double partial_gap_end{0.0};
  bool pass{false};
};

std::vector<ExperimentConfig> three_lands(const std::string& faults, Seconds duration,
                                          std::uint64_t seed) {
  const LandArchetype lands[] = {LandArchetype::kApfelLand, LandArchetype::kDanceIsland,
                                 LandArchetype::kIsleOfView};
  std::vector<ExperimentConfig> shards;
  for (std::size_t i = 0; i < 3; ++i) {
    ExperimentConfig cfg;
    cfg.archetype = lands[i];
    cfg.duration = duration;
    cfg.seed = seed + i;
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

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "slmob_supervision" / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// Fast-recovery supervision knobs (none affect trace content): small
// checkpoint segments bound replay, an aggressive watchdog bounds stall
// detection, near-zero backoff bounds the heal loop.
SupervisorOptions bench_options(const std::string& dir, std::size_t threads) {
  SupervisorOptions opt;
  opt.checkpoint_dir = dir;
  opt.checkpoint_every = 150.0;
  opt.heartbeat_every = 50.0;
  opt.watchdog_timeout_ms = 1000.0;
  opt.backoff_base_ms = 2.0;
  opt.backoff_max_ms = 20.0;
  opt.threads = threads;
  return opt;
}

std::size_t snapshots_at_or_before(const Trace& trace, Seconds t) {
  std::size_t n = 0;
  for (const auto& snap : trace.snapshots()) n += snap.time <= t + 1e-9;
  return n;
}

// One supervised chaos run at `threads` workers, gated against the
// uninterrupted reference.
CellScore score_supervised(const std::vector<ExperimentConfig>& shards,
                           const std::vector<ShardResult>& baseline,
                           const std::vector<std::uint32_t>& reference,
                           std::size_t threads, double recovery_bound_ms) {
  CellScore s;
  s.cell = "supervised_t" + std::to_string(threads);
  s.threads = threads;

  const SupervisedRun run =
      run_supervised(shards, bench_options(fresh_dir(s.cell), threads));

  s.all_completed = run.all_completed();
  s.digests_match = digests(run.shards) == reference;
  bool frames_ok = true;
  bool recovery_ok = true;
  for (const auto& h : run.health) {
    s.crashes += h.crashes;
    s.stalls += h.stalls;
    s.watchdog_aborts += h.watchdog_aborts;
    s.restarts += h.restarts;
    for (const auto& ev : h.events) {
      if (ev.kind == ShardFaultEvent::Kind::kInjectedCrash) {
        // Journal durability across the crash: at most the frame in flight
        // separates what was journaled from what the uninterrupted run had
        // captured by the same virtual instant.
        const std::size_t captured =
            snapshots_at_or_before(baseline[h.index].trace, ev.at);
        const std::uint64_t lost =
            captured > ev.snapshots_at_fault
                ? captured - ev.snapshots_at_fault
                : 0;
        s.max_frames_lost = std::max(s.max_frames_lost, lost);
        frames_ok = frames_ok && lost <= 1;
      }
      if (ev.recovery_ms >= 0.0) {
        s.max_recovery_ms = std::max(s.max_recovery_ms, ev.recovery_ms);
        recovery_ok = recovery_ok && ev.recovery_ms <= recovery_bound_ms;
      } else if (ev.kind != ShardFaultEvent::Kind::kWatchdogAbort) {
        recovery_ok = false;  // a contained failure that never resumed
      }
    }
  }
  // shard-chaos scripts 3 crashes + 1 stall per shard, all of which must
  // have been exercised.
  s.pass = s.all_completed && s.digests_match && s.crashes >= 9 && s.stalls >= 3 &&
           frames_ok && recovery_ok;
  return s;
}

// Budget-exhaustion cell: only shard 1 carries crash windows and gets a
// budget of one restart, so its second crash is fatal. The run must degrade,
// not fail.
CellScore score_failed_partial(Seconds duration, std::uint64_t seed) {
  CellScore s;
  s.cell = "failed_partial";
  s.threads = 2;

  auto shards = three_lands("none", duration, seed);
  shards[1].testbed.faults.add(
      {FaultKind::kShardCrash, 0.35 * duration, 0.35 * duration + 1.0, 1.0, {}});
  shards[1].testbed.faults.add(
      {FaultKind::kShardCrash, 0.60 * duration, 0.60 * duration + 1.0, 1.0, {}});

  ShardRunOptions plain;
  plain.threads = 1;
  const auto reference = digests(run_sharded(shards, plain));

  SupervisorOptions opt = bench_options(fresh_dir(s.cell), s.threads);
  opt.max_restarts = 1;
  const SupervisedRun run = run_supervised(shards, opt);

  s.all_completed = run.all_completed();  // expected false
  s.failed_partial = run.any_failed_partial();
  for (const auto& h : run.health) {
    s.crashes += h.crashes;
    s.restarts += h.restarts;
  }
  s.survivors_match = crc32(encode_trace(run.shards[0].trace)) == reference[0] &&
                      crc32(encode_trace(run.shards[2].trace)) == reference[2];

  // The salvaged partial trace still supports the paper's gap-censored
  // analysis pipeline: pre-crash capture present, unrun tail censored as a
  // trailing gap to the planned end, analyze_trace runs clean.
  const Trace& partial = run.shards[1].trace;
  s.partial_snapshots = partial.snapshots().size();
  s.partial_gap_end = partial.gaps().empty() ? 0.0 : partial.gaps().back().end;
  try {
    const AnalysisReport res = analyze_trace(partial, {kBluetoothRange}, kDefaultLandSize, 1);
    s.partial_analysis_ok =
        res.summary.gap_count >= 1 && res.summary.snapshot_count == s.partial_snapshots;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: partial-trace analysis threw: %s\n", e.what());
    s.partial_analysis_ok = false;
  }

  s.pass = !s.all_completed && s.failed_partial && s.survivors_match &&
           s.partial_snapshots > 0 && s.partial_gap_end == duration &&
           s.partial_analysis_ok;
  return s;
}

void write_json(const std::vector<CellScore>& scores, double hours, std::uint64_t seed,
                bool pass, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"scenario\": \"shard-chaos\",\n");
  std::fprintf(f, "  \"lands\": [\"Apfelland\", \"Dance\", \"Isle Of View\"],\n");
  std::fprintf(f, "  \"hours\": %.2f,\n", hours);
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"pass\": %s,\n", pass ? "true" : "false");
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const CellScore& s = scores[i];
    std::fprintf(f,
                 "    {\"cell\": \"%s\", \"threads\": %zu, \"all_completed\": %s, "
                 "\"digests_match\": %s, \"crashes\": %llu, \"stalls\": %llu, "
                 "\"watchdog_aborts\": %llu, \"restarts\": %llu, "
                 "\"max_frames_lost\": %llu, \"max_recovery_ms\": %.1f, "
                 "\"failed_partial\": %s, \"survivors_match\": %s, "
                 "\"partial_analysis_ok\": %s, \"partial_snapshots\": %zu, "
                 "\"partial_gap_end\": %.1f, \"pass\": %s}%s\n",
                 s.cell.c_str(), s.threads, s.all_completed ? "true" : "false",
                 s.digests_match ? "true" : "false",
                 static_cast<unsigned long long>(s.crashes),
                 static_cast<unsigned long long>(s.stalls),
                 static_cast<unsigned long long>(s.watchdog_aborts),
                 static_cast<unsigned long long>(s.restarts),
                 static_cast<unsigned long long>(s.max_frames_lost), s.max_recovery_ms,
                 s.failed_partial ? "true" : "false",
                 s.survivors_match ? "true" : "false",
                 s.partial_analysis_ok ? "true" : "false", s.partial_snapshots,
                 s.partial_gap_end, s.pass ? "true" : "false",
                 i + 1 < scores.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  // CI gates parse this JSON; a silently truncated write must fail loudly.
  if (std::fflush(f) != 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "error writing %s\n", path);
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double hours = 0.5;
  std::uint64_t seed = 42;
  double recovery_bound_ms = 15000.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      hours = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      hours = 0.25;
    }
  }
  const Seconds duration = hours * kSecondsPerHour;

  std::printf("supervisor_recovery: %.2f h x 3 lands, shard-chaos, seed %llu\n", hours,
              static_cast<unsigned long long>(seed));

  const auto shards = three_lands("shard-chaos", duration, seed);
  std::fprintf(stderr, "[bench] uninterrupted reference (run_sharded)...\n");
  ShardRunOptions plain;
  plain.threads = 1;
  const auto baseline = run_sharded(shards, plain);
  const auto reference = digests(baseline);

  std::vector<CellScore> scores;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::fprintf(stderr, "[bench] supervised chaos run, %zu threads...\n", threads);
    scores.push_back(
        score_supervised(shards, baseline, reference, threads, recovery_bound_ms));
  }
  std::fprintf(stderr, "[bench] retry-budget exhaustion (failed-partial)...\n");
  scores.push_back(score_failed_partial(duration, seed));

  bool pass = true;
  std::printf("%-14s %8s %8s %8s %8s %10s %12s %6s\n", "cell", "threads", "crashes",
              "stalls", "restarts", "max_lost", "max_rec_ms", "gate");
  for (const CellScore& s : scores) {
    pass = pass && s.pass;
    std::printf("%-14s %8zu %8llu %8llu %8llu %10llu %12.1f %6s\n", s.cell.c_str(),
                s.threads, static_cast<unsigned long long>(s.crashes),
                static_cast<unsigned long long>(s.stalls),
                static_cast<unsigned long long>(s.restarts),
                static_cast<unsigned long long>(s.max_frames_lost), s.max_recovery_ms,
                s.pass ? "ok" : "FAIL");
    if (!s.pass) {
      std::fprintf(stderr,
                   "FAIL: %s (completed=%d digests=%d failed_partial=%d survivors=%d "
                   "analysis=%d gap_end=%.1f)\n",
                   s.cell.c_str(), s.all_completed, s.digests_match, s.failed_partial,
                   s.survivors_match, s.partial_analysis_ok, s.partial_gap_end);
    }
  }

  write_json(scores, hours, seed, pass, "BENCH_supervision.json");
  std::printf("wrote BENCH_supervision.json (%s)\n", pass ? "pass" : "FAIL");
  return pass ? 0 : 1;
}
