// durability_loss: scores the crash-safety of journaled measurement.
//
// For each fault scenario and each kill point (25/50/75 % of the run) the
// bench SIGKILLs a checkpointed run at that virtual time, then measures:
//  * frames_lost       — journal frames unrecoverable after the kill ALSO
//                        tears the final frame mid-byte (the acceptance bar
//                        is at most one: the frame in flight);
//  * recall_after_salvage — fraction of the full run's snapshots the torn
//                        journal still yields via salvage;
//  * prefix_exact      — every salvaged snapshot is bit-identical to the
//                        corresponding snapshot of the never-killed run
//                        (salvage recovers data, never invents it);
//  * resume_identical  — resuming two copies of the killed directory gives
//                        byte-identical traces (deterministic resume);
//  * resume_matches_baseline — the resumed trace equals the never-killed
//                        run's trace bit-for-bit.
//
// Results go to BENCH_durability.json; the bench exits non-zero when any
// determinism or loss bound is violated.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace slmob;

struct CellScore {
  std::string scenario;
  double kill_fraction{0.0};
  std::size_t snapshots_full{0};
  std::size_t snapshots_at_kill{0};
  std::size_t snapshots_after_tear{0};
  std::size_t frames_lost{0};
  double recall_after_salvage{0.0};
  double salvage_gap_seconds{0.0};
  bool prefix_exact{false};
  bool resume_identical{false};
  bool resume_matches_baseline{false};
};

ExperimentConfig make_config(const std::string& scenario, double hours,
                             std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = hours * kSecondsPerHour;
  cfg.seed = seed;
  cfg.fault_scenario = scenario;
  cfg.ranges = {};
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "slmob_durability" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

bool snapshots_equal(const Snapshot& a, const Snapshot& b) {
  if (a.time != b.time || a.fixes.size() != b.fixes.size()) return false;
  for (std::size_t i = 0; i < a.fixes.size(); ++i) {
    if (a.fixes[i].id.value != b.fixes[i].id.value ||
        a.fixes[i].pos.x != b.fixes[i].pos.x || a.fixes[i].pos.y != b.fixes[i].pos.y ||
        a.fixes[i].pos.z != b.fixes[i].pos.z) {
      return false;
    }
  }
  return true;
}

CellScore score_cell(const std::string& scenario, double kill_fraction, double hours,
                     std::uint64_t seed, const DurableRunResult& baseline) {
  const ExperimentConfig cfg = make_config(scenario, hours, seed);
  const std::string tag =
      scenario + "_" + std::to_string(static_cast<int>(kill_fraction * 100.0));

  CellScore score;
  score.scenario = scenario;
  score.kill_fraction = kill_fraction;
  score.snapshots_full = baseline.trace.size();

  DurableRunOptions options;
  options.config = cfg;
  options.dir = fresh_dir("killed_" + tag);
  options.checkpoint_every = 300.0;
  options.kill_at = kill_fraction * cfg.duration;
  const DurableRunResult dead = run_durable(options);
  if (!dead.killed) {
    std::fprintf(stderr, "FAIL: %s did not register the kill\n", tag.c_str());
    std::exit(1);
  }

  // Salvage of the cleanly-flushed journal: everything sampled up to the
  // kill instant survives.
  const JournalSalvage clean = salvage_journal(dead.journal_path);
  score.snapshots_at_kill = clean.snapshots;
  score.salvage_gap_seconds = clean.trace.gap_seconds();

  // Now tear the final frame mid-byte, as a SIGKILL during fwrite would,
  // and salvage the remains.
  const std::string torn_path = dead.journal_path + ".torn.sltj";
  std::filesystem::copy_file(dead.journal_path, torn_path,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(torn_path, std::filesystem::file_size(torn_path) - 1);
  const JournalSalvage torn = salvage_journal(torn_path);
  score.snapshots_after_tear = torn.snapshots;
  score.frames_lost = clean.snapshots - torn.snapshots;
  score.recall_after_salvage =
      score.snapshots_full == 0
          ? 0.0
          : static_cast<double>(torn.snapshots) / static_cast<double>(score.snapshots_full);

  // Salvage must be a bit-exact prefix of the never-killed run.
  score.prefix_exact = torn.snapshots <= baseline.trace.size();
  for (std::size_t i = 0; score.prefix_exact && i < torn.trace.size(); ++i) {
    score.prefix_exact =
        snapshots_equal(torn.trace.snapshots()[i], baseline.trace.snapshots()[i]);
  }

  // Resume determinism: two resumes of the same on-disk state (cloned, since
  // resume truncates the journal in place) and comparison to the baseline.
  const std::string copy = fresh_dir("killed_" + tag + "_copy");
  std::filesystem::remove_all(copy);
  std::filesystem::copy(options.dir, copy);
  const DurableRunResult resumed_a = resume_durable(options.dir);
  const DurableRunResult resumed_b = resume_durable(copy);
  const auto bytes_a = encode_trace(resumed_a.trace);
  score.resume_identical = bytes_a == encode_trace(resumed_b.trace);
  score.resume_matches_baseline = bytes_a == encode_trace(baseline.trace);
  return score;
}

void write_json(const std::vector<CellScore>& scores, double hours, std::uint64_t seed,
                bool pass, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"land\": \"Isle Of View\",\n");
  std::fprintf(f, "  \"hours\": %.2f,\n", hours);
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"pass\": %s,\n", pass ? "true" : "false");
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const CellScore& s = scores[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"kill_fraction\": %.2f, "
                 "\"snapshots_full\": %zu, \"snapshots_at_kill\": %zu, "
                 "\"snapshots_after_tear\": %zu, \"frames_lost\": %zu, "
                 "\"recall_after_salvage\": %.6f, \"salvage_gap_seconds\": %.1f, "
                 "\"prefix_exact\": %s, \"resume_identical\": %s, "
                 "\"resume_matches_baseline\": %s}%s\n",
                 s.scenario.c_str(), s.kill_fraction, s.snapshots_full,
                 s.snapshots_at_kill, s.snapshots_after_tear, s.frames_lost,
                 s.recall_after_salvage, s.salvage_gap_seconds,
                 s.prefix_exact ? "true" : "false", s.resume_identical ? "true" : "false",
                 s.resume_matches_baseline ? "true" : "false",
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
  double hours = 2.0;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      hours = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      hours = 0.5;
    }
  }

  std::printf("durability_loss: %.1f h Isle Of View, seed %llu\n", hours,
              static_cast<unsigned long long>(seed));

  const std::vector<std::string> scenarios = {"none", "blackouts", "chaos"};
  const std::vector<double> kill_fractions = {0.25, 0.5, 0.75};

  std::vector<CellScore> scores;
  bool pass = true;
  for (const std::string& scenario : scenarios) {
    std::fprintf(stderr, "[bench] %s baseline (uninterrupted)...\n", scenario.c_str());
    DurableRunOptions base_options;
    base_options.config = make_config(scenario, hours, seed);
    base_options.dir = fresh_dir("baseline_" + scenario);
    base_options.checkpoint_every = 300.0;
    const DurableRunResult baseline = run_durable(base_options);

    for (const double frac : kill_fractions) {
      std::fprintf(stderr, "[bench] %s kill at %.0f%%...\n", scenario.c_str(),
                   frac * 100.0);
      CellScore s = score_cell(scenario, frac, hours, seed, baseline);
      // Acceptance bounds: a torn tail costs at most the frame in flight,
      // and resume is deterministic and faithful.
      if (s.frames_lost > 1 || !s.prefix_exact || !s.resume_identical ||
          !s.resume_matches_baseline) {
        std::fprintf(stderr, "FAIL: %s @ %.0f%% violates durability bounds\n",
                     scenario.c_str(), frac * 100.0);
        pass = false;
      }
      scores.push_back(std::move(s));
    }
  }

  std::printf("%-12s %6s %10s %8s %8s %8s %8s %8s\n", "scenario", "kill%", "snapshots",
              "lost", "recall", "prefix", "det", "match");
  for (const CellScore& s : scores) {
    std::printf("%-12s %6.0f %6zu/%-6zu %5zu %8.4f %8s %8s %8s\n", s.scenario.c_str(),
                s.kill_fraction * 100.0, s.snapshots_after_tear, s.snapshots_full,
                s.frames_lost, s.recall_after_salvage, s.prefix_exact ? "ok" : "FAIL",
                s.resume_identical ? "ok" : "FAIL",
                s.resume_matches_baseline ? "ok" : "FAIL");
  }

  write_json(scores, hours, seed, pass, "BENCH_durability.json");
  std::printf("wrote BENCH_durability.json (%s)\n", pass ? "pass" : "FAIL");
  return pass ? 0 : 1;
}
