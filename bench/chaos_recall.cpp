// chaos_recall: scores measurement robustness under scripted fault
// scenarios.
//
// For each named chaos scenario the crawler measures the same 6 h Isle of
// View run that a fault-free crawler measures, and the bench scores how much
// of the ground truth survives:
//  * recall          — fraction of ground-truth (snapshot, avatar) fixes the
//                      crawler captured, over the whole run;
//  * covered_recall  — same, but only over time the trace claims as covered
//                      (outside recorded gaps): high covered recall with low
//                      raw recall means the gaps are honest;
//  * ks_ct / ks_ict  — KS distance between the faulty run's censored CT/ICT
//                      distributions and the fault-free crawler's, at the
//                      Bluetooth range (distribution distortion, not just
//                      sample loss).
//
// Every scenario is run twice with the same seed; the bench asserts the two
// runs agree bit-for-bit on every score (deterministic fault injection) and
// writes all scores to BENCH_chaos.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/experiment.hpp"
#include "net/fault_schedule.hpp"
#include "stats/ks.hpp"

namespace {

using namespace slmob;

struct ScenarioScore {
  std::string name;
  double recall{0.0};
  double covered_recall{0.0};
  std::size_t gap_count{0};
  double gap_seconds{0.0};
  std::size_t snapshots{0};
  std::uint64_t relogins{0};
  double ks_ct{0.0};
  double ks_ict{0.0};

  bool operator==(const ScenarioScore&) const = default;
};

// Fraction of ground-truth fixes the crawler captured. A ground-truth fix
// (t, avatar) counts as captured when some crawler snapshot within half a
// sampling interval of t contains the avatar. `covered_only` restricts the
// denominator to ground-truth instants outside the trace's recorded gaps.
double recall_vs_truth(const Trace& measured, const Trace& truth, bool covered_only) {
  const Seconds tau = truth.sampling_interval();
  std::size_t total = 0;
  std::size_t matched = 0;
  std::size_t m = 0;  // advancing cursor into measured snapshots
  const auto& snaps = measured.snapshots();
  for (const auto& gt : truth.snapshots()) {
    if (covered_only && !measured.covered_at(gt.time)) continue;
    while (m < snaps.size() && snaps[m].time < gt.time - tau / 2.0) ++m;
    const bool have_window = m < snaps.size() && snaps[m].time < gt.time + tau / 2.0;
    std::unordered_set<std::uint32_t> present;
    if (have_window) {
      for (const auto& fix : snaps[m].fixes) present.insert(fix.id.value);
    }
    for (const auto& fix : gt.fixes) {
      ++total;
      if (present.contains(fix.id.value)) ++matched;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(matched) / static_cast<double>(total);
}

ExperimentResults run_scenario(const std::string& scenario, double hours,
                               std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = hours * kSecondsPerHour;
  cfg.seed = seed;
  cfg.ranges = {kBluetoothRange};
  cfg.fault_scenario = scenario;
  cfg.testbed.with_ground_truth = true;
  cfg.analysis_threads = 0;
  return run_experiment(cfg);
}

ScenarioScore score_scenario(const std::string& scenario, double hours,
                             std::uint64_t seed, const ExperimentResults& baseline) {
  const ExperimentResults res = run_scenario(scenario, hours, seed);
  const Trace& truth = *res.ground_truth;

  ScenarioScore score;
  score.name = scenario;
  score.recall = recall_vs_truth(res.trace, truth, /*covered_only=*/false);
  score.covered_recall = recall_vs_truth(res.trace, truth, /*covered_only=*/true);
  score.gap_count = res.analysis.summary.gap_count;
  score.gap_seconds = res.analysis.summary.gap_seconds;
  score.snapshots = res.analysis.summary.snapshot_count;
  score.relogins = res.crawler_stats.relogins;
  score.ks_ct = ks_distance(res.analysis.contacts.at(kBluetoothRange).contact_times,
                            baseline.analysis.contacts.at(kBluetoothRange).contact_times);
  score.ks_ict = ks_distance(res.analysis.contacts.at(kBluetoothRange).inter_contact_times,
                             baseline.analysis.contacts.at(kBluetoothRange).inter_contact_times);
  return score;
}

void write_json(const std::vector<ScenarioScore>& scores, double baseline_recall,
                double hours, std::uint64_t seed, bool deterministic,
                const char* path) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"land\": \"Isle Of View\",\n");
  std::fprintf(f, "  \"hours\": %.2f,\n", hours);
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"deterministic\": %s,\n", deterministic ? "true" : "false");
  std::fprintf(f, "  \"baseline_recall\": %.6f,\n", baseline_recall);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const ScenarioScore& s = scores[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"recall\": %.6f, \"covered_recall\": %.6f, "
                 "\"gap_count\": %zu, \"gap_seconds\": %.1f, \"snapshots\": %zu, "
                 "\"relogins\": %llu, \"ks_ct\": %.6f, \"ks_ict\": %.6f}%s\n",
                 s.name.c_str(), s.recall, s.covered_recall, s.gap_count, s.gap_seconds,
                 s.snapshots, static_cast<unsigned long long>(s.relogins), s.ks_ct,
                 s.ks_ict, i + 1 < scores.size() ? "," : "");
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
  double hours = 6.0;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      hours = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      hours = 2.0;
    }
  }

  std::printf("chaos_recall: %0.1f h Isle Of View, seed %llu\n", hours,
              static_cast<unsigned long long>(seed));
  std::fprintf(stderr, "[bench] fault-free baseline...\n");
  const ExperimentResults baseline = run_scenario("none", hours, seed);
  const double baseline_recall =
      recall_vs_truth(baseline.trace, *baseline.ground_truth, false);

  const std::vector<std::string> scenarios = {"blackouts", "burst-loss",
                                              "region-flaps", "chaos"};
  std::vector<ScenarioScore> scores;
  bool deterministic = true;
  for (const std::string& scenario : scenarios) {
    std::fprintf(stderr, "[bench] scenario %s (run 1/2)...\n", scenario.c_str());
    ScenarioScore first = score_scenario(scenario, hours, seed, baseline);
    std::fprintf(stderr, "[bench] scenario %s (run 2/2)...\n", scenario.c_str());
    const ScenarioScore second = score_scenario(scenario, hours, seed, baseline);
    if (!(first == second)) {
      std::fprintf(stderr, "FAIL: scenario %s differs between identical runs\n",
                   scenario.c_str());
      deterministic = false;
    }
    scores.push_back(std::move(first));
  }

  std::printf("%-14s %8s %8s %6s %10s %10s %8s %8s\n", "scenario", "recall", "cov_rec",
              "gaps", "gap_sec", "relogins", "ks_ct", "ks_ict");
  std::printf("%-14s %8.4f %8s %6s %10s %10s %8s %8s\n", "none", baseline_recall, "-",
              "0", "0", "-", "-", "-");
  for (const ScenarioScore& s : scores) {
    std::printf("%-14s %8.4f %8.4f %6zu %10.0f %10llu %8.4f %8.4f\n", s.name.c_str(),
                s.recall, s.covered_recall, s.gap_count, s.gap_seconds,
                static_cast<unsigned long long>(s.relogins), s.ks_ct, s.ks_ict);
  }

  write_json(scores, baseline_recall, hours, seed, deterministic, "BENCH_chaos.json");
  std::printf("wrote BENCH_chaos.json (%s)\n",
              deterministic ? "deterministic" : "NON-DETERMINISTIC");
  return deterministic ? 0 : 1;
}
