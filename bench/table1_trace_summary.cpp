// Table 1 (in-text, §3): trace summary per target land — total unique
// visitors and average number of concurrently logged-in users over a 24 h
// measurement.
#include <cstdio>

#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
  print_title("Table 1: trace summary (unique visitors / avg concurrent users)",
              "La & Michiardi 2008, section 3 (in-text trace summary)");

  struct PaperRow {
    LandArchetype archetype;
    double unique;
    double concurrent;
  };
  const PaperRow paper_rows[] = {
      {LandArchetype::kIsleOfView, 2656, 65},
      {LandArchetype::kDanceIsland, 3347, 34},
      {LandArchetype::kApfelLand, 1568, 13},
  };

  std::printf("%-14s %10s %10s %12s %12s %10s %10s\n", "land", "uniq(pap)", "uniq(meas)",
              "conc(pap)", "conc(meas)", "maxconc", "snapshots");
  for (const auto& row : paper_rows) {
    const ExperimentResults& res = land_results(row.archetype, options);
    // Scale the paper's 24 h unique-user count when running shorter traces.
    const double scale = options.hours / 24.0;
    std::printf("%-14s %10.0f %10zu %12.0f %12.1f %10zu %10zu\n",
                res.trace.land_name().c_str(), row.unique * scale,
                res.analysis.summary.unique_users, row.concurrent, res.analysis.summary.avg_concurrent,
                res.analysis.summary.max_concurrent, res.analysis.summary.snapshot_count);
  }

  std::printf("\n# session-time sanity (paper: longest ~4 h, 90%% of users < 1 h)\n");
  for (const auto& row : paper_rows) {
    const ExperimentResults& res = land_results(row.archetype, options);
    const auto& tt = res.analysis.trips.travel_times;
    if (tt.empty()) continue;
    std::printf("%-14s p90_session=%6.0fs  max_session=%6.0fs\n",
                res.trace.land_name().c_str(), tt.quantile(0.9), tt.max());
  }
  return 0;
}
