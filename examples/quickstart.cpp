// Quickstart: run the paper's measurement end-to-end on one land.
//
// Simulates Dance Island for two virtual hours, crawls it exactly as the
// paper's instrument did (tau = 10 s minimap sampling over the wire
// protocol), computes every §3 metric, and saves the trace for later
// trace-driven experiments.
//
//   ./examples/quickstart [hours]
#include <cstdio>
#include <cstdlib>

#include "core/experiment.hpp"
#include "trace/serialize.hpp"

int main(int argc, char** argv) {
  using namespace slmob;

  const double hours = argc > 1 ? std::atof(argv[1]) : 2.0;

  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kDanceIsland;
  cfg.duration = hours * kSecondsPerHour;
  cfg.seed = 2008;

  std::printf("Crawling %s for %.1f virtual hours...\n",
              archetype_name(cfg.archetype).c_str(), hours);
  const ExperimentResults res = run_experiment(cfg);

  std::printf("\n--- trace summary ---\n");
  std::printf("unique visitors: %zu\n", res.analysis.summary.unique_users);
  std::printf("avg concurrent:  %.1f (max %zu)\n", res.analysis.summary.avg_concurrent,
              res.analysis.summary.max_concurrent);
  std::printf("snapshots:       %zu (every %.0f s)\n", res.analysis.summary.snapshot_count,
              res.trace.sampling_interval());

  std::printf("\n--- contact opportunities ---\n");
  for (const auto& [range, contacts] : res.analysis.contacts) {
    const auto median = [](const Ecdf& e) { return e.empty() ? 0.0 : e.median(); };
    std::printf("r=%2.0fm: %6zu contacts | median CT %5.0fs | median ICT %5.0fs | "
                "median FT %5.0fs\n",
                range, contacts.intervals.size(), median(contacts.contact_times),
                median(contacts.inter_contact_times),
                median(contacts.first_contact_times));
  }

  std::printf("\n--- line-of-sight networks ---\n");
  for (const auto& [range, graphs] : res.analysis.graphs) {
    std::printf("r=%2.0fm: median degree %.0f | %4.1f%% isolated | median diameter %.0f "
                "| median clustering %.2f\n",
                range, graphs.degrees.empty() ? 0.0 : graphs.degrees.median(),
                graphs.isolated_fraction * 100.0,
                graphs.diameters.empty() ? 0.0 : graphs.diameters.median(),
                graphs.clustering.empty() ? 0.0 : graphs.clustering.median());
  }

  std::printf("\n--- space & trips ---\n");
  std::printf("empty 20m cells: %.1f%% | busiest cell: %zu users\n",
              res.analysis.zones.empty_fraction * 100.0, res.analysis.zones.max_occupancy);
  if (!res.analysis.trips.travel_lengths.empty()) {
    std::printf("travel length: median %.0fm, p90 %.0fm | session: median %.0fs, max %.0fs\n",
                res.analysis.trips.travel_lengths.median(), res.analysis.trips.travel_lengths.quantile(0.9),
                res.analysis.trips.travel_times.median(), res.analysis.trips.travel_times.max());
  }

  const std::string path = "dance_island.slt";
  save_trace(res.trace, path);
  std::printf("\ntrace saved to %s (binary; trace_to_csv() exports CSV)\n", path.c_str());
  return 0;
}
