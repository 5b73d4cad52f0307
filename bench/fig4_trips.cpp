// Figure 4 (a-c): trip analysis — CDFs of travel length, effective travel
// time (pauses excluded) and travel (login) time per user session.
#include <cstdio>

#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
  print_title("Figure 4: trip analysis (travel length / effective time / login time)",
              "La & Michiardi 2008, Fig. 4(a)-(c)");

  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const std::string land = res.trace.land_name();
    print_cdf("travel_length " + land, res.analysis.trips.travel_lengths);
    print_cdf("eff_travel_time " + land, res.analysis.trips.effective_travel_times);
    print_cdf("travel_time " + land, res.analysis.trips.travel_times);
  }

  std::printf("\n# paper-vs-measured checks\n");
  const auto p90_len = [&](LandArchetype a) {
    const auto& d = land_results(a, options).analysis.trips.travel_lengths;
    return d.empty() ? 0.0 : d.quantile(0.9);
  };
  print_compare("Dance travel length p90 (m)", 230.0, p90_len(LandArchetype::kDanceIsland));
  print_compare("Apfelland travel length p90 (m)", 400.0, p90_len(LandArchetype::kApfelLand));
  print_compare("Isle Of View travel length p90 (m)", 500.0,
                p90_len(LandArchetype::kIsleOfView));

  const auto& isle = land_results(LandArchetype::kIsleOfView, options);
  const auto& lengths = isle.analysis.trips.travel_lengths;
  print_compare("Isle Of View %sessions > 2000 m", 2.0,
                lengths.empty() ? 0.0 : lengths.ccdf(2000.0) * 100.0);

  std::printf("\n# login-time checks (paper: 90%% < 1 h, longest ~4 h)\n");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const auto& tt = res.analysis.trips.travel_times;
    if (tt.empty()) continue;
    std::printf("%-14s sessions=%zu  p90=%6.0fs (<3600: %s)  max=%6.0fs\n",
                res.trace.land_name().c_str(), res.analysis.trips.sessions, tt.quantile(0.9),
                tt.quantile(0.9) < 3600.0 ? "yes" : "NO", tt.max());
  }
  return 0;
}
