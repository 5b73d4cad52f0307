// Figure 3: spatial distribution of users — CDF of the number of users per
// 20 m x 20 m cell. Hot-spot lands (Dance Island) show cells with tens of
// users while the bulk of the land is empty.
#include <cstdio>

#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
  print_title("Figure 3: zone occupation CDF (L = 20 m)",
              "La & Michiardi 2008, Fig. 3");

  std::printf("%-14s %6s %10s\n", "land", "users", "F(x)");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const ZoneAnalysis& z = res.analysis.zones;
    for (int users = 0; users <= 25; ++users) {
      std::printf("%-14s %6d %10.4f\n", res.trace.land_name().c_str(), users,
                  z.occupancy.cdf(static_cast<double>(users)));
    }
  }

  std::printf("\n# qualitative checks (paper: large empty fraction; Dance has\n");
  std::printf("# hot-spots with several tens of users)\n");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    std::printf("%-14s empty cells=%5.1f%%  max occupancy=%zu users\n",
                res.trace.land_name().c_str(), res.analysis.zones.empty_fraction * 100.0,
                res.analysis.zones.max_occupancy);
  }

  std::printf("\n# mean-occupancy heat map (Dance Island, 13x13 cells, x10)\n");
  const ExperimentResults& dance = land_results(LandArchetype::kDanceIsland, options);
  const auto side = dance.analysis.zones.cells_per_side;
  for (std::size_t row = side; row-- > 0;) {
    for (std::size_t col = 0; col < side; ++col) {
      const double mean = dance.analysis.zones.mean_per_cell[row * side + col];
      const int shade = static_cast<int>(mean * 10.0);
      std::printf("%4d", shade);
    }
    std::printf("\n");
  }
  return 0;
}
