// Figure 2 (a-f): line-of-sight network properties — node degree CCDF,
// network diameter CDF (largest connected component) and Watts-Strogatz
// clustering coefficient CDF, at r = 10 m and r = 80 m.
#include <cstdio>

#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
  print_title("Figure 2: line-of-sight network properties",
              "La & Michiardi 2008, Fig. 2(a)-(f)");

  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const std::string land = res.trace.land_name();
    for (const double r : {kBluetoothRange, kWifiRange}) {
      const GraphMetrics& g = res.analysis.graphs.at(r);
      const std::string tag = land + " r=" + std::to_string(static_cast<int>(r));
      std::printf("# degree CCDF %s (n=%zu samples)\n", tag.c_str(), g.degrees.size());
      for (int d = 0; d <= static_cast<int>(g.degrees.max()); ++d) {
        std::printf("%-28s %6d %10.4f\n", ("deg " + tag).c_str(), d,
                    g.degrees.ccdf(static_cast<double>(d) - 0.5));
      }
      print_cdf("diam " + tag, g.diameters);
      print_cdf("clust " + tag, g.clustering);
    }
  }

  std::printf("\n# paper-vs-measured qualitative checks\n");
  const auto isolated = [&](LandArchetype a, double r) {
    return land_results(a, options).analysis.graphs.at(r).isolated_fraction * 100.0;
  };
  print_compare("Apfelland %users no neighbour r=10", 60.0,
                isolated(LandArchetype::kApfelLand, kBluetoothRange));
  print_compare("Dance %users no neighbour r=10", 10.0,
                isolated(LandArchetype::kDanceIsland, kBluetoothRange));
  print_compare("Isle Of View %users no neighbour r=10", 0.0,
                isolated(LandArchetype::kIsleOfView, kBluetoothRange));
  print_compare("Apfelland %users no neighbour r=80", 0.0,
                isolated(LandArchetype::kApfelLand, kWifiRange));
  print_compare("Dance %users no neighbour r=80", 0.0,
                isolated(LandArchetype::kDanceIsland, kWifiRange));
  print_compare("Isle Of View %users no neighbour r=80", 0.0,
                isolated(LandArchetype::kIsleOfView, kWifiRange));

  std::printf("\n# clustering medians (paper: high values => not random graphs)\n");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    for (const double r : {kBluetoothRange, kWifiRange}) {
      const auto& cl = res.analysis.graphs.at(r).clustering;
      std::printf("%-14s r=%2.0f median clustering = %.3f\n",
                  res.trace.land_name().c_str(), r, cl.empty() ? 0.0 : cl.median());
    }
  }

  std::printf("\n# Apfelland diameter paradox (paper: max diameter r=10 < r=80,\n");
  std::printf("# because small r fragments the land into small components)\n");
  const auto& apfel = land_results(LandArchetype::kApfelLand, options);
  std::printf("Apfelland max diameter r=10: %.0f   r=80: %.0f\n",
              apfel.analysis.graphs.at(kBluetoothRange).diameters.max(),
              apfel.analysis.graphs.at(kWifiRange).diameters.max());
  return 0;
}
