// Future-work reproduction (§5 of the paper): the relation ("acquaintance")
// graph of SL users, with the frequency and strength of contact between
// acquaintances, plus the Levy-flight decomposition of trajectories the
// conclusion alludes to (paper ref [8]).
#include <cstdio>

#include "analysis/flights.hpp"
#include "analysis/relations.hpp"
#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
  print_title("Future work: relation graph & flight decomposition",
              "La & Michiardi 2008, section 5 (conclusion and future work)");

  std::printf("%-14s %8s %8s %10s %12s %12s %14s\n", "land", "users", "ties",
              "acq-frac", "enc med", "strength med", "recontact med");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const RelationGraph graph(res.analysis.contacts.at(kBluetoothRange).intervals);
    EcdfAccumulator recontact;
    for (const auto& rel : graph.relations()) {
      if (rel.encounters >= 2) recontact.add(rel.mean_recontact_gap());
    }
    const Ecdf gaps = recontact.finish();
    std::printf("%-14s %8zu %8zu %9.1f%% %12.0f %12.0f %14.0f\n",
                res.trace.land_name().c_str(), graph.user_count(), graph.edge_count(),
                graph.acquaintance_fraction() * 100.0,
                graph.encounter_counts().empty() ? 0.0 : graph.encounter_counts().median(),
                graph.tie_strengths().empty() ? 0.0 : graph.tie_strengths().median(),
                gaps.empty() ? 0.0 : gaps.median());
  }

  std::printf("\n# strongest ties on Dance Island (regulars who dance together)\n");
  {
    const ExperimentResults& res = land_results(LandArchetype::kDanceIsland, options);
    const RelationGraph graph(res.analysis.contacts.at(kBluetoothRange).intervals);
    for (const auto& rel : graph.strongest(5)) {
      std::printf("users %u-%u: %zu encounters, %.0f s together, knew each other "
                  "for %.0f s\n",
                  rel.a.value, rel.b.value, rel.encounters, rel.total_contact,
                  rel.last_seen_together - rel.first_met);
    }
  }

  std::printf("\n# flight/pause decomposition (paper ref [8], Levy-walk metrics)\n");
  std::printf("%-14s %10s %12s %12s %12s %12s\n", "land", "flights", "len med",
              "len alpha", "pause med", "pause alpha");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const FlightAnalysis f = analyze_flights(res.trace);
    std::printf("%-14s %10zu %12.0f %12.2f %12.0f %12.2f\n",
                res.trace.land_name().c_str(), f.flight_lengths.size(),
                f.flight_lengths.empty() ? 0.0 : f.flight_lengths.median(),
                f.flight_fit.alpha,
                f.pause_times.empty() ? 0.0 : f.pause_times.median(), f.pause_fit.alpha);
  }
  std::printf("\nExpected: a heavy-tailed flight distribution truncated by the land\n"
              "size, and power-law-ish pauses — the Levy-walk signature of human\n"
              "mobility, emerging here from POI attraction alone.\n");
  return 0;
}
