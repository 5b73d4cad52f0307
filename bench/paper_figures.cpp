// The paper's §3 results, reproduced in order from one simulation per land:
//
//   Table 1   trace summary — unique visitors and average concurrent users
//   Fig. 1    CT / ICT / FT CCDFs at r = 10 m and r = 80 m
//   Fig. 2    line-of-sight degree / diameter / clustering
//   Fig. 3    zone occupation CDF (L = 20 m) and the Dance Island heat map
//   Fig. 4    travel length / effective travel time / login time CDFs
//
// Each section prints the measured series plus a paper-vs-measured
// comparison where the paper states numbers.
//
//   paper_figures [--hours H] [--seed S] [--quick]
#include <cstdio>

#include "bench_common.hpp"
#include "stats/fit.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

// Table 1 (in-text, §3): trace summary per target land over a 24 h
// measurement.
void table1_trace_summary(const BenchOptions& options) {
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
}

struct MedianTargets {
  double ct10, ct80, ict, ft10, ft80;
};

const MedianTargets& median_targets(LandArchetype archetype) {
  static const MedianTargets apfel{30, 70, 400, 300, 30};
  static const MedianTargets dance{100, 300, 750, 20, 5};
  static const MedianTargets isle{60, 200, 400, 20, 5};
  switch (archetype) {
    case LandArchetype::kApfelLand:
      return apfel;
    case LandArchetype::kDanceIsland:
      return dance;
    case LandArchetype::kIsleOfView:
      return isle;
  }
  return apfel;
}

// Figure 1 (a-f): contact-opportunity CCDFs, paper-vs-measured medians and
// the two-phase (power-law head + exponential cutoff) shape diagnostics.
void fig1_temporal(const BenchOptions& options) {
  print_title("Figure 1: temporal analysis (CT / ICT / FT CCDFs, r=10m and r=80m)",
              "La & Michiardi 2008, Fig. 1(a)-(f)");

  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const std::string land = res.trace.land_name();
    for (const double r : {kBluetoothRange, kWifiRange}) {
      const ContactAnalysis& c = res.analysis.contacts.at(r);
      const std::string tag = land + " r=" + std::to_string(static_cast<int>(r));
      print_ccdf_log("CT " + tag, c.contact_times, 10.0);
      print_ccdf_log("ICT " + tag, c.inter_contact_times, 10.0);
      print_ccdf_log("FT " + tag, c.first_contact_times, 1.0);
    }
  }

  std::printf("\n# paper-vs-measured medians (seconds)\n");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    const std::string land = res.trace.land_name();
    const MedianTargets& t = median_targets(archetype);
    const auto median = [](const Ecdf& e) { return e.empty() ? 0.0 : e.median(); };
    print_compare(land + " median CT  r=10", t.ct10,
                  median(res.analysis.contacts.at(kBluetoothRange).contact_times));
    print_compare(land + " median CT  r=80", t.ct80,
                  median(res.analysis.contacts.at(kWifiRange).contact_times));
    print_compare(land + " median ICT r=10", t.ict,
                  median(res.analysis.contacts.at(kBluetoothRange).inter_contact_times));
    print_compare(land + " median ICT r=80", t.ict,
                  median(res.analysis.contacts.at(kWifiRange).inter_contact_times));
    print_compare(land + " median FT  r=10", t.ft10,
                  median(res.analysis.contacts.at(kBluetoothRange).first_contact_times));
    print_compare(land + " median FT  r=80", t.ft80,
                  median(res.analysis.contacts.at(kWifiRange).first_contact_times));
  }

  std::printf(
      "\n# two-phase shape check (paper: power-law head + exponential cutoff)\n");
  for (const LandArchetype archetype : kAllArchetypes) {
    const ExperimentResults& res = land_results(archetype, options);
    for (const char* which : {"CT", "ICT"}) {
      const auto& dist = which[0] == 'C'
                             ? res.analysis.contacts.at(kBluetoothRange).contact_times
                             : res.analysis.contacts.at(kBluetoothRange).inter_contact_times;
      if (dist.size() < 20) continue;
      const TwoPhaseFit fit = fit_two_phase(dist.sorted(), 10.0);
      std::printf("%-14s %-4s r=10: head alpha=%5.2f  tail rate=%8.5f  "
                  "crossover=%7.1fs  ks=%5.3f\n",
                  res.trace.land_name().c_str(), which, fit.head.alpha, fit.tail.rate,
                  fit.crossover, fit.ks);
    }
  }
}

// Figure 2 (a-f): line-of-sight network properties — node degree CCDF,
// network diameter CDF (largest connected component) and Watts-Strogatz
// clustering coefficient CDF.
void fig2_graphs(const BenchOptions& options) {
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
}

// Figure 3: spatial distribution of users — CDF of the number of users per
// 20 m x 20 m cell. Hot-spot lands (Dance Island) show cells with tens of
// users while the bulk of the land is empty.
void fig3_zone_occupation(const BenchOptions& options) {
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
}

// Figure 4 (a-c): trip analysis — CDFs of travel length, effective travel
// time (pauses excluded) and travel (login) time per user session.
void fig4_trips(const BenchOptions& options) {
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
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
  table1_trace_summary(options);
  fig1_temporal(options);
  fig2_graphs(options);
  fig3_zone_occupation(options);
  fig4_trips(options);
  return 0;
}
