// Figure 1 (a-f): CCDFs of contact time (CT), inter-contact time (ICT) and
// first contact time (FT) for the three target lands at r = 10 m
// (Bluetooth) and r = 80 m (WiFi), plus the paper-vs-measured medians and
// the two-phase (power-law head + exponential cutoff) shape diagnostics.
#include <cstdio>

#include "bench_common.hpp"
#include "stats/fit.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

struct MedianTargets {
  double ct10, ct80, ict, ft10, ft80;
};

const MedianTargets& targets(LandArchetype archetype) {
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

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions options = BenchOptions::parse(argc, argv);
  prewarm_lands({std::begin(kAllArchetypes), std::end(kAllArchetypes)}, options);
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
    const MedianTargets& t = targets(archetype);
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
  return 0;
}
