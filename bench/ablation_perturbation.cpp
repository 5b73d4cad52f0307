// Ablation: the crawler-perturbation effect (§2 of the paper).
//
// "our initial experiments showed a steady convergence of user movements
// towards our crawler" — we reproduce that: a naive (idle, silent) crawler
// becomes an attractor; mimicry (random movement + canned chat) suppresses
// the effect. Measured as the inflation of zone occupancy around the
// crawler and the bias of the contact-time distribution.
#include <cstdio>

#include "bench_common.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

ExperimentResults run_variant(LandArchetype archetype, const BenchOptions& options,
                              bool mimicry, bool curiosity_enabled) {
  ExperimentConfig cfg;
  cfg.archetype = archetype;
  cfg.duration = options.hours * kSecondsPerHour;
  cfg.seed = options.seed;
  cfg.testbed.crawler.mimicry.enabled = mimicry;
  CuriosityParams curiosity;
  curiosity.enabled = curiosity_enabled;
  cfg.testbed.curiosity = curiosity;
  return run_experiment(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::parse(argc, argv);
  if (options.hours > 6.0) options.hours = 6.0;  // 3 variants per land
  print_title("Ablation: crawler mimicry vs the curiosity perturbation",
              "La & Michiardi 2008, section 2 (perturbation of measurements)");

  std::printf("%-14s %-22s %10s %12s %12s %10s\n", "land", "variant", "max-zone",
              "CT med r10", "deg med r10", "approaches");
  for (const LandArchetype archetype :
       {LandArchetype::kApfelLand, LandArchetype::kDanceIsland}) {
    struct Variant {
      const char* name;
      bool mimicry;
      bool curiosity;
    };
    const Variant variants[] = {
        {"baseline(no curiosity)", true, false},
        {"naive crawler", false, true},
        {"mimicking crawler", true, true},
    };
    for (const auto& v : variants) {
      const ExperimentResults res = run_variant(archetype, options, v.mimicry, v.curiosity);
      const auto& ct = res.analysis.contacts.at(kBluetoothRange).contact_times;
      const auto& deg = res.analysis.graphs.at(kBluetoothRange).degrees;
      std::printf("%-14s %-22s %10zu %12.0f %12.0f %10llu\n",
                  res.trace.land_name().c_str(), v.name, res.analysis.zones.max_occupancy,
                  ct.empty() ? 0.0 : ct.median(), deg.empty() ? 0.0 : deg.median(),
                  static_cast<unsigned long long>(res.world_stats.curiosity_approaches));
    }
  }
  std::printf("\nExpected: the naive crawler draws users to itself (curiosity\n"
              "approaches > 0, inflated hot-spot occupancy); mimicry restores the\n"
              "baseline. This is why the crawler moves and chats (paper, section 2).\n");
  return 0;
}
