// The paper's Figure 1 findings, asserted on one 24 h simulation per land
// with the configuration bench/paper_figures uses (ExperimentConfig
// defaults: seed 42, r = 10 m and 80 m). EXPERIMENTS.md marks each finding
// asserted here with ✓; its ~ rows stay documented and unasserted. Every
// failure message carries the paper's value. The test names spell CT, ICT
// and FT, so the sanitizer jobs' `-R Contact` filters leave these
// multi-second simulations out.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/experiment.hpp"
#include "util/thread_pool.hpp"

namespace slmob {
namespace {

struct LandFindings {
  std::string land;
  double ct10{0.0};   // median CT at r = 10 m
  double ct80{0.0};   // median CT at r = 80 m
  double ict80{0.0};  // median ICT at r = 80 m
  double ft80{0.0};   // median FT at r = 80 m
};

enum Land : std::size_t { kApfel, kDance, kIsle };

// The three 24 h lands, simulated once per process, one land per thread.
const std::array<LandFindings, 3>& findings() {
  static const std::array<LandFindings, 3> lands = [] {
    constexpr std::array<LandArchetype, 3> archetypes{
        LandArchetype::kApfelLand, LandArchetype::kDanceIsland, LandArchetype::kIsleOfView};
    ThreadPool pool(3);
    const auto all = parallel_map<LandFindings>(pool, archetypes.size(), [&](std::size_t i) {
      ExperimentConfig cfg;
      cfg.archetype = archetypes[i];
      cfg.analysis_threads = 1;
      const ExperimentResults res = run_experiment(cfg);
      const ContactAnalysis& c10 = res.analysis.contacts.at(kBluetoothRange);
      const ContactAnalysis& c80 = res.analysis.contacts.at(kWifiRange);
      return LandFindings{res.trace.land_name(), c10.contact_times.median(),
                          c80.contact_times.median(), c80.inter_contact_times.median(),
                          c80.first_contact_times.median()};
    });
    return std::array<LandFindings, 3>{all[0], all[1], all[2]};
  }();
  return lands;
}

TEST(PaperFindings, CtOrderingDanceIsleApfelAt10m) {
  const auto& f = findings();
  // Paper, Fig. 1(a): CT medians 100 s (Dance) > 60 s (Isle) > 30 s (Apfel).
  EXPECT_GT(f[kDance].ct10, f[kIsle].ct10) << "paper r=10: Dance 100 s > Isle 60 s";
  EXPECT_GT(f[kIsle].ct10, f[kApfel].ct10) << "paper r=10: Isle 60 s > Apfel 30 s";
}

TEST(PaperFindings, ApfelHasTheShortestCtAt80m) {
  const auto& f = findings();
  // Paper, Fig. 1(d): 300 s (Dance) > 200 s (Isle) > 70 s (Apfel). Only
  // Apfel's place holds here: Dance's 80 m CT runs low (130 s against
  // Isle's 160 s), a ~ row of EXPERIMENTS.md.
  EXPECT_GT(f[kDance].ct80, f[kApfel].ct80) << "paper r=80: Dance 300 s > Apfel 70 s";
  EXPECT_GT(f[kIsle].ct80, f[kApfel].ct80) << "paper r=80: Isle 200 s > Apfel 70 s";
}

TEST(PaperFindings, DanceHasTheLongestIctAt80m) {
  const auto& f = findings();
  // Paper, Fig. 1(e): ICT medians 700-800 s (Dance) against ~400 s elsewhere.
  EXPECT_GT(f[kDance].ict80, f[kIsle].ict80) << "paper r=80: Dance 700-800 s > Isle 400 s";
  EXPECT_GT(f[kDance].ict80, f[kApfel].ict80) << "paper r=80: Dance 700-800 s > Apfel 400 s";
}

TEST(PaperFindings, CtMediansAt10mWithinAFactorOfTwo) {
  // Paper, Fig. 1(a), read off the figure: the tolerance is a factor of 2.
  constexpr std::array<double, 3> paper{30.0, 100.0, 60.0};
  for (const Land land : {kApfel, kDance, kIsle}) {
    const LandFindings& f = findings()[land];
    EXPECT_GE(f.ct10, paper[land] / 2.0) << f.land << ": paper median CT r=10 " << paper[land] << " s";
    EXPECT_LE(f.ct10, paper[land] * 2.0) << f.land << ": paper median CT r=10 " << paper[land] << " s";
  }
}

TEST(PaperFindings, FtMediansAt80mAtMostThePapers) {
  // Paper, Fig. 1(f): at WiFi range a newcomer meets someone within
  // seconds: medians 30 s (Apfel), < 5 s (Dance, Isle).
  constexpr std::array<double, 3> paper{30.0, 5.0, 5.0};
  for (const Land land : {kApfel, kDance, kIsle}) {
    const LandFindings& f = findings()[land];
    EXPECT_LE(f.ft80, paper[land]) << f.land << ": paper median FT r=80 <= " << paper[land] << " s";
  }
}

}  // namespace
}  // namespace slmob
