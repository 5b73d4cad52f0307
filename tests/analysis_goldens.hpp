// Golden analysis fingerprints: analysis_fingerprint of the full report
// (ranges 10 m and 80 m, default options) for the paper's three lands, two
// fault scenarios and seeded synthetic traces with and without coverage
// gaps. They were recorded when a second, batch implementation of every
// metric still existed and agreed with the streaming engine on each of
// them, so they pin the §3 results independently of the code that now
// computes them. A change that moves one of these values changes a paper
// metric and must say why.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace slmob::golden {

// Avatars random-walking around two hotspots with churn, so every analysis
// produces non-trivial output.
inline Trace seeded_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  std::vector<Vec3> pos(users);
  std::vector<bool> online(users, false);
  for (std::size_t u = 0; u < users; ++u) {
    const double cx = (u % 2 == 0) ? 64.0 : 192.0;
    pos[u] = {cx + rng.uniform(-30.0, 30.0), 128.0 + rng.uniform(-30.0, 30.0), 22.0};
    online[u] = rng.uniform(0.0, 1.0) < 0.7;
  }
  Trace t("streaming-golden", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.02) online[u] = !online[u];
      if (!online[u]) continue;
      pos[u].x = std::clamp(pos[u].x + rng.uniform(-5.0, 5.0), 0.0, 255.0);
      pos[u].y = std::clamp(pos[u].y + rng.uniform(-5.0, 5.0), 0.0, 255.0);
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)}, pos[u]});
    }
    t.add(std::move(snap));
  }
  return t;
}

// seeded_trace(99, 120, 60), no gaps.
inline Trace gap_free_trace() { return seeded_trace(99, 120, 60); }
inline constexpr std::uint32_t kGapFree = 0x0cac47a0u;

// seeded_trace(7, 150, 50) with two coverage gaps.
inline Trace gapped_trace() {
  Trace t = seeded_trace(7, 150, 50);
  t.add_gap(295.0, 355.0);
  t.add_gap(820.0, 900.0);
  return t;
}
inline constexpr std::uint32_t kGapped = 0xdabf1153u;

// analyze_flights (default options) of seeded_trace(43, 100, 40), without
// and with a coverage gap, condensed by flights_fingerprint
// (test_analysis_flights.cpp) to a CRC. Recorded while the streaming
// analyzer could still compute flights: its flights equalled these, inside
// reports matching the goldens of that time, which date from when
// analyze_flights ran its own copy of the pause/flight state machine.
inline Trace flights_trace() { return seeded_trace(43, 100, 40); }
inline constexpr std::uint32_t kFlights = 0xbfeef14du;
inline Trace flights_gapped_trace() {
  Trace t = seeded_trace(43, 100, 40);
  t.add_gap(395.0, 455.0);
  return t;
}
inline constexpr std::uint32_t kFlightsGapped = 0x50354853u;

// One run_experiment per row: 2 h, seed 42.
struct LandGolden {
  const char* name;
  LandArchetype archetype;
  const char* scenario;
  std::uint32_t fingerprint;
};

// The collector-crash scenario crashes only the sensor collector, which the
// crawler's trace never sees, so its report equals the fault-free one.
inline constexpr LandGolden kIsleOfView{"isle", LandArchetype::kIsleOfView, "none",
                                        0x46b7ae5eu};
inline constexpr LandGolden kDanceIsland{"dance", LandArchetype::kDanceIsland, "none",
                                         0x8fff07ccu};
inline constexpr LandGolden kApfelLand{"apfel", LandArchetype::kApfelLand, "none",
                                       0xf5216e58u};
inline constexpr LandGolden kIsleChaos{"isle-chaos", LandArchetype::kIsleOfView, "chaos",
                                       0x84656560u};
inline constexpr LandGolden kIsleCollectorCrash{
    "isle-collector-crash", LandArchetype::kIsleOfView, "collector-crash", 0x46b7ae5eu};

inline ExperimentConfig config_of(const LandGolden& golden) {
  ExperimentConfig cfg;
  cfg.archetype = golden.archetype;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.seed = 42;
  cfg.fault_scenario = golden.scenario;
  return cfg;
}

}  // namespace slmob::golden
