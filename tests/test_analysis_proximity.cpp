// IncrementalProximity, the one source of "pairs within r" for every
// analysis, checked against an O(n^2) brute force on every snapshot and at
// every radius. It calls snapshot_proximity, the function StreamingAnalyzer's
// window stage runs, so these oracles check the path that ships.
#include "analysis/incremental_proximity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

using PairSet = std::set<std::pair<std::uint32_t, std::uint32_t>>;

const std::vector<double> kRadii{10.0, 30.0, 80.0};

// All fix-index pairs (i < j) of `snap` within planar distance `range`.
PairSet brute_force_pairs(const Snapshot& snap, double range) {
  PairSet out;
  for (std::uint32_t i = 0; i < snap.fixes.size(); ++i) {
    for (std::uint32_t j = i + 1; j < snap.fixes.size(); ++j) {
      if (snap.fixes[i].pos.distance2d_to(snap.fixes[j].pos) <= range) out.insert({i, j});
    }
  }
  return out;
}

// Advances `prox` through `trace` and compares every snapshot at every
// radius with the brute force.
void expect_matches_brute_force(IncrementalProximity& prox, const Trace& trace) {
  for (std::size_t s = 0; s < trace.size(); ++s) {
    const Snapshot& snap = trace.snapshots()[s];
    prox.advance(snap);
    ASSERT_EQ(prox.positions().size(), snap.fixes.size()) << "snapshot " << s;
    for (std::size_t ri = 0; ri < kRadii.size(); ++ri) {
      const auto& pairs = prox.pairs(ri);
      const PairSet got(pairs.begin(), pairs.end());
      ASSERT_EQ(got.size(), pairs.size()) << "duplicate pair, snapshot " << s;
      ASSERT_EQ(got, brute_force_pairs(snap, kRadii[ri]))
          << "snapshot " << s << " range " << kRadii[ri];
    }
  }
}

// Four avatars whose planar offsets from the first are 6-8-10, 18-24-30 and
// 48-64-80 triangles: on integer coordinates each lies at exactly one of the
// radii, a tie the "<= r" rule must count as in range.
void add_tie_fixtures(Snapshot& snap) {
  snap.fixes.push_back({AvatarId{9001}, {100.0, 100.0, 22.0}});
  snap.fixes.push_back({AvatarId{9002}, {106.0, 108.0, 22.0}});
  snap.fixes.push_back({AvatarId{9003}, {118.0, 124.0, 22.0}});
  snap.fixes.push_back({AvatarId{9004}, {148.0, 164.0, 22.0}});
}

// A population on integer coordinates around two hotspots. Most snapshots
// move ~5 % of the avatars; every 10th moves ~90 %.
// Avatars log out and back in under the same id, every 17th snapshot is
// empty (everyone leaves, then re-enters), every 13th carries a duplicate
// avatar id, snapshots 20-39 hold the exact-tie fixtures, and fix order is
// shuffled per snapshot.
Trace churn_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  std::vector<Vec3> pos(users);
  std::vector<bool> online(users);
  for (std::size_t u = 0; u < users; ++u) {
    const double cx = (u % 2 == 0) ? 64.0 : 192.0;
    pos[u] = {cx + static_cast<double>(rng.uniform_int(-40, 40)),
              128.0 + static_cast<double>(rng.uniform_int(-40, 40)), 22.0};
    online[u] = rng.bernoulli(0.8);
  }
  Trace t("proximity-oracle", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    if (s % 17 == 5) {
      t.add(std::move(snap));
      continue;
    }
    const double move_p = s % 10 == 9 ? 0.9 : 0.05;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.bernoulli(0.03)) online[u] = !online[u];
      if (!online[u]) continue;
      if (rng.bernoulli(move_p)) {
        pos[u].x = std::clamp(pos[u].x + static_cast<double>(rng.uniform_int(-6, 6)), 0.0, 255.0);
        pos[u].y = std::clamp(pos[u].y + static_cast<double>(rng.uniform_int(-6, 6)), 0.0, 255.0);
      }
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)}, pos[u]});
    }
    if (s % 13 == 7 && !snap.fixes.empty()) {
      AvatarFix twin = snap.fixes.front();
      twin.pos.x = std::min(twin.pos.x + 3.0, 255.0);
      snap.fixes.push_back(twin);
    }
    if (s >= 20 && s < 40) add_tie_fixtures(snap);
    std::shuffle(snap.fixes.begin(), snap.fixes.end(), rng);
    t.add(std::move(snap));
  }
  return t;
}

TEST(ProximityOracle, MatchesBruteForceOnEverySnapshotAtEveryRadius) {
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace trace = churn_trace(seed, 120, 60);
    IncrementalProximity prox(kRadii);
    expect_matches_brute_force(prox, trace);
  }
}

TEST(ProximityOracle, MatchesBruteForceAtEveryChurnThreshold) {
  // The churn threshold is inert: every threshold gives the same answers.
  const Trace trace = churn_trace(11, 80, 50);
  for (const double threshold : {0.0, 0.35, 2.0}) {
    SCOPED_TRACE("churn threshold " + std::to_string(threshold));
    IncrementalProximity prox(kRadii, threshold);
    expect_matches_brute_force(prox, trace);
  }
}

TEST(ProximityOracle, TiesAtExactlyRangeOnRebuildAndDeltaPaths) {
  // Snapshot 1 repeats snapshot 0 and snapshot 2 moves one far avatar; the
  // tie pairs must be in range at their radius on every one.
  Trace trace("ties", 10.0);
  for (int s = 0; s < 3; ++s) {
    Snapshot snap;
    snap.time = s * 10.0;
    add_tie_fixtures(snap);
    for (std::uint32_t k = 0; k < 8; ++k) {
      snap.fixes.push_back({AvatarId{k + 1}, {10.0 + 25.0 * k, 240.0, 22.0}});
    }
    if (s == 2) snap.fixes.back().pos.x = 5.0;
    trace.add(std::move(snap));
  }
  IncrementalProximity prox(kRadii);
  expect_matches_brute_force(prox, trace);
  const PairSet r10(prox.pairs(0).begin(), prox.pairs(0).end());
  EXPECT_TRUE(r10.contains({0, 1}));   // 6-8-10
  EXPECT_FALSE(r10.contains({0, 2}));  // 30 m apart
  const PairSet r30(prox.pairs(1).begin(), prox.pairs(1).end());
  EXPECT_TRUE(r30.contains({0, 2}));   // 18-24-30
  const PairSet r80(prox.pairs(2).begin(), prox.pairs(2).end());
  EXPECT_TRUE(r80.contains({0, 3}));   // 48-64-80
}

TEST(ProximityOracle, MatchesBruteForceOnGappedCrawlerTrace) {
  // A real 2 h Isle of View crawl under the blackout fault scenario: the
  // crawler's relogins and coverage gaps make whole populations vanish and
  // reappear between snapshots.
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.ranges = {};
  cfg.analysis_threads = 1;
  cfg.fault_scenario = "blackouts";
  const Trace trace = run_experiment(cfg).trace;
  ASSERT_FALSE(trace.gaps().empty());
  IncrementalProximity prox(kRadii);
  expect_matches_brute_force(prox, trace);
}

TEST(IncrementalProximity, RangesAreSortedAndDeduplicated) {
  const IncrementalProximity prox({80.0, 10.0, 80.0});
  ASSERT_EQ(prox.ranges().size(), 2u);
  EXPECT_EQ(prox.ranges()[0], 10.0);
  EXPECT_EQ(prox.ranges()[1], 80.0);
  EXPECT_EQ(prox.range_index(80.0), 1u);
}

TEST(IncrementalProximity, UnknownRangeThrows) {
  const IncrementalProximity prox({10.0});
  EXPECT_THROW((void)prox.range_index(80.0), std::invalid_argument);
}

TEST(IncrementalProximity, NonPositiveOrNonFiniteRangeThrows) {
  for (const double bad : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    try {
      const IncrementalProximity prox({10.0, bad});
      ADD_FAILURE() << "accepted range " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("IncrementalProximity:", 0), 0u) << e.what();
    }
  }
}

TEST(IncrementalProximity, EmptyRangesStillReportPositions) {
  const Trace trace = churn_trace(4, 5, 10);
  IncrementalProximity prox({});
  EXPECT_TRUE(prox.ranges().empty());
  for (const Snapshot& snap : trace.snapshots()) {
    prox.advance(snap);
    EXPECT_EQ(prox.positions().size(), snap.fixes.size());
  }
}

}  // namespace
}  // namespace slmob
