#include "analysis/pair_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "analysis/incremental_proximity.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace slmob {
namespace {

using Pair = std::pair<std::uint32_t, std::uint32_t>;

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// (i, j, distance bits): set equality on this triple is the "same pairs,
// same distances, bit-identical" contract the kernel promises.
using DistPair = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

std::set<DistPair> brute_force(const std::vector<Vec3>& positions, double r) {
  std::set<DistPair> out;
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    for (std::uint32_t j = i + 1; j < positions.size(); ++j) {
      const double d = positions[i].distance2d_to(positions[j]);
      if (d <= r) out.insert({i, j, bits_of(d)});
    }
  }
  return out;
}

std::set<DistPair> kernel_pairs(PairKernel& kernel, const std::vector<Vec3>& positions,
                                double r) {
  kernel.run(positions, r);
  std::set<DistPair> out;
  for (const PairKernel::Hit& h : kernel.hits()) {
    EXPECT_LT(h.i, h.j);
    out.insert({h.i, h.j, bits_of(std::sqrt(h.d2))});
  }
  EXPECT_EQ(out.size(), kernel.hits().size()) << "duplicate hits reported";
  return out;
}

TEST(PairKernel, SquaredRadiusThresholdIsExactBoundary) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const double r : {0.3, 1.0, 10.0, 80.0, 123.456, 1e-9, 1e9}) {
    const double t = squared_radius_threshold(r);
    EXPECT_LE(std::sqrt(t), r) << "r=" << r;
    EXPECT_GT(std::sqrt(std::nextafter(t, inf)), r) << "r=" << r;
  }
  EXPECT_THROW((void)squared_radius_threshold(0.0), std::invalid_argument);
  EXPECT_THROW((void)squared_radius_threshold(-1.0), std::invalid_argument);
}

TEST(PairKernel, EmptyAndSingleSnapshots) {
  PairKernel kernel;
  kernel.run({}, 10.0);
  EXPECT_TRUE(kernel.hits().empty());
  EXPECT_EQ(kernel.size(), 0u);

  const std::vector<Vec3> one{{5.0, 5.0, 22.0}};
  kernel.run(one, 10.0);
  EXPECT_TRUE(kernel.hits().empty());
  EXPECT_EQ(kernel.size(), 1u);

  std::vector<std::uint32_t> near;
  kernel.near({5.0, 5.0, 0.0}, near);
  EXPECT_EQ(near, std::vector<std::uint32_t>{0});
  near.clear();
  kernel.near({500.0, 500.0, 0.0}, near);
  EXPECT_TRUE(near.empty());
}

TEST(PairKernel, BoundaryTiesAtExactlyR) {
  // 3-4-5 triangle: distance is exactly 5; and one pair one ulp beyond.
  const std::vector<Vec3> positions{
      {0.0, 0.0, 0.0},
      {3.0, 4.0, 0.0},
      {std::nextafter(5.0, 6.0), 4.0, 0.0},  // just over 5 from index 1? no — from (0,4)
  };
  PairKernel kernel;
  kernel.run(positions, 5.0);
  std::set<Pair> got;
  for (const auto& h : kernel.hits()) got.insert({h.i, h.j});
  EXPECT_TRUE(got.count({0, 1})) << "tie at exactly r must be included";

  // Distance one ulp above r must be excluded even though d2 may round down.
  const double r = 10.0;
  const std::vector<Vec3> tight{{0.0, 0.0, 0.0}, {std::nextafter(r, 11.0), 0.0, 0.0}};
  kernel.run(tight, r);
  EXPECT_TRUE(kernel.hits().empty());

  const std::vector<Vec3> exact{{0.0, 0.0, 0.0}, {r, 0.0, 0.0}};
  kernel.run(exact, r);
  ASSERT_EQ(kernel.hits().size(), 1u);
  EXPECT_EQ(std::sqrt(kernel.hits()[0].d2), r);
}

TEST(PairKernel, DuplicatePositionsPairAtZeroDistance) {
  const std::vector<Vec3> positions{{7.0, 7.0, 0.0}, {7.0, 7.0, 0.0}, {7.0, 7.0, 0.0}};
  PairKernel kernel;
  kernel.run(positions, 10.0);
  std::set<Pair> got;
  for (const auto& h : kernel.hits()) {
    EXPECT_EQ(h.d2, 0.0);
    got.insert({h.i, h.j});
  }
  EXPECT_EQ(got, (std::set<Pair>{{0, 1}, {0, 2}, {1, 2}}));
}

TEST(PairKernel, MatchesBruteForceDenseWithEmptyCells) {
  // Two tight clusters far apart: most grid cells in between are empty.
  Rng rng(11);
  std::vector<Vec3> positions;
  for (int i = 0; i < 60; ++i) {
    positions.push_back({rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0), 22.0});
  }
  for (int i = 0; i < 60; ++i) {
    positions.push_back({rng.uniform(900.0, 930.0), rng.uniform(900.0, 930.0), 22.0});
  }
  PairKernel kernel;
  EXPECT_EQ(kernel_pairs(kernel, positions, 10.0), brute_force(positions, 10.0));
}

TEST(PairKernel, MatchesBruteForceSparseFallback) {
  // Points scattered over a span of ~1e8 cells at r = 1: the dense cell
  // table would be enormous, so this exercises the sorted-key path,
  // including negative coordinates.
  Rng rng(12);
  std::vector<Vec3> positions;
  for (int c = 0; c < 40; ++c) {
    const double cx = rng.uniform(-5e7, 5e7);
    const double cy = rng.uniform(-5e7, 5e7);
    const int members = 1 + static_cast<int>(rng.uniform(0.0, 3.99));
    for (int m = 0; m < members; ++m) {
      positions.push_back({cx + rng.uniform(-1.5, 1.5), cy + rng.uniform(-1.5, 1.5), 0.0});
    }
  }
  PairKernel kernel;
  EXPECT_EQ(kernel_pairs(kernel, positions, 1.0), brute_force(positions, 1.0));
}

TEST(PairKernel, HugeFiniteCoordinateThrowsBeforeCasting) {
  // 1e30 / 10 is finite but far outside int64: the cell coordinate is
  // range-checked in double, so the kernel raises instead of casting (the
  // cast would be undefined behaviour, which UBSan's float-cast-overflow
  // check reports). The kernel stays usable afterwards.
  PairKernel kernel;
  for (const double huge : {1e30, -1e30, std::numeric_limits<double>::max()}) {
    const std::vector<Vec3> positions{{10.0, 10.0, 0.0}, {huge, 12.0, 0.0}};
    try {
      kernel.run(positions, 10.0);
      ADD_FAILURE() << "accepted x = " << huge;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "PairKernel: coordinate spread too large for radius");
    }
    const std::vector<Vec3> swapped{{10.0, 10.0, 0.0}, {12.0, huge, 0.0}};
    EXPECT_THROW(kernel.run(swapped, 10.0), std::invalid_argument) << huge;
  }
  const std::vector<Vec3> fine{{0.0, 0.0, 0.0}, {3.0, 4.0, 0.0}};
  EXPECT_EQ(kernel_pairs(kernel, fine, 10.0), brute_force(fine, 10.0));
}

TEST(PairKernel, ScratchReuseAcrossSnapshotsStaysExact) {
  // One kernel reused across snapshots of very different sizes and radii —
  // the persistent-scratch warm path must not leak state between runs.
  PairKernel kernel;
  Rng rng(13);
  for (const int count : {150, 3, 80, 0, 1, 200, 2}) {
    for (const double r : {1.0, 10.0, 80.0}) {
      std::vector<Vec3> positions;
      for (int i = 0; i < count; ++i) {
        positions.push_back({rng.uniform(-50.0, 300.0), rng.uniform(-50.0, 300.0), 22.0});
      }
      EXPECT_EQ(kernel_pairs(kernel, positions, r), brute_force(positions, r))
          << "count=" << count << " r=" << r;
    }
  }
}

TEST(PairKernel, ClassifyMatchesPerRadiusFilter) {
  Rng rng(14);
  std::vector<Vec3> positions;
  for (int i = 0; i < 200; ++i) {
    positions.push_back({rng.uniform(0.0, 256.0), rng.uniform(0.0, 256.0), 22.0});
  }
  const std::vector<double> ranges{10.0, 25.0, 80.0};
  PairKernel kernel;
  kernel.run(positions, ranges.back());
  std::vector<PairKernel::PairList> lists(ranges.size());
  kernel.classify(ranges, lists.data());
  for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
    std::set<Pair> got(lists[ri].begin(), lists[ri].end());
    ASSERT_EQ(got.size(), lists[ri].size());
    std::set<Pair> expected;
    for (const auto& [i, j, dbits] : brute_force(positions, ranges[ri])) {
      expected.insert({i, j});
    }
    EXPECT_EQ(got, expected) << "range " << ranges[ri];
  }
}

TEST(PairKernel, NearMatchesBruteForceScan) {
  Rng rng(15);
  std::vector<Vec3> positions;
  for (int i = 0; i < 120; ++i) {
    positions.push_back({rng.uniform(-20.0, 200.0), rng.uniform(-20.0, 200.0), 22.0});
  }
  const double r = 15.0;
  PairKernel kernel;
  kernel.build(positions, r);
  std::vector<std::uint32_t> got;
  for (int q = 0; q < 50; ++q) {
    // Query points both inside and well outside the built bounding box.
    const Vec3 p{rng.uniform(-100.0, 300.0), rng.uniform(-100.0, 300.0), 0.0};
    got.clear();
    kernel.near(p, got);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < positions.size(); ++i) {
      if (p.distance2d_to(positions[i]) <= r) expected.push_back(i);
    }
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(PairKernel, IncrementalDuplicateIdSnapshotMatchesBruteForce) {
  // A snapshot with two fixes sharing an avatar id: the kernel never keys by
  // id, so IncrementalProximity answers it like any other snapshot.
  Snapshot snap;
  snap.fixes.push_back({AvatarId{1}, {0.0, 0.0, 0.0}});
  snap.fixes.push_back({AvatarId{2}, {5.0, 0.0, 0.0}});
  snap.fixes.push_back({AvatarId{1}, {5.0, 4.0, 0.0}});
  snap.fixes.push_back({AvatarId{3}, {200.0, 200.0, 0.0}});
  IncrementalProximity prox({10.0});
  prox.advance(snap);
  std::set<Pair> got(prox.pairs(0).begin(), prox.pairs(0).end());
  std::set<Pair> expected;
  std::vector<Vec3> positions;
  for (const auto& f : snap.fixes) positions.push_back(f.pos);
  for (const auto& [i, j, dbits] : brute_force(positions, 10.0)) expected.insert({i, j});
  EXPECT_EQ(got, expected);
}

TEST(PairKernel, ParallelWorkersProduceIdenticalHits) {
  // Many kernels running concurrently (one per worker thread) must neither
  // race nor diverge — exercised under TSan in CI.
  Rng rng(17);
  std::vector<std::vector<Vec3>> snaps;
  for (int s = 0; s < 32; ++s) {
    std::vector<Vec3> positions;
    const int count = 20 + 10 * (s % 5);
    for (int i = 0; i < count; ++i) {
      positions.push_back({rng.uniform(0.0, 256.0), rng.uniform(0.0, 256.0), 22.0});
    }
    snaps.push_back(std::move(positions));
  }
  std::vector<std::set<DistPair>> sequential(snaps.size());
  {
    PairKernel kernel;
    for (std::size_t s = 0; s < snaps.size(); ++s) {
      sequential[s] = kernel_pairs(kernel, snaps[s], 80.0);
    }
  }
  std::vector<std::set<DistPair>> parallel_out(snaps.size());
  ThreadPool pool(4);
  parallel_for(pool, snaps.size(), [&](std::size_t s) {
    thread_local PairKernel kernel;
    parallel_out[s] = kernel_pairs(kernel, snaps[s], 80.0);
  });
  EXPECT_EQ(parallel_out, sequential);
}

class PairKernelProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double, int>> {};

TEST_P(PairKernelProperty, MatchesBruteForceWithDistances) {
  const auto [seed, radius, count] = GetParam();
  Rng rng(seed);
  std::vector<Vec3> positions;
  for (int i = 0; i < count; ++i) {
    positions.push_back({rng.uniform(-50.0, 300.0), rng.uniform(-50.0, 300.0), 22.0});
  }
  PairKernel kernel;
  EXPECT_EQ(kernel_pairs(kernel, positions, radius), brute_force(positions, radius));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PairKernelProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Values(1.0, 10.0, 80.0),
                       ::testing::Values(2, 25, 150)));

}  // namespace
}  // namespace slmob
