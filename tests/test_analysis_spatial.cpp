#include "analysis/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/rng.hpp"

namespace slmob {
namespace {

using Pair = std::pair<std::uint32_t, std::uint32_t>;

std::set<Pair> brute_force_pairs(const std::vector<Vec3>& positions, double r) {
  std::set<Pair> out;
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    for (std::uint32_t j = i + 1; j < positions.size(); ++j) {
      if (positions[i].distance2d_to(positions[j]) <= r) out.insert({i, j});
    }
  }
  return out;
}

TEST(SpatialGrid, EmptyInput) {
  const std::vector<Vec3> positions;
  const SpatialGrid grid(positions, 10.0);
  EXPECT_TRUE(grid.pairs_within().empty());
}

TEST(SpatialGrid, SimpleKnownPairs) {
  const std::vector<Vec3> positions{
      {0.0, 0.0, 0.0}, {5.0, 0.0, 0.0}, {100.0, 100.0, 0.0}};
  const SpatialGrid grid(positions, 10.0);
  const auto pairs = grid.pairs_within();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
}

TEST(SpatialGrid, BoundaryInclusive) {
  const std::vector<Vec3> positions{{0.0, 0.0, 0.0}, {10.0, 0.0, 0.0}};
  const SpatialGrid grid(positions, 10.0);
  EXPECT_EQ(grid.pairs_within().size(), 1u);
}

TEST(SpatialGrid, IgnoresAltitude) {
  const std::vector<Vec3> positions{{0.0, 0.0, 0.0}, {3.0, 0.0, 500.0}};
  const SpatialGrid grid(positions, 10.0);
  EXPECT_EQ(grid.pairs_within().size(), 1u);
}

TEST(SpatialGrid, NearPointMatchesBruteForce) {
  // Integer coordinates keep every distance exact, so the query points set
  // at a (9, 12) or (-15, 0) offset from an indexed position sit exactly on
  // the 15 m radius and must be answered inclusively.
  constexpr double kRadius = 15.0;
  Rng rng(3);
  std::vector<Vec3> positions;
  for (int i = 0; i < 100; ++i) {
    positions.push_back({static_cast<double>(rng.uniform_int(0, 256)),
                         static_cast<double>(rng.uniform_int(0, 256)), 22.0});
  }
  const SpatialGrid grid(positions, kRadius);
  std::vector<Vec3> queries;
  for (int q = 0; q < 100; ++q) {
    queries.push_back({rng.uniform(-50.0, 300.0), rng.uniform(-50.0, 300.0), 0.0});
  }
  for (std::size_t i = 0; i < positions.size(); i += 3) {
    queries.push_back(positions[i] + Vec3{9.0, 12.0, 0.0});
    queries.push_back(positions[i] + Vec3{-15.0, 0.0, 0.0});
  }
  std::vector<std::uint32_t> got;
  std::size_t on_boundary = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    got.clear();
    grid.near_point(queries[q], got);
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < positions.size(); ++i) {
      const double d = queries[q].distance2d_to(positions[i]);
      if (d <= kRadius) expected.push_back(i);
      if (d == kRadius) ++on_boundary;
    }
    EXPECT_EQ(got, expected) << "query " << q;
  }
  EXPECT_GT(on_boundary, 0u);
}

TEST(SpatialGrid, ThrowsOnBadInput) {
  const std::vector<Vec3> positions{{0, 0, 0}};
  EXPECT_THROW(SpatialGrid(positions, 0.0), std::invalid_argument);
}

class SpatialGridProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double, int>> {};

TEST_P(SpatialGridProperty, MatchesBruteForce) {
  const auto [seed, radius, count] = GetParam();
  Rng rng(seed);
  std::vector<Vec3> positions;
  for (int i = 0; i < count; ++i) {
    positions.push_back({rng.uniform(-50.0, 300.0), rng.uniform(-50.0, 300.0), 22.0});
  }
  const SpatialGrid grid(positions, radius);
  auto pairs = grid.pairs_within();
  std::set<Pair> got(pairs.begin(), pairs.end());
  EXPECT_EQ(got.size(), pairs.size()) << "duplicate pairs reported";
  EXPECT_EQ(got, brute_force_pairs(positions, radius));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpatialGridProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Values(1.0, 10.0, 80.0),
                       ::testing::Values(2, 25, 150)));

}  // namespace
}  // namespace slmob
