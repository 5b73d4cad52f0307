#include "analysis/zones.hpp"

#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "core/experiment.hpp"

namespace slmob {
namespace {

// The zones of `t` as the analysis engine computes them, on one thread, for
// a 256 m land in 20 m cells.
ZoneAnalysis zones_of(const Trace& t) {
  return analyze_trace(t, {}, kDefaultLandSize, 1).zones;
}

TEST(Zones, GridDimensions) {
  Trace t("x", 10.0);
  t.add(Snapshot{0.0, {}});
  const ZoneAnalysis z = zones_of(t);
  EXPECT_EQ(z.cells_per_side, 13u);  // ceil(256/20)
  EXPECT_EQ(z.mean_per_cell.size(), 169u);
}

TEST(Zones, AllCellsEmptyWithoutUsers) {
  Trace t("x", 10.0);
  t.add(Snapshot{0.0, {}});
  const ZoneAnalysis z = zones_of(t);
  EXPECT_DOUBLE_EQ(z.empty_fraction, 1.0);
  EXPECT_EQ(z.max_occupancy, 0u);
}

TEST(Zones, CountsUsersPerCell) {
  Trace t("x", 10.0);
  Snapshot s;
  s.time = 0.0;
  // Three users in cell (0,0), one in cell (1,0).
  s.fixes = {{AvatarId{1}, {5.0, 5.0, 22.0}},
             {AvatarId{2}, {6.0, 6.0, 22.0}},
             {AvatarId{3}, {19.9, 19.9, 22.0}},
             {AvatarId{4}, {25.0, 5.0, 22.0}}};
  t.add(std::move(s));
  const ZoneAnalysis z = zones_of(t);
  EXPECT_EQ(z.max_occupancy, 3u);
  EXPECT_DOUBLE_EQ(z.mean_per_cell[0], 3.0);
  EXPECT_DOUBLE_EQ(z.mean_per_cell[1], 1.0);
  EXPECT_DOUBLE_EQ(z.empty_fraction, 167.0 / 169.0);
  // The occupancy ECDF has one sample per cell per snapshot.
  EXPECT_EQ(z.occupancy.size(), 169u);
}

TEST(Zones, MeanAveragesOverSnapshots) {
  Trace t("x", 10.0);
  Snapshot s1;
  s1.time = 0.0;
  s1.fixes = {{AvatarId{1}, {5.0, 5.0, 22.0}}};
  Snapshot s2;
  s2.time = 10.0;
  // cell empties in the second snapshot
  t.add(std::move(s1));
  t.add(std::move(s2));
  const ZoneAnalysis z = zones_of(t);
  EXPECT_DOUBLE_EQ(z.mean_per_cell[0], 0.5);
}

TEST(Zones, OutOfRangePositionsClamped) {
  Trace t("x", 10.0);
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {-5.0, 500.0, 22.0}}};
  t.add(std::move(s));
  const ZoneAnalysis z = zones_of(t);
  EXPECT_EQ(z.max_occupancy, 1u);  // counted in an edge cell, not lost
}

TEST(Zones, OccupancyCdfMatchesEmptyFraction) {
  Trace t("x", 10.0);
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {5.0, 5.0, 22.0}}, {AvatarId{2}, {100.0, 100.0, 22.0}}};
  t.add(std::move(s));
  const ZoneAnalysis z = zones_of(t);
  EXPECT_DOUBLE_EQ(z.occupancy.cdf(0.0), z.empty_fraction);
  EXPECT_DOUBLE_EQ(z.occupancy.cdf(10.0), 1.0);
}

TEST(Zones, UncoveredSnapshotsExcludedFromMean) {
  Trace t("x", 10.0);
  Snapshot s1;
  s1.time = 0.0;
  s1.fixes = {{AvatarId{1}, {5.0, 5.0, 22.0}}};
  Snapshot s2;
  s2.time = 10.0;  // inside the gap: occupancy here is unknown, not zero
  Snapshot s3;
  s3.time = 20.0;
  s3.fixes = {{AvatarId{1}, {5.0, 5.0, 22.0}}};
  t.add(std::move(s1));
  t.add(std::move(s2));
  t.add(std::move(s3));
  t.add_gap(5.0, 15.0);
  const ZoneAnalysis z = zones_of(t);
  // Mean divides by the 2 covered snapshots, not all 3.
  EXPECT_DOUBLE_EQ(z.mean_per_cell[0], 1.0);
  EXPECT_EQ(z.occupancy.size(), 2u * 169u);
}

TEST(Zones, BadArgsThrow) {
  const Trace t("x", 10.0);
  EXPECT_THROW((void)analyze_trace(t, {}, 0.0, 1), std::invalid_argument);
  StreamingOptions options;
  options.zone_cell_size = -1.0;
  MemoryTraceStream stream(t);
  EXPECT_THROW((void)analyze_stream(stream, options), std::invalid_argument);
}

}  // namespace
}  // namespace slmob
