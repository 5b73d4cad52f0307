#include "trace/trace.hpp"

#include <gtest/gtest.h>

namespace slmob {
namespace {

Snapshot snap(Seconds t, std::initializer_list<std::pair<std::uint32_t, Vec3>> fixes) {
  Snapshot s;
  s.time = t;
  for (const auto& [id, pos] : fixes) s.fixes.push_back({AvatarId{id}, pos});
  return s;
}

TEST(Trace, EmptySummary) {
  const Trace t("x", 10.0);
  const TraceSummary s = t.summary();
  EXPECT_EQ(s.unique_users, 0u);
  EXPECT_EQ(s.snapshot_count, 0u);
  EXPECT_EQ(s.avg_concurrent, 0.0);
}

TEST(Trace, RejectsOutOfOrderSnapshots) {
  Trace t("x", 10.0);
  t.add(snap(10.0, {}));
  EXPECT_THROW(t.add(snap(5.0, {})), std::invalid_argument);
  EXPECT_NO_THROW(t.add(snap(10.0, {})));  // equal times allowed
}

TEST(Trace, SummaryCountsUniqueAndConcurrent) {
  Trace t("x", 10.0);
  t.add(snap(0.0, {{1, {1, 1, 0}}, {2, {2, 2, 0}}}));
  t.add(snap(10.0, {{2, {3, 3, 0}}, {3, {4, 4, 0}}}));
  const TraceSummary s = t.summary();
  EXPECT_EQ(s.unique_users, 3u);
  EXPECT_DOUBLE_EQ(s.avg_concurrent, 2.0);
  EXPECT_EQ(s.max_concurrent, 2u);
  EXPECT_DOUBLE_EQ(s.duration, 10.0);
}

TEST(Trace, AddGapValidation) {
  Trace t("x", 10.0);
  EXPECT_THROW(t.add_gap(10.0, 10.0), std::invalid_argument);   // empty
  EXPECT_THROW(t.add_gap(20.0, 10.0), std::invalid_argument);   // reversed
  t.add_gap(10.0, 20.0);
  EXPECT_THROW(t.add_gap(15.0, 25.0), std::invalid_argument);   // overlaps
  EXPECT_THROW(t.add_gap(5.0, 8.0), std::invalid_argument);     // out of order
  EXPECT_NO_THROW(t.add_gap(20.0, 30.0));                       // abutting is fine
  EXPECT_EQ(t.gaps().size(), 2u);
}

TEST(Trace, CoverageQueriesAreHalfOpen) {
  Trace t("x", 10.0);
  t.add_gap(100.0, 200.0);
  EXPECT_TRUE(t.covered_at(99.9));
  EXPECT_FALSE(t.covered_at(100.0));
  EXPECT_FALSE(t.covered_at(199.9));
  EXPECT_TRUE(t.covered_at(200.0));

  EXPECT_FALSE(t.spans_gap(0.0, 100.0));   // ends exactly at gap start
  EXPECT_TRUE(t.spans_gap(0.0, 100.1));
  EXPECT_TRUE(t.spans_gap(150.0, 160.0));  // inside the gap
  EXPECT_FALSE(t.spans_gap(200.0, 300.0)); // starts exactly at gap end
  EXPECT_DOUBLE_EQ(t.gap_seconds(), 100.0);
}

TEST(Trace, SummaryReportsGaps) {
  Trace t("x", 10.0);
  t.add(snap(0.0, {{1, {}}}));
  t.add(snap(300.0, {{1, {}}}));
  t.add_gap(100.0, 200.0);
  t.add_gap(250.0, 280.0);
  const TraceSummary s = t.summary();
  EXPECT_EQ(s.gap_count, 2u);
  EXPECT_DOUBLE_EQ(s.gap_seconds, 130.0);
}

TEST(Trace, StripSittingFixesRemovesOriginOnly) {
  Trace t("x", 10.0);
  t.add(snap(0.0, {{1, {0.0, 0.0, 0.0}}, {2, {5.0, 5.0, 22.0}}}));
  const std::size_t dropped = t.strip_sitting_fixes();
  EXPECT_EQ(dropped, 1u);
  ASSERT_EQ(t.snapshots().front().fixes.size(), 1u);
  EXPECT_EQ(t.snapshots().front().fixes.front().id.value, 2u);
}

}  // namespace
}  // namespace slmob
