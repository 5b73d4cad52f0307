#include "analysis/trips.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace slmob {
namespace {

// The trips of `t` as the analysis engine computes them, on one thread.
TripAnalysis trips_of(const Trace& t) {
  return analyze_trace(t, {}, kDefaultLandSize, 1).trips;
}

TEST(Trips, EmptyTrace) {
  const Trace t("x", 10.0);
  const TripAnalysis a = trips_of(t);
  EXPECT_EQ(a.sessions, 0u);
  EXPECT_TRUE(a.travel_lengths.empty());
}

TEST(Trips, OneMovingUser) {
  Trace t("x", 10.0);
  for (int i = 0; i < 4; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    s.fixes = {{AvatarId{1}, {i * 20.0, 0.0, 22.0}}};  // 20 m per interval
    t.add(std::move(s));
  }
  const TripAnalysis a = trips_of(t);
  ASSERT_EQ(a.sessions, 1u);
  EXPECT_DOUBLE_EQ(a.travel_lengths.median(), 60.0);
  EXPECT_DOUBLE_EQ(a.effective_travel_times.median(), 30.0);
  EXPECT_DOUBLE_EQ(a.travel_times.median(), 30.0);
}

TEST(Trips, PausesExcludedFromEffectiveTime) {
  Trace t("x", 10.0);
  const double xs[] = {0.0, 20.0, 20.0, 20.0, 40.0};  // move, pause x2, move
  for (int i = 0; i < 5; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    s.fixes = {{AvatarId{1}, {xs[i], 0.0, 22.0}}};
    t.add(std::move(s));
  }
  const TripAnalysis a = trips_of(t);
  EXPECT_DOUBLE_EQ(a.travel_times.median(), 40.0);
  EXPECT_DOUBLE_EQ(a.effective_travel_times.median(), 20.0);
  EXPECT_DOUBLE_EQ(a.travel_lengths.median(), 40.0);
}

TEST(Trips, SessionsSplitAcrossGaps) {
  Trace t("x", 10.0);
  const Seconds times[] = {0.0, 10.0, 100.0, 110.0};  // 90 s gap: two sessions
  for (const Seconds time : times) {
    Snapshot s;
    s.time = time;
    s.fixes = {{AvatarId{1}, {time, 0.0, 22.0}}};
    t.add(std::move(s));
  }
  const TripAnalysis a = trips_of(t);
  EXPECT_EQ(a.sessions, 2u);
}

TEST(Trips, PerUserSamplesIndependent) {
  Trace t("x", 10.0);
  for (int i = 0; i < 3; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},           // stationary
               {AvatarId{2}, {i * 30.0, 0.0, 22.0}}};     // fast mover
    t.add(std::move(s));
  }
  const TripAnalysis a = trips_of(t);
  ASSERT_EQ(a.sessions, 2u);
  EXPECT_DOUBLE_EQ(a.travel_lengths.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.travel_lengths.max(), 60.0);
}

}  // namespace
}  // namespace slmob
