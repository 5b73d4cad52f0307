#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace slmob {
namespace {

TEST(Testbed, WiresAllComponents) {
  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kApfelLand;
  cfg.seed = 1;
  cfg.with_ground_truth = true;
  Testbed bed(cfg);
  EXPECT_NE(bed.crawler(), nullptr);
  EXPECT_NE(bed.client(), nullptr);
  EXPECT_NE(bed.ground_truth(), nullptr);
  EXPECT_EQ(bed.world().land().name(), "Apfelland");
  EXPECT_EQ(bed.engine().now(), 0.0);
}

TEST(Testbed, CrawlerlessRig) {
  TestbedConfig cfg;
  cfg.with_crawler = false;
  cfg.with_ground_truth = true;
  Testbed bed(cfg);
  EXPECT_EQ(bed.crawler(), nullptr);
  EXPECT_EQ(bed.client(), nullptr);
  bed.run_until(120.0);
  EXPECT_GT(bed.ground_truth()->trace().size(), 5u);
}

TEST(Testbed, RunUntilAdvancesClock) {
  TestbedConfig cfg;
  cfg.seed = 2;
  Testbed bed(cfg);
  bed.run_until(60.0);
  EXPECT_DOUBLE_EQ(bed.engine().now(), 60.0);
  bed.run_until(120.0);
  EXPECT_DOUBLE_EQ(bed.engine().now(), 120.0);
}

TEST(Testbed, CrawlerLogsInAutomatically) {
  TestbedConfig cfg;
  cfg.seed = 3;
  Testbed bed(cfg);
  bed.run_until(30.0);
  EXPECT_TRUE(bed.client()->connected());
  // The crawler's avatar is in the world as an externally controlled one.
  const auto avatar = bed.world().find(AvatarId{bed.client()->agent_id()});
  ASSERT_TRUE(avatar.has_value());
  EXPECT_TRUE(avatar->externally_controlled);
}

TEST(Testbed, CuriosityOverrideApplied) {
  TestbedConfig cfg;
  CuriosityParams curiosity;
  curiosity.enabled = false;
  cfg.curiosity = curiosity;
  Testbed bed(cfg);
  EXPECT_FALSE(bed.world().curiosity().enabled);
}

TEST(Testbed, GroundTruthIntervalRespected) {
  TestbedConfig cfg;
  cfg.with_ground_truth = true;
  cfg.ground_truth_interval = 30.0;
  Testbed bed(cfg);
  bed.run_until(300.0);
  const auto& snaps = bed.ground_truth()->trace().snapshots();
  ASSERT_GE(snaps.size(), 2u);
  EXPECT_NEAR(snaps[1].time - snaps[0].time, 30.0, 1e-9);
}

TEST(Testbed, TakeTraceReturnsTheCrawlersTrace) {
  // With both recorders, the crawler's trace is the rig's trace.
  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kDanceIsland;
  cfg.seed = 4;
  cfg.with_ground_truth = true;
  Testbed bed(cfg);
  bed.run_until(300.0);
  const std::size_t crawled = bed.crawler()->trace().size();
  ASSERT_GT(crawled, 5u);
  const Trace trace = bed.take_trace();
  EXPECT_EQ(trace.size(), crawled);
  EXPECT_EQ(bed.crawler()->trace().size(), 0u);  // handed over
  EXPECT_GT(bed.ground_truth()->trace().size(), 5u);
  // The crawler reads the minimap feed, whose positions are whole metres.
  for (const auto& snap : trace.snapshots()) {
    for (const auto& fix : snap.fixes) EXPECT_EQ(fix.pos.x, std::floor(fix.pos.x));
  }
}

TEST(Testbed, TakeTraceOnAGroundTruthOnlyRigReturnsTheRecordersTrace) {
  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kDanceIsland;
  cfg.seed = 4;
  cfg.with_crawler = false;
  cfg.with_ground_truth = true;
  Testbed bed(cfg);
  bed.run_until(300.0);
  const Trace trace = bed.take_trace();
  ASSERT_GT(trace.size(), 5u);
  // Ground-truth positions are not metre-quantised.
  bool fractional_found = false;
  for (const auto& snap : trace.snapshots()) {
    for (const auto& fix : snap.fixes) {
      if (fix.pos.x != std::floor(fix.pos.x)) fractional_found = true;
    }
  }
  EXPECT_TRUE(fractional_found);
}

TEST(Testbed, TakeTraceWithoutARecorderThrows) {
  TestbedConfig cfg;
  cfg.with_crawler = false;
  Testbed bed(cfg);
  bed.run_until(30.0);
  EXPECT_THROW((void)bed.take_trace(), std::logic_error);
}

}  // namespace
}  // namespace slmob
