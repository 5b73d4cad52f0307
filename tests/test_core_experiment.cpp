#include "core/experiment.hpp"

#include <gtest/gtest.h>

namespace slmob {
namespace {

ExperimentConfig short_config(LandArchetype archetype, std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.archetype = archetype;
  cfg.duration = kSecondsPerHour;  // 1 h keeps the test quick
  cfg.seed = seed;
  return cfg;
}

TEST(Experiment, ProducesAllAnalyses) {
  const ExperimentResults res = run_experiment(short_config(LandArchetype::kDanceIsland));
  EXPECT_GT(res.analysis.summary.snapshot_count, 300u);
  EXPECT_GT(res.analysis.summary.unique_users, 20u);
  ASSERT_EQ(res.analysis.contacts.size(), 2u);
  ASSERT_EQ(res.analysis.graphs.size(), 2u);
  EXPECT_TRUE(res.analysis.contacts.contains(kBluetoothRange));
  EXPECT_TRUE(res.analysis.contacts.contains(kWifiRange));
  EXPECT_FALSE(res.analysis.contacts.at(kBluetoothRange).contact_times.empty());
  EXPECT_FALSE(res.analysis.trips.travel_times.empty());
  EXPECT_GT(res.analysis.zones.cells_per_side, 0u);
  EXPECT_GT(res.crawler_stats.snapshots_taken, 0u);
  EXPECT_GT(res.network_stats.sent, 0u);
}

TEST(Experiment, DeterministicForSeed) {
  const ExperimentResults a = run_experiment(short_config(LandArchetype::kApfelLand, 5));
  const ExperimentResults b = run_experiment(short_config(LandArchetype::kApfelLand, 5));
  EXPECT_EQ(a.analysis.summary.unique_users, b.analysis.summary.unique_users);
  EXPECT_DOUBLE_EQ(a.analysis.summary.avg_concurrent, b.analysis.summary.avg_concurrent);
  EXPECT_EQ(a.analysis.contacts.at(kBluetoothRange).intervals.size(),
            b.analysis.contacts.at(kBluetoothRange).intervals.size());
}

TEST(Experiment, SeedsChangeOutcome) {
  const ExperimentResults a = run_experiment(short_config(LandArchetype::kApfelLand, 1));
  const ExperimentResults b = run_experiment(short_config(LandArchetype::kApfelLand, 2));
  EXPECT_NE(a.analysis.contacts.at(kBluetoothRange).intervals.size(),
            b.analysis.contacts.at(kBluetoothRange).intervals.size());
}

TEST(Experiment, GroundTruthAnalysisMode) {
  // A rig without a crawler analyses the ground-truth recorder's trace.
  ExperimentConfig cfg = short_config(LandArchetype::kDanceIsland);
  cfg.testbed.with_crawler = false;
  cfg.testbed.with_ground_truth = true;
  const ExperimentResults res = run_experiment(cfg);
  EXPECT_GT(res.analysis.summary.snapshot_count, 0u);
  // Ground-truth positions are not metre-quantised.
  bool fractional_found = false;
  for (const auto& snap : res.trace.snapshots()) {
    for (const auto& fix : snap.fixes) {
      if (fix.pos.x != std::floor(fix.pos.x)) fractional_found = true;
    }
  }
  EXPECT_TRUE(fractional_found);
}

TEST(Experiment, WifiContactsDominateBluetooth) {
  const ExperimentResults res = run_experiment(short_config(LandArchetype::kIsleOfView));
  const auto& bt = res.analysis.contacts.at(kBluetoothRange);
  const auto& wifi = res.analysis.contacts.at(kWifiRange);
  // A superset radius yields at least as much total contact time.
  double bt_total = 0.0;
  double wifi_total = 0.0;
  for (const auto& c : bt.intervals) bt_total += c.duration();
  for (const auto& c : wifi.intervals) wifi_total += c.duration();
  EXPECT_GT(wifi_total, bt_total);
  // And no user has fewer first contacts.
  EXPECT_GE(wifi.users_with_contact, bt.users_with_contact);
}

TEST(Experiment, AnalyzeTraceStandalone) {
  Trace t("hand", 10.0);
  for (int i = 0; i < 10; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    s.fixes = {{AvatarId{1}, {i * 2.0, 0.0, 22.0}}, {AvatarId{2}, {i * 2.0 + 5.0, 0.0, 22.0}}};
    t.add(std::move(s));
  }
  const AnalysisReport res = analyze_trace(t, {10.0});
  EXPECT_EQ(res.summary.unique_users, 2u);
  EXPECT_EQ(res.contacts.at(10.0).intervals.size(), 1u);
  EXPECT_EQ(res.trips.sessions, 2u);
}

TEST(Experiment, CuriosityPerturbationBiasesNaiveCrawler) {
  // A naive (non-mimicking) crawler attracts users; with mimicry the trace
  // matches the unperturbed world. This is the §2 effect of the paper.
  ExperimentConfig naive = short_config(LandArchetype::kApfelLand, 11);
  naive.duration = 2.0 * kSecondsPerHour;
  naive.testbed.crawler.mimicry.enabled = false;
  CuriosityParams curiosity;
  curiosity.enabled = true;
  curiosity.approach_probability = 0.5;
  naive.testbed.curiosity = curiosity;
  const ExperimentResults biased = run_experiment(naive);

  ExperimentConfig mimic = naive;
  mimic.testbed.crawler.mimicry.enabled = true;
  const ExperimentResults clean = run_experiment(mimic);

  // The crawler sits at the spawn point; users converging on it inflate
  // contact counts near that location (they pile on one spot).
  const auto biased_zone = biased.analysis.zones.max_occupancy;
  const auto clean_zone = clean.analysis.zones.max_occupancy;
  EXPECT_GT(biased_zone, clean_zone);
}

}  // namespace
}  // namespace slmob
