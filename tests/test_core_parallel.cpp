// Thread-count independence of analyze_trace: the report is the golden one
// at every thread count, repeated runs agree, and range lists are
// normalised (deduplicated, possibly empty).
#include <gtest/gtest.h>

#include <string>

#include "analysis_goldens.hpp"
#include "core/experiment.hpp"

namespace slmob {
namespace {

void expect_same_report(const AnalysisReport& a, const AnalysisReport& b) {
  const std::string diff = analysis_diff(a, b);
  EXPECT_TRUE(diff.empty()) << diff;
}

TEST(ParallelAnalysis, IdenticalResultsFor1And2And8Threads) {
  const Trace trace = golden::gap_free_trace();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const AnalysisReport report =
        analyze_trace(trace, {kBluetoothRange, kWifiRange}, kDefaultLandSize, threads);
    // Non-trivial workload sanity: something to actually compare.
    ASSERT_FALSE(report.graphs.at(kWifiRange).degrees.empty());
    EXPECT_EQ(analysis_fingerprint(report), golden::kGapFree) << "threads " << threads;
  }
}

TEST(ParallelAnalysis, RepeatedRunsAtSameThreadCountAreIdentical) {
  const Trace trace = golden::seeded_trace(7, 60, 40);
  const auto run = [&] {
    return analyze_trace(trace, {kBluetoothRange, kWifiRange}, kDefaultLandSize, 4);
  };
  expect_same_report(run(), run());
}

TEST(ParallelAnalysis, SingleRangeAndEmptyRanges) {
  const Trace trace = golden::seeded_trace(3, 30, 20);
  const AnalysisReport single = analyze_trace(trace, {10.0}, kDefaultLandSize, 4);
  EXPECT_EQ(single.contacts.size(), 1u);
  EXPECT_EQ(single.graphs.size(), 1u);
  const AnalysisReport none = analyze_trace(trace, {}, kDefaultLandSize, 4);
  EXPECT_TRUE(none.contacts.empty());
  EXPECT_TRUE(none.graphs.empty());
  EXPECT_FALSE(none.zones.mean_per_cell.empty());
}

TEST(ParallelAnalysis, DuplicateRangesCollapse) {
  const Trace trace = golden::seeded_trace(5, 20, 20);
  const AnalysisReport res = analyze_trace(trace, {10.0, 10.0, 80.0}, kDefaultLandSize, 4);
  EXPECT_EQ(res.contacts.size(), 2u);
  EXPECT_EQ(res.graphs.size(), 2u);
}

TEST(ParallelAnalysis, ExperimentConfigThreadsPlumbing) {
  // run_experiment with explicit analysis_threads matches the default.
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kApfelLand;
  cfg.duration = 0.5 * kSecondsPerHour;
  cfg.seed = 17;
  const ExperimentResults def = run_experiment(cfg);
  cfg.analysis_threads = 2;
  const ExperimentResults two = run_experiment(cfg);
  expect_same_report(def.analysis, two.analysis);
}

}  // namespace
}  // namespace slmob
