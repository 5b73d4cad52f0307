#include "core/report.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace slmob {
namespace {

ExperimentResults quick_results() {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kDanceIsland;
  cfg.duration = 0.5 * kSecondsPerHour;
  cfg.seed = 8;
  return run_experiment(cfg);
}

TEST(Report, ContainsAllSections) {
  const std::string report = render_report(quick_results());
  EXPECT_NE(report.find("# Mobility measurement report: Dance"), std::string::npos);
  EXPECT_NE(report.find("## Trace"), std::string::npos);
  EXPECT_NE(report.find("## Contact opportunities"), std::string::npos);
  EXPECT_NE(report.find("## Line-of-sight networks"), std::string::npos);
  EXPECT_NE(report.find("## Space and trips"), std::string::npos);
  EXPECT_NE(report.find("contact time (r=10m, s)"), std::string::npos);
  EXPECT_NE(report.find("contact time (r=80m, s)"), std::string::npos);
  EXPECT_NE(report.find("travel length (m)"), std::string::npos);
}

TEST(Report, TransportSectionSurfacesCircuitAndNetworkStats) {
  const ExperimentResults res = quick_results();
  const std::string report = render_report(res);
  EXPECT_NE(report.find("## Transport"), std::string::npos);
  EXPECT_NE(report.find("| datagrams sent | "), std::string::npos);
  EXPECT_NE(report.find("| retransmits | "), std::string::npos);
  EXPECT_NE(report.find("| RTT samples | "), std::string::npos);
  // A real crawler run moves real packets; the section must not be all-zero.
  EXPECT_GT(res.circuit_stats.packets_sent, 0u);
  EXPECT_GT(res.circuit_stats.rtt_samples, 0u);
  EXPECT_GT(res.network_stats.sent, 0u);
}

TEST(Report, ShardStatsCsvOneRowPerShard) {
  std::vector<ShardResult> shards(2);
  shards[0].archetype = LandArchetype::kApfelLand;
  shards[0].seed = 1;
  shards[0].circuit_stats.retransmits = 7;
  shards[0].network_stats.fault_dropped = 13;
  shards[1].archetype = LandArchetype::kDanceIsland;
  shards[1].seed = 2;
  const std::string csv = shard_stats_csv(shards);

  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 shards
  EXPECT_NE(csv.find("retransmits"), std::string::npos);
  EXPECT_NE(csv.find("net_fault_dropped"), std::string::npos);
  EXPECT_NE(csv.find("Apfelland,1,"), std::string::npos);
  EXPECT_NE(csv.find(",7,"), std::string::npos);
}

TEST(Report, SeriesOptIn) {
  const ExperimentResults res = quick_results();
  EXPECT_EQ(render_report(res).find("<details>"), std::string::npos);
  ReportOptions options;
  options.include_series = true;
  EXPECT_NE(render_report(res, options).find("<details>"), std::string::npos);
}

TEST(Report, HandlesEmptyResults) {
  // An empty trace analysed directly must not crash the renderer.
  ExperimentResults res;
  res.trace = Trace("empty", 10.0);
  res.analysis = analyze_trace(res.trace, {10.0});
  const std::string report = render_report(res);
  EXPECT_NE(report.find("| unique visitors | 0 |"), std::string::npos);
  EXPECT_NE(report.find("| contact time (r=10m, s) | 0 | - |"), std::string::npos);
}

TEST(Report, WriteToFile) {
  const std::string path = ::testing::TempDir() + "/slmob_report_test.md";
  write_report(quick_results(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("# Mobility measurement report"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

TEST(Report, WriteToBadPathThrows) {
  EXPECT_THROW(write_report(quick_results(), "/nonexistent/dir/report.md"),
               std::runtime_error);
}

}  // namespace
}  // namespace slmob
