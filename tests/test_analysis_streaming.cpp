// Streaming <-> batch equivalence: StreamingAnalyzer must reproduce the
// batch pipeline's AnalysisReport bit for bit — every Ecdf sample, interval
// and scalar — on gap-free and gapped traces, on every land archetype, under
// fault scenarios, on a salvaged torn journal, and at any thread count.
// Failures print analysis_diff, which names the first differing field.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

// Avatars random-walking around two hotspots with churn, so every analysis
// produces non-trivial output (same generator as test_core_parallel).
Trace seeded_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  std::vector<Vec3> pos(users);
  std::vector<bool> online(users, false);
  for (std::size_t u = 0; u < users; ++u) {
    const double cx = (u % 2 == 0) ? 64.0 : 192.0;
    pos[u] = {cx + rng.uniform(-30.0, 30.0), 128.0 + rng.uniform(-30.0, 30.0), 22.0};
    online[u] = rng.uniform(0.0, 1.0) < 0.7;
  }
  Trace t("streaming-golden", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.02) online[u] = !online[u];
      if (!online[u]) continue;
      pos[u].x = std::clamp(pos[u].x + rng.uniform(-5.0, 5.0), 0.0, 255.0);
      pos[u].y = std::clamp(pos[u].y + rng.uniform(-5.0, 5.0), 0.0, 255.0);
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)}, pos[u]});
    }
    t.add(std::move(snap));
  }
  return t;
}

AnalysisReport batch_report(const Trace& trace, std::size_t threads = 1) {
  return to_analysis_report(
      analyze_trace(Trace(trace), {kBluetoothRange, kWifiRange}, kDefaultLandSize, threads));
}

AnalysisReport stream_report(const Trace& trace, StreamingOptions options = {}) {
  MemoryTraceStream stream(trace);
  return analyze_stream(stream, options);
}

void expect_equivalent(const AnalysisReport& batch, const AnalysisReport& streamed) {
  const std::string diff = analysis_diff(batch, streamed);
  EXPECT_TRUE(diff.empty()) << diff;
  EXPECT_EQ(analysis_fingerprint(batch), analysis_fingerprint(streamed));
}

TEST(StreamingEquivalence, GapFreeTraceAt1And2And4Threads) {
  const Trace trace = seeded_trace(99, 120, 60);
  const AnalysisReport batch = batch_report(trace);
  ASSERT_FALSE(batch.contacts.at(kBluetoothRange).contact_times.empty());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    StreamingOptions opt;
    opt.threads = threads;
    expect_equivalent(batch, stream_report(trace, opt));
  }
}

TEST(StreamingEquivalence, GappedTraceAt1And2And4Threads) {
  Trace trace = seeded_trace(7, 150, 50);
  trace.add_gap(295.0, 355.0);
  trace.add_gap(820.0, 900.0);
  const AnalysisReport batch = batch_report(trace);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    StreamingOptions opt;
    opt.threads = threads;
    expect_equivalent(batch, stream_report(trace, opt));
  }
}

TEST(StreamingEquivalence, BatchThreadCountDoesNotMatterEither) {
  Trace trace = seeded_trace(13, 80, 40);
  trace.add_gap(205.0, 245.0);
  expect_equivalent(batch_report(trace, 4), stream_report(trace));
}

TEST(StreamingEquivalence, StripSittingFixesMatchesWholeTraceStrip) {
  // A trace with origin fixes: streaming's per-snapshot strip must equal
  // Trace::strip_sitting_fixes on the whole trace before batch analysis.
  Trace trace = seeded_trace(21, 60, 30);
  Trace polluted(trace.land_name(), trace.sampling_interval());
  for (const auto& snap : trace.snapshots()) {
    Snapshot copy = snap;
    copy.fixes.push_back({AvatarId{9999}, {0.0, 0.0, 0.0}});
    polluted.add(std::move(copy));
  }
  Trace stripped = polluted;  // deep copy, then strip whole-trace
  stripped.strip_sitting_fixes();
  StreamingOptions opt;
  opt.strip_sitting_fixes = true;
  expect_equivalent(batch_report(stripped), stream_report(polluted, opt));
}

// One run_experiment per land / scenario, shared across tests.
struct GoldenRun {
  ExperimentResults results;
};

const GoldenRun& golden_run(LandArchetype archetype, const std::string& scenario) {
  static std::map<std::pair<int, std::string>, GoldenRun> cache;
  auto key = std::make_pair(static_cast<int>(archetype), scenario);
  auto it = cache.find(key);
  if (it == cache.end()) {
    ExperimentConfig cfg;
    cfg.archetype = archetype;
    cfg.duration = 2.0 * kSecondsPerHour;
    cfg.seed = 42;
    cfg.fault_scenario = scenario;
    it = cache.emplace(key, GoldenRun{run_experiment(cfg)}).first;
  }
  return it->second;
}

void expect_land_equivalence(LandArchetype archetype, const std::string& scenario) {
  const auto& run = golden_run(archetype, scenario);
  // run_experiment analyzed the stripped trace; results.trace IS that
  // stripped trace, so streaming it without re-stripping must match.
  const AnalysisReport batch = to_analysis_report(run.results);
  for (const std::size_t threads : {1u, 2u}) {
    StreamingOptions opt;
    opt.threads = threads;
    expect_equivalent(batch, stream_report(run.results.trace, opt));
  }
}

TEST(StreamingGolden, IsleOfView) {
  expect_land_equivalence(LandArchetype::kIsleOfView, "none");
}

TEST(StreamingGolden, DanceIsland) {
  expect_land_equivalence(LandArchetype::kDanceIsland, "none");
}

TEST(StreamingGolden, ApfelLand) {
  expect_land_equivalence(LandArchetype::kApfelLand, "none");
}

TEST(StreamingGolden, ChaosScenario) {
  const auto& run = golden_run(LandArchetype::kIsleOfView, "chaos");
  // Chaos must actually have censored something for this to test gap paths.
  EXPECT_FALSE(run.results.trace.gaps().empty());
  expect_land_equivalence(LandArchetype::kIsleOfView, "chaos");
}

TEST(StreamingGolden, CollectorCrashScenario) {
  expect_land_equivalence(LandArchetype::kIsleOfView, "collector-crash");
}

TEST(StreamingPipeline, WindowAndThreadCountNeverChangeAGappedChaosTrace) {
  // Gaps arrive mid-stream, so at window 1 (a flush per covered snapshot)
  // every on_gap after the first snapshot lands with a window in flight on
  // a multi-thread pool and must join it first. Relations and flights ride
  // along: the relation stream is fed by a contact sink inside the window.
  const Trace& trace = golden_run(LandArchetype::kIsleOfView, "chaos").results.trace;
  ASSERT_FALSE(trace.gaps().empty());
  ASSERT_GT(trace.gaps().front().start, trace.snapshots().front().time);
  std::optional<AnalysisReport> first;
  for (const std::size_t window : {1u, 2u, 3u, 64u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      StreamingOptions opt;
      opt.window = window;
      opt.threads = threads;
      opt.relations = true;
      opt.flights = true;
      const AnalysisReport report = stream_report(trace, opt);
      if (!first) {
        first = report;
        continue;
      }
      const std::string diff = analysis_diff(*first, report);
      EXPECT_TRUE(diff.empty()) << "window " << window << " threads " << threads << ": "
                                << diff;
      EXPECT_EQ(analysis_fingerprint(*first), analysis_fingerprint(report));
    }
  }
}

TEST(StreamingPipeline, DestroyingMidStreamWithAWindowInFlightIsClean) {
  // No finish(): the destructor must wait for the window the last flush
  // handed to the pool before any consumer it touches goes away.
  const Trace trace = seeded_trace(17, 41, 60);
  for (const std::size_t window : {1u, 2u, 8u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      StreamingOptions opt;
      opt.window = window;
      opt.threads = threads;
      opt.relations = true;
      StreamingAnalyzer analyzer(opt);
      analyzer.on_begin(trace.land_name(), trace.sampling_interval());
      for (const Snapshot& snap : trace.snapshots()) analyzer.on_snapshot(snap);
      EXPECT_EQ(analyzer.progress().snapshots, trace.snapshots().size());
    }
  }
}

TEST(StreamingEquivalence, SalvagedTornJournal) {
  // A journal torn mid-frame streams exactly what salvage_journal keeps —
  // including the synthetic trailing gap — and analyzes identically.
  Trace trace = seeded_trace(31, 40, 25);
  const std::string path = ::testing::TempDir() + "streaming_torn.sltj";
  {
    TraceJournalWriter w(path, 400.0);
    w.begin(trace.land_name(), trace.sampling_interval());
    for (std::size_t i = 0; i < trace.snapshots().size(); ++i) {
      if (i == 10) {
        w.append_gap_open(95.0);
        w.append_gap_close(95.0, 100.0);
      }
      w.append_snapshot(trace.snapshots()[i]);
    }
    w.append_end(400.0);
  }
  // Tear off the last 31 bytes: the kEnd frame and part of the final
  // snapshot frame are lost, forcing a trailing censoring gap.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), full - 31), 0);

  const JournalSalvage salvage = salvage_journal(path);
  EXPECT_TRUE(salvage.torn);
  ASSERT_FALSE(salvage.trace.gaps().empty());  // trailing censoring gap

  StreamingProgress progress;
  const AnalysisReport streamed = analyze_stream_file(path, {}, &progress);
  expect_equivalent(batch_report(salvage.trace), streamed);
  EXPECT_EQ(progress.snapshots, salvage.trace.snapshots().size());
  std::remove(path.c_str());
}

TEST(StreamingEquivalence, SltFileMatchesInMemory) {
  Trace trace = seeded_trace(17, 50, 30);
  trace.add_gap(125.0, 165.0);
  const std::string path = ::testing::TempDir() + "streaming_file.slt";
  save_trace(trace, path);
  // Batch loads the same file: .slt stores f32 positions, so equivalence is
  // against the loaded trace, not the pre-save doubles.
  expect_equivalent(batch_report(load_trace(path)), analyze_stream_file(path));
  std::remove(path.c_str());
}

TEST(StreamingEquivalence, FlightsMatchAnalyzeFlights) {
  const Trace trace = seeded_trace(43, 100, 40);
  StreamingOptions opt;
  opt.flights = true;
  const AnalysisReport streamed = stream_report(trace, opt);
  ASSERT_TRUE(streamed.flights.has_value());

  AnalysisReport batch = batch_report(trace);
  batch.flights = analyze_flights(trace, opt.flight_options);
  expect_equivalent(batch, streamed);
  EXPECT_GT(streamed.flights->sessions_analyzed, 0u);
}

TEST(StreamingEquivalence, RelationsMatchRelationGraph) {
  const Trace trace = seeded_trace(47, 100, 40);
  StreamingOptions opt;
  opt.relations = true;
  const AnalysisReport streamed = stream_report(trace, opt);
  ASSERT_TRUE(streamed.relations.has_value());

  AnalysisReport batch = batch_report(trace);
  const RelationGraph graph(batch.contacts.at(opt.relation_range).intervals,
                            opt.relation_options);
  batch.relations = summarize_relations(graph);
  expect_equivalent(batch, streamed);
  EXPECT_GT(streamed.relations->relations.size(), 0u);
}

TEST(StreamingEquivalence, CrawlerLiveSinkMatchesBatchOnTakenTrace) {
  // The crawler feeds an attached analyzer the same events it records; at
  // take_trace time the live report must equal batch analysis of the taken
  // trace (strip enabled on both sides, as run_experiment does).
  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kApfelLand;
  cfg.seed = 11;
  Testbed bed(cfg);
  ASSERT_NE(bed.crawler(), nullptr);

  StreamingOptions opt;
  opt.strip_sitting_fixes = true;
  StreamingAnalyzer live(opt);
  bed.crawler()->attach_live_sink(&live);
  bed.run_until(1.0 * kSecondsPerHour);

  Trace trace = bed.crawler()->take_trace();
  trace.strip_sitting_fixes();
  const AnalysisReport batch = batch_report(trace);
  const AnalysisReport streamed = live.finish();
  const std::string diff = analysis_diff(batch, streamed);
  EXPECT_TRUE(diff.empty()) << diff;
  EXPECT_GT(streamed.summary.snapshot_count, 0u);
}

TEST(StreamingAnalyzer, ProgressCountersTrackTheStream) {
  Trace trace = seeded_trace(3, 30, 20);
  trace.add_gap(95.0, 125.0);  // covers snapshots at t=100, 110, 120
  StreamingAnalyzer analyzer;
  MemoryTraceStream stream(trace);
  drive_stream(stream, analyzer);

  const StreamingProgress p = analyzer.progress();
  const TraceSummary want = trace.summary();
  EXPECT_EQ(p.snapshots, trace.snapshots().size());
  EXPECT_EQ(p.covered_snapshots, trace.snapshots().size() - 3);
  EXPECT_EQ(p.gaps, 1u);
  EXPECT_EQ(p.users_seen, want.unique_users);
  EXPECT_EQ(p.max_concurrent, want.max_concurrent);
  EXPECT_EQ(p.last_time, trace.snapshots().back().time);
  EXPECT_GT(p.proximity_rebuilds + p.proximity_delta_updates, 0u);

  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.summary.snapshot_count, want.snapshot_count);
  EXPECT_EQ(report.summary.gap_count, want.gap_count);
  EXPECT_EQ(report.summary.gap_seconds, want.gap_seconds);
}

TEST(StreamingAnalyzer, EmptyStreamYieldsEmptyReport) {
  StreamingAnalyzer analyzer;
  analyzer.on_begin("empty", 10.0);
  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.summary.snapshot_count, 0u);
  EXPECT_EQ(report.summary.unique_users, 0u);
  EXPECT_EQ(report.summary.duration, 0.0);
  EXPECT_TRUE(report.contacts.at(kBluetoothRange).contact_times.empty());
}

TEST(StreamingAnalyzer, FinishWithoutBeginIsAnEmptyReport) {
  StreamingAnalyzer analyzer;
  const AnalysisReport report = analyzer.finish();
  EXPECT_EQ(report.summary.snapshot_count, 0u);
}

TEST(StreamingAnalyzer, UsageErrors) {
  {
    StreamingOptions opt;
    opt.ranges = {10.0, -1.0};
    EXPECT_THROW(StreamingAnalyzer{opt}, std::invalid_argument);
  }
  {
    StreamingOptions opt;
    opt.relations = true;
    opt.relation_range = 42.0;  // not in ranges
    EXPECT_THROW(StreamingAnalyzer{opt}, std::invalid_argument);
  }
  {
    StreamingAnalyzer analyzer;
    Snapshot snap;
    EXPECT_THROW(analyzer.on_snapshot(snap), std::logic_error);
  }
  {
    StreamingAnalyzer analyzer;
    analyzer.on_begin("x", 10.0);
    (void)analyzer.finish();
    EXPECT_THROW((void)analyzer.finish(), std::logic_error);
  }
}

TEST(AnalysisReportDiff, NamesTheFirstDifferingField) {
  const Trace trace = seeded_trace(5, 20, 15);
  const AnalysisReport a = batch_report(trace);
  AnalysisReport b = a;
  EXPECT_TRUE(analysis_equal(a, b));
  b.summary.snapshot_count += 1;
  const std::string diff = analysis_diff(a, b);
  EXPECT_FALSE(diff.empty());
  EXPECT_NE(diff.find("snapshot_count"), std::string::npos) << diff;
  EXPECT_NE(analysis_fingerprint(a), analysis_fingerprint(b));
}

}  // namespace
}  // namespace slmob
