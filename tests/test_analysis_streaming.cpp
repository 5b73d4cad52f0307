// StreamingAnalyzer, the one implementation of the §3 analysis: its reports
// must reproduce the committed golden fingerprints (analysis_goldens.hpp) at
// 1, 2 and 4 threads — on gap-free and gapped synthetic traces, on every land
// archetype and under fault scenarios — and every way of feeding it (files,
// a salvaged torn journal, a live crawler, per-snapshot stripping) must give
// the report of the equivalent in-memory trace. Failures print
// analysis_diff, which names the first differing field.
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
#include "analysis_goldens.hpp"
#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"

namespace slmob {
namespace {

using golden::seeded_trace;

AnalysisReport stream_report(const Trace& trace, StreamingOptions options = {}) {
  MemoryTraceStream stream(trace);
  return analyze_stream(stream, options);
}

void expect_equivalent(const AnalysisReport& want, const AnalysisReport& got) {
  const std::string diff = analysis_diff(want, got);
  EXPECT_TRUE(diff.empty()) << diff;
  EXPECT_EQ(analysis_fingerprint(want), analysis_fingerprint(got));
}

// Streams `trace` at 1, 2 and 4 threads; each report must hash to `golden`.
void expect_golden_at_every_thread_count(const Trace& trace, std::uint32_t golden) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    StreamingOptions opt;
    opt.threads = threads;
    EXPECT_EQ(analysis_fingerprint(stream_report(trace, opt)), golden)
        << "threads " << threads;
  }
}

TEST(StreamingEquivalence, GapFreeTraceAt1And2And4Threads) {
  const Trace trace = golden::gap_free_trace();
  ASSERT_FALSE(stream_report(trace).contacts.at(kBluetoothRange).contact_times.empty());
  expect_golden_at_every_thread_count(trace, golden::kGapFree);
}

TEST(StreamingEquivalence, GappedTraceAt1And2And4Threads) {
  const Trace trace = golden::gapped_trace();
  ASSERT_EQ(trace.gaps().size(), 2u);
  expect_golden_at_every_thread_count(trace, golden::kGapped);
}

TEST(StreamingEquivalence, StripSittingFixesMatchesWholeTraceStrip) {
  // A trace with origin fixes: streaming's per-snapshot strip must equal
  // Trace::strip_sitting_fixes on the whole trace before analysis.
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
  expect_equivalent(stream_report(stripped), stream_report(polluted, opt));
}

// One run_experiment per land / scenario, shared across tests.
const ExperimentResults& golden_run(const golden::LandGolden& land) {
  static std::map<std::string, ExperimentResults> cache;
  auto it = cache.find(land.name);
  if (it == cache.end()) {
    it = cache.emplace(land.name, run_experiment(golden::config_of(land))).first;
  }
  return it->second;
}

void expect_land_golden(const golden::LandGolden& land) {
  const ExperimentResults& run = golden_run(land);
  EXPECT_EQ(analysis_fingerprint(run.analysis), land.fingerprint);
  // run_experiment analyzed the stripped trace; results.trace IS that
  // stripped trace, so streaming it without re-stripping must match.
  expect_golden_at_every_thread_count(run.trace, land.fingerprint);
}

TEST(StreamingGolden, IsleOfView) { expect_land_golden(golden::kIsleOfView); }

TEST(StreamingGolden, DanceIsland) { expect_land_golden(golden::kDanceIsland); }

TEST(StreamingGolden, ApfelLand) { expect_land_golden(golden::kApfelLand); }

TEST(StreamingGolden, ChaosScenario) {
  // Chaos must actually have censored something for this to test gap paths.
  EXPECT_FALSE(golden_run(golden::kIsleChaos).trace.gaps().empty());
  expect_land_golden(golden::kIsleChaos);
}

TEST(StreamingGolden, CollectorCrashScenario) {
  expect_land_golden(golden::kIsleCollectorCrash);
}

TEST(StreamingPipeline, WindowAndThreadCountNeverChangeAGappedChaosTrace) {
  // Gaps arrive mid-stream, so at window 1 (a flush per covered snapshot)
  // every on_gap after the first snapshot lands with a window in flight on
  // a multi-thread pool and must join it first.
  const Trace& trace = golden_run(golden::kIsleChaos).trace;
  ASSERT_FALSE(trace.gaps().empty());
  ASSERT_GT(trace.gaps().front().start, trace.snapshots().front().time);
  std::optional<AnalysisReport> first;
  for (const std::size_t window : {1u, 2u, 3u, 64u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      StreamingOptions opt;
      opt.window = window;
      opt.threads = threads;
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
      StreamingAnalyzer analyzer(opt);
      analyzer.on_begin(trace.land_name(), trace.sampling_interval());
      for (const Snapshot& snap : trace.snapshots()) analyzer.on_snapshot(snap);
      EXPECT_EQ(analyzer.progress().snapshots, trace.snapshots().size());
    }
  }
}

TEST(StreamingEquivalence, SalvagedTornJournal) {
  // A journal torn mid-frame analyzes exactly like the trace salvage_journal
  // collects from it, synthetic trailing gap included.
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
  expect_equivalent(stream_report(salvage.trace), streamed);
  EXPECT_EQ(progress.snapshots, salvage.trace.snapshots().size());
  std::remove(path.c_str());
}

TEST(StreamingEquivalence, SltFileMatchesInMemory) {
  Trace trace = seeded_trace(17, 50, 30);
  trace.add_gap(125.0, 165.0);
  const std::string path = ::testing::TempDir() + "streaming_file.slt";
  save_trace(trace, path);
  // .slt stores f32 positions, so equivalence is against the loaded trace,
  // not the pre-save doubles.
  expect_equivalent(stream_report(load_trace(path)), analyze_stream_file(path));
  std::remove(path.c_str());
}

TEST(StreamingEquivalence, CrawlerLiveSinkMatchesTakenTrace) {
  // The crawler feeds an attached analyzer the same events it records; at
  // take_trace time the live report must equal the analysis of the taken
  // trace (stripped on both sides, as run_experiment does).
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
  const AnalysisReport taken = stream_report(trace);
  const AnalysisReport streamed = live.finish();
  const std::string diff = analysis_diff(taken, streamed);
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
  EXPECT_GT(p.covered_snapshots, 0u);

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
  const AnalysisReport a = stream_report(trace);
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
