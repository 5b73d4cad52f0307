// End-to-end chaos: the acceptance scenario of the fault-injection work.
//
// A 6 h Isle of View run with two scripted 10-minute transport blackouts
// must complete without crashing, the crawler must reconnect with backoff
// after each outage, the trace must carry one coverage gap per blackout, and
// the gap-aware analysis must never produce a contact or inter-contact
// observation that bridges a gap.
#include <gtest/gtest.h>

#include <map>

#include "core/experiment.hpp"
#include "net/fault_schedule.hpp"
#include "trace/sessions.hpp"

namespace slmob {
namespace {

constexpr Seconds kSixHours = 6.0 * kSecondsPerHour;

struct ChaosRun {
  ExperimentResults results;
  FaultSchedule faults;
};

const ChaosRun& blackout_run() {
  static const ChaosRun run = [] {
    ChaosRun r;
    r.faults = FaultSchedule::scenario("blackouts", kSixHours, 42);
    ExperimentConfig cfg;
    cfg.archetype = LandArchetype::kIsleOfView;
    cfg.duration = kSixHours;
    cfg.seed = 42;
    cfg.ranges = {kBluetoothRange};
    cfg.fault_scenario = "blackouts";
    r.results = run_experiment(cfg);
    return r;
  }();
  return run;
}

TEST(ChaosBlackouts, CrawlerSurvivesAndReconnects) {
  const auto& run = blackout_run();
  const auto& stats = run.results.crawler_stats;
  EXPECT_GT(stats.relogins, 0u);
  // Sampling recovered after each of the two outages.
  EXPECT_GE(stats.backoff_resets, 2u);
  // The run kept producing data to the end: ~2160 samples minus two 600 s
  // outages and the reconnect transients.
  EXPECT_GT(stats.snapshots_taken, 1800u);
}

TEST(ChaosBlackouts, TraceCarriesOneGapPerBlackout) {
  const auto& run = blackout_run();
  const Trace& trace = run.results.trace;
  const auto blackouts = run.faults.windows_of(FaultKind::kBlackout);
  ASSERT_EQ(blackouts.size(), 2u);
  ASSERT_EQ(trace.gaps().size(), 2u);
  // Each recorded gap covers its blackout window (the gap is a little wider:
  // it starts at the first sample with stale minimap data — up to two
  // sampling intervals in — and ends at the first snapshot after re-login).
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(trace.gaps()[i].start, blackouts[i].start);
    EXPECT_LE(trace.gaps()[i].start, blackouts[i].start + 30.0);
    EXPECT_GE(trace.gaps()[i].end, blackouts[i].end);
    EXPECT_LT(trace.gaps()[i].end, blackouts[i].end + 600.0);  // backoff-bounded
  }
}

TEST(ChaosBlackouts, NoSnapshotInsideAGap) {
  const Trace& trace = blackout_run().results.trace;
  for (const auto& snap : trace.snapshots()) {
    EXPECT_TRUE(trace.covered_at(snap.time)) << "snapshot at " << snap.time;
  }
}

TEST(ChaosBlackouts, NoContactSpansAGap) {
  const auto& run = blackout_run();
  const Trace& trace = run.results.trace;
  const auto& contacts = run.results.analysis.contacts.at(kBluetoothRange);
  ASSERT_GT(contacts.intervals.size(), 0u);
  for (const auto& interval : contacts.intervals) {
    EXPECT_FALSE(trace.spans_gap(interval.start, interval.end))
        << "contact [" << interval.start << ", " << interval.end << ") bridges a gap";
  }
}

TEST(ChaosBlackouts, NoInterContactSpansAGap) {
  const auto& run = blackout_run();
  const Trace& trace = run.results.trace;
  const auto& contacts = run.results.analysis.contacts.at(kBluetoothRange);
  // Reconstruct the expected ICT count: consecutive contacts of the same
  // pair contribute one sample iff the span between them is fully covered.
  std::map<std::pair<std::uint32_t, std::uint32_t>, const ContactInterval*> last;
  std::size_t expected = 0;
  for (const auto& interval : contacts.intervals) {
    const auto key = std::make_pair(interval.a.value, interval.b.value);
    const auto it = last.find(key);
    if (it != last.end() && !trace.spans_gap(it->second->end, interval.start)) {
      ++expected;
    }
    last[key] = &interval;
  }
  EXPECT_EQ(contacts.inter_contact_times.size(), expected);
}

TEST(ChaosBlackouts, NoSessionSpansAGap) {
  const auto& run = blackout_run();
  const Trace& trace = run.results.trace;
  const auto sessions = extract_sessions(trace);
  ASSERT_GT(sessions.size(), 0u);
  for (const auto& session : sessions) {
    EXPECT_FALSE(trace.spans_gap(session.login, session.logout))
        << "session of avatar " << session.avatar.value << " bridges a gap";
  }
}

TEST(ChaosBlackouts, ZonesNormalizeByCoveredSnapshots) {
  const auto& run = blackout_run();
  const Trace& trace = run.results.trace;
  std::size_t covered = 0;
  for (const auto& snap : trace.snapshots()) {
    if (trace.covered_at(snap.time)) ++covered;
  }
  // Mean occupancy summed over cells ~= average concurrent users; if the
  // divisor wrongly included gap time this would undershoot.
  double mean_total = 0.0;
  for (const double m : run.results.analysis.zones.mean_per_cell) mean_total += m;
  double fixes_per_covered = 0.0;
  for (const auto& snap : trace.snapshots()) {
    fixes_per_covered += static_cast<double>(snap.fixes.size());
  }
  fixes_per_covered /= static_cast<double>(covered);
  EXPECT_NEAR(mean_total, fixes_per_covered, 1e-6);
}

TEST(ChaosFaultFree, AnalysisBitIdenticalAcrossThreadCounts) {
  // A fault-free run records no gaps, and the gap-aware pipeline must leave
  // its results bit-identical at every thread count.
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kDanceIsland;
  cfg.duration = 1800.0;
  cfg.seed = 7;
  cfg.ranges = {kBluetoothRange};
  cfg.analysis_threads = 1;
  const ExperimentResults one = run_experiment(cfg);
  EXPECT_EQ(one.analysis.summary.gap_count, 0u);
  cfg.analysis_threads = 4;
  const ExperimentResults four = run_experiment(cfg);

  const auto& c1 = one.analysis.contacts.at(kBluetoothRange);
  const auto& c4 = four.analysis.contacts.at(kBluetoothRange);
  ASSERT_EQ(c1.intervals.size(), c4.intervals.size());
  for (std::size_t i = 0; i < c1.intervals.size(); ++i) {
    EXPECT_EQ(c1.intervals[i].a, c4.intervals[i].a);
    EXPECT_EQ(c1.intervals[i].b, c4.intervals[i].b);
    EXPECT_EQ(c1.intervals[i].start, c4.intervals[i].start);
    EXPECT_EQ(c1.intervals[i].end, c4.intervals[i].end);
  }
  const auto s1 = c1.contact_times.sorted();
  const auto s4 = c4.contact_times.sorted();
  ASSERT_EQ(s1.size(), s4.size());
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s4[i]);
  const auto& g1 = one.analysis.graphs.at(kBluetoothRange);
  const auto& g4 = four.analysis.graphs.at(kBluetoothRange);
  EXPECT_EQ(g1.snapshots_analyzed, g4.snapshots_analyzed);
  EXPECT_EQ(g1.isolated_fraction, g4.isolated_fraction);
}

TEST(ChaosScenarios, AllScenariosCompleteAndAreDeterministic) {
  for (const std::string& name : FaultSchedule::scenario_names()) {
    ExperimentConfig cfg;
    cfg.archetype = LandArchetype::kDanceIsland;
    cfg.duration = 3600.0;
    cfg.seed = 11;
    cfg.ranges = {kBluetoothRange};
    cfg.fault_scenario = name;
    const ExperimentResults a = run_experiment(cfg);
    const ExperimentResults b = run_experiment(cfg);
    EXPECT_EQ(a.analysis.summary.snapshot_count, b.analysis.summary.snapshot_count) << name;
    EXPECT_EQ(a.analysis.summary.gap_count, b.analysis.summary.gap_count) << name;
    EXPECT_EQ(a.analysis.summary.gap_seconds, b.analysis.summary.gap_seconds) << name;
    EXPECT_EQ(a.analysis.contacts.at(kBluetoothRange).intervals.size(),
              b.analysis.contacts.at(kBluetoothRange).intervals.size())
        << name;
    for (const auto& interval : a.analysis.contacts.at(kBluetoothRange).intervals) {
      EXPECT_FALSE(a.trace.spans_gap(interval.start, interval.end)) << name;
    }
  }
}

}  // namespace
}  // namespace slmob
