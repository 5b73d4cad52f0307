#include "analysis/contacts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

// The contacts of `trace` at `range` as the analysis engine computes them,
// on one thread.
ContactAnalysis contacts_of(const Trace& trace, double range) {
  return analyze_trace(trace, {range}, kDefaultLandSize, 1).contacts.at(range);
}

// Builds a trace where avatar positions are given per snapshot; absent
// entries mean the avatar is offline.
struct TraceBuilder {
  Trace trace{"t", 10.0};
  Seconds now{0.0};

  TraceBuilder& snap(std::initializer_list<std::pair<std::uint32_t, double>> users) {
    Snapshot s;
    s.time = now;
    now += 10.0;
    for (const auto& [id, x] : users) s.fixes.push_back({AvatarId{id}, {x, 0.0, 22.0}});
    trace.add(std::move(s));
    return *this;
  }
};

TEST(Contacts, SingleSnapshotContactGetsTauDuration) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});   // in range at r=10
  b.snap({{1, 0.0}, {2, 50.0}});  // out of range
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].duration(), 10.0);
  EXPECT_DOUBLE_EQ(analysis.contact_times.median(), 10.0);
}

TEST(Contacts, MultiSnapshotContactDuration) {
  TraceBuilder b;
  for (int i = 0; i < 5; ++i) b.snap({{1, 0.0}, {2, 5.0}});  // 5 snapshots together
  b.snap({{1, 0.0}, {2, 100.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  // Seen together t=0..40; credited 40 + tau = 50.
  EXPECT_DOUBLE_EQ(analysis.intervals[0].duration(), 50.0);
}

TEST(Contacts, ContactOpenAtTraceEndIsClosed) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});
  b.snap({{1, 0.0}, {2, 5.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].start, 0.0);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].end, 20.0);
}

TEST(Contacts, InterContactTime) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});    // contact 1: t=0, ends t=10
  b.snap({{1, 0.0}, {2, 100.0}});  // apart
  b.snap({{1, 0.0}, {2, 100.0}});  // apart
  b.snap({{1, 0.0}, {2, 5.0}});    // contact 2 starts t=30
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.inter_contact_times.size(), 1u);
  // ICT = start2 - end1 = 30 - 10 = 20.
  EXPECT_DOUBLE_EQ(analysis.inter_contact_times.median(), 20.0);
}

TEST(Contacts, AvatarLogoutClosesContact) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});
  b.snap({{1, 0.0}});  // avatar 2 gone
  b.snap({{1, 0.0}, {2, 5.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  EXPECT_EQ(analysis.intervals.size(), 2u);
  EXPECT_EQ(analysis.inter_contact_times.size(), 1u);
}

TEST(Contacts, FirstContactTimes) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 100.0}});  // both appear, no contact
  b.snap({{1, 0.0}, {2, 100.0}});
  b.snap({{1, 0.0}, {2, 5.0}});    // first contact at t=20
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.first_contact_times.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.first_contact_times.median(), 20.0);
  EXPECT_EQ(analysis.users_seen, 2u);
  EXPECT_EQ(analysis.users_with_contact, 2u);
}

TEST(Contacts, ImmediateContactGetsHalfTau) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});  // in contact at first sighting
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.first_contact_times.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.first_contact_times.median(), 5.0);
}

TEST(Contacts, UsersWithoutContactAreCensored) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 100.0}, {3, 200.0}});
  b.snap({{1, 0.0}, {2, 3.0}, {3, 200.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  EXPECT_EQ(analysis.users_seen, 3u);
  EXPECT_EQ(analysis.users_with_contact, 2u);
  EXPECT_EQ(analysis.first_contact_times.size(), 2u);
}

TEST(Contacts, RangeMatters) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 50.0}});
  b.snap({{1, 0.0}, {2, 50.0}});
  EXPECT_EQ(contacts_of(b.trace, 10.0).intervals.size(), 0u);
  EXPECT_EQ(contacts_of(b.trace, 80.0).intervals.size(), 1u);
}

TEST(Contacts, ThreeUsersPairwiseContacts) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}, {3, 8.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  // Pairs (1,2), (2,3), (1,3) all within 10.
  EXPECT_EQ(analysis.intervals.size(), 3u);
}

TEST(Contacts, IntervalsSortedByStart) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}, {3, 100.0}});
  b.snap({{1, 0.0}, {2, 50.0}, {3, 4.0}});
  b.snap({{1, 0.0}, {2, 50.0}, {3, 4.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  for (std::size_t i = 1; i < analysis.intervals.size(); ++i) {
    EXPECT_LE(analysis.intervals[i - 1].start, analysis.intervals[i].start);
  }
}

TEST(Contacts, EmptyTrace) {
  const Trace t("x", 10.0);
  const auto analysis = contacts_of(t, 10.0);
  EXPECT_TRUE(analysis.intervals.empty());
  EXPECT_EQ(analysis.users_seen, 0u);
}

TEST(Contacts, PairKeyCanonicalOrder) {
  TraceBuilder b;
  b.snap({{7, 0.0}, {3, 5.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_LT(analysis.intervals[0].a.value, analysis.intervals[0].b.value);
}

TEST(ContactsCensoring, ContactTruncatedAtGapStartNeverBridged) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=0, in contact
  b.snap({{1, 0.0}, {2, 5.0}});  // t=10
  b.snap({{1, 0.0}, {2, 5.0}});  // t=20
  b.trace.add_gap(30.0, 60.0);
  b.now = 60.0;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=60, still in contact after the gap
  b.snap({{1, 0.0}, {2, 5.0}});  // t=70
  const auto analysis = contacts_of(b.trace, 10.0);
  // One contact per covered segment, not one bridged contact.
  ASSERT_EQ(analysis.intervals.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].start, 0.0);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].end, 30.0);  // capped at gap start
  EXPECT_DOUBLE_EQ(analysis.intervals[1].start, 60.0);
  EXPECT_DOUBLE_EQ(analysis.intervals[1].end, 80.0);
  // And the pause between them is unobserved, so it yields no ICT sample.
  EXPECT_EQ(analysis.inter_contact_times.size(), 0u);
}

TEST(ContactsCensoring, InterContactChainCutAtGap) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});    // contact ends t=0+tau
  b.snap({{1, 0.0}, {2, 100.0}});  // apart at t=10
  b.trace.add_gap(20.0, 40.0);
  b.now = 40.0;
  b.snap({{1, 0.0}, {2, 5.0}});    // t=40: would be ICT=30 if bridged
  b.snap({{1, 0.0}, {2, 100.0}});  // apart at t=50 (contact ends t=50)
  b.snap({{1, 0.0}, {2, 100.0}});  // t=60
  b.snap({{1, 0.0}, {2, 5.0}});    // t=70: same-segment ICT = 70 - 50 = 20
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.inter_contact_times.size(), 1u);
  EXPECT_DOUBLE_EQ(analysis.inter_contact_times.median(), 20.0);
}

TEST(ContactsCensoring, FirstContactClockRestartsAfterGap) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 100.0}});  // both appear, no contact
  b.snap({{1, 0.0}, {2, 100.0}});
  b.trace.add_gap(20.0, 50.0);
  b.now = 50.0;
  b.snap({{1, 0.0}, {2, 5.0}});  // first contact right after the gap
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.first_contact_times.size(), 2u);
  // The pre-gap wait is censored: both users restart observation at t=50 and
  // are in contact immediately, so FT is the half-tau credit, not 50 s.
  EXPECT_DOUBLE_EQ(analysis.first_contact_times.median(), 5.0);
  EXPECT_EQ(analysis.users_seen, 2u);
}

TEST(ContactsCensoring, UncoveredSnapshotsAreIgnored) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=0
  b.snap({{3, 0.0}, {4, 5.0}});  // t=10: inside the gap — bogus data
  b.trace.add_gap(5.0, 15.0);
  b.now = 20.0;
  b.snap({{1, 0.0}, {2, 5.0}});  // t=20
  const auto analysis = contacts_of(b.trace, 10.0);
  EXPECT_EQ(analysis.users_seen, 2u);  // avatars 3 and 4 were never observed
  for (const auto& interval : analysis.intervals) {
    EXPECT_LE(interval.b.value, 2u);
    EXPECT_FALSE(b.trace.spans_gap(interval.start, interval.end));
  }
}

TEST(Contacts, DuplicateAvatarIdIsNotASelfContact) {
  // Two fixes of avatar 7 one metre apart: the same user, not a pair.
  Trace trace("dup", 10.0);
  Snapshot snap;
  snap.time = 0.0;
  snap.fixes.push_back({AvatarId{7}, {10.0, 10.0, 22.0}});
  snap.fixes.push_back({AvatarId{7}, {11.0, 10.0, 22.0}});
  trace.add(snap);
  const auto analysis = contacts_of(trace, 10.0);
  EXPECT_TRUE(analysis.intervals.empty());
  EXPECT_TRUE(analysis.contact_times.empty());
  EXPECT_EQ(analysis.users_seen, 1u);
  EXPECT_EQ(analysis.users_with_contact, 0u);
  EXPECT_TRUE(analysis.first_contact_times.empty());
}

TEST(Contacts, DuplicateAvatarIdStillMeetsOthersOnce) {
  // Both copies of avatar 7 are near avatar 8: one 7-8 contact, not two.
  TraceBuilder b;
  b.snap({{7, 0.0}, {7, 2.0}, {8, 4.0}});
  b.snap({{7, 0.0}, {8, 4.0}});
  const auto analysis = contacts_of(b.trace, 10.0);
  ASSERT_EQ(analysis.intervals.size(), 1u);
  EXPECT_EQ(analysis.intervals[0].a.value, 7u);
  EXPECT_EQ(analysis.intervals[0].b.value, 8u);
  EXPECT_DOUBLE_EQ(analysis.intervals[0].duration(), 20.0);
  EXPECT_EQ(analysis.users_with_contact, 2u);
}

// ---------------------------------------------------------------------------
// ContactOracle: the paper's §3.1 contact rules transcribed literally —
// O(n²) in-range pairs per snapshot, whole-trace scans per pair and per
// user, no incremental state — and compared bit for bit with every entry
// point of the contact analysis.

struct OracleContacts {
  std::vector<ContactInterval> intervals;  // sorted by (start, a, b)
  std::vector<double> contact_times;       // sorted
  std::vector<double> inter_contact_times;
  std::vector<double> first_contact_times;
  std::size_t users_seen{0};
  std::size_t users_with_contact{0};
};

using IdPair = std::pair<std::uint32_t, std::uint32_t>;

OracleContacts contact_oracle(const Trace& trace, double r) {
  const Seconds tau = trace.sampling_interval();
  const auto& gaps = trace.gaps();
  const auto in_gap = [&](Seconds t) {
    for (const auto& g : gaps) {
      if (g.start <= t && t < g.end) return true;
    }
    return false;
  };
  const auto gap_between = [&](Seconds t0, Seconds t1) {
    for (const auto& g : gaps) {
      if (g.start < t1 && g.end > t0) return true;
    }
    return false;
  };
  const auto first_gap_after = [&](Seconds t) -> std::optional<Seconds> {
    for (const auto& g : gaps) {
      if (g.start > t) return g.start;
    }
    return std::nullopt;
  };

  // Covered snapshots only; a new coverage segment starts after every gap.
  struct Observation {
    Seconds t;
    std::size_t segment;
    std::set<std::uint32_t> users;
    std::set<IdPair> pairs;  // distinct ids within r
  };
  std::vector<Observation> obs;
  for (const Snapshot& snap : trace.snapshots()) {
    if (in_gap(snap.time)) continue;
    Observation o{snap.time, 0, {}, {}};
    if (!obs.empty()) {
      o.segment = obs.back().segment + (gap_between(obs.back().t, snap.time) ? 1 : 0);
    }
    for (const AvatarFix& f : snap.fixes) o.users.insert(f.id.value);
    for (std::size_t i = 0; i < snap.fixes.size(); ++i) {
      for (std::size_t j = i + 1; j < snap.fixes.size(); ++j) {
        const AvatarFix& p = snap.fixes[i];
        const AvatarFix& q = snap.fixes[j];
        if (p.id == q.id) continue;
        const double dx = p.pos.x - q.pos.x;
        const double dy = p.pos.y - q.pos.y;
        if (std::sqrt(dx * dx + dy * dy) <= r) {
          o.pairs.insert(std::minmax(p.id.value, q.id.value));
        }
      }
    }
    obs.push_back(std::move(o));
  }

  OracleContacts out;
  std::set<IdPair> all_pairs;
  std::set<std::uint32_t> all_users;
  for (const Observation& o : obs) {
    all_pairs.insert(o.pairs.begin(), o.pairs.end());
    all_users.insert(o.users.begin(), o.users.end());
  }
  out.users_seen = all_users.size();

  // CT: per pair, maximal runs [s, e] of consecutive covered snapshots of
  // one segment with the pair in range; CT = (t_e - t_s) + tau, truncated
  // at the start of the gap that ends the segment. ICT: start of a contact
  // minus end of the pair's previous contact in the same segment.
  for (const IdPair& pair : all_pairs) {
    std::optional<std::pair<Seconds, std::size_t>> previous;  // end, segment
    std::size_t k = 0;
    while (k < obs.size()) {
      if (obs[k].pairs.count(pair) == 0) {
        ++k;
        continue;
      }
      const std::size_t s = k;
      std::size_t e = k;
      while (e + 1 < obs.size() && obs[e + 1].segment == obs[s].segment &&
             obs[e + 1].pairs.count(pair) != 0) {
        ++e;
      }
      Seconds end = obs[e].t + tau;
      const bool ends_segment = e + 1 == obs.size() || obs[e + 1].segment != obs[e].segment;
      if (ends_segment) {
        if (const auto cap = first_gap_after(obs[e].t)) end = std::min(end, *cap);
      }
      out.intervals.push_back({AvatarId{pair.first}, AvatarId{pair.second}, obs[s].t, end});
      out.contact_times.push_back(end - obs[s].t);
      if (previous && previous->second == obs[s].segment) {
        out.inter_contact_times.push_back(obs[s].t - previous->first);
      }
      previous = std::make_pair(end, obs[s].segment);
      k = e + 1;
    }
  }

  // FT: per user, the first contact minus the user's first appearance in
  // that contact's segment (the clock restarts after every gap); tau/2 for
  // a user in contact at first sight.
  for (const std::uint32_t user : all_users) {
    std::optional<std::size_t> contact_at;
    for (std::size_t k = 0; k < obs.size() && !contact_at; ++k) {
      for (const IdPair& pair : obs[k].pairs) {
        if (pair.first == user || pair.second == user) contact_at = k;
      }
    }
    if (!contact_at) continue;
    ++out.users_with_contact;
    std::size_t seen_at = *contact_at;
    while (seen_at > 0 && obs[seen_at - 1].segment == obs[*contact_at].segment) --seen_at;
    while (obs[seen_at].users.count(user) == 0) ++seen_at;
    const Seconds t_contact = obs[*contact_at].t;
    const Seconds t_seen = obs[seen_at].t;
    out.first_contact_times.push_back(t_contact == t_seen ? tau / 2.0 : t_contact - t_seen);
  }

  std::sort(out.intervals.begin(), out.intervals.end(),
            [](const ContactInterval& x, const ContactInterval& y) {
              return std::tie(x.start, x.a.value, x.b.value) <
                     std::tie(y.start, y.a.value, y.b.value);
            });
  std::sort(out.contact_times.begin(), out.contact_times.end());
  std::sort(out.inter_contact_times.begin(), out.inter_contact_times.end());
  std::sort(out.first_contact_times.begin(), out.first_contact_times.end());
  return out;
}

std::vector<double> sorted_samples(const Ecdf& ecdf) {
  const auto view = ecdf.sorted();
  return {view.begin(), view.end()};
}

void expect_matches_oracle(const ContactAnalysis& got, const OracleContacts& want,
                           const std::string& where) {
  ASSERT_EQ(got.intervals.size(), want.intervals.size()) << where;
  for (std::size_t i = 0; i < want.intervals.size(); ++i) {
    const ContactInterval& g = got.intervals[i];
    const ContactInterval& w = want.intervals[i];
    EXPECT_EQ(g.a, w.a) << where << " interval " << i;
    EXPECT_EQ(g.b, w.b) << where << " interval " << i;
    EXPECT_EQ(g.start, w.start) << where << " interval " << i;
    EXPECT_EQ(g.end, w.end) << where << " interval " << i;
  }
  EXPECT_EQ(sorted_samples(got.contact_times), want.contact_times) << where;
  EXPECT_EQ(sorted_samples(got.inter_contact_times), want.inter_contact_times) << where;
  EXPECT_EQ(sorted_samples(got.first_contact_times), want.first_contact_times) << where;
  EXPECT_EQ(got.users_seen, want.users_seen) << where;
  EXPECT_EQ(got.users_with_contact, want.users_with_contact) << where;
}

// Small random traces on integer coordinates (so ties at exactly r are
// common: 6-8-10 triangles) with logouts, position holds, missed snapshots,
// empty snapshots, duplicate ids and random coverage gaps — including gaps
// starting or ending exactly on a snapshot, covering snapshots, and short
// gaps after the last snapshot.
Trace random_contact_trace(std::uint64_t seed) {
  Rng rng(seed);
  Trace trace("oracle", 10.0);
  const auto users = static_cast<std::size_t>(rng.uniform_int(2, 9));
  const auto slots = rng.uniform_int(1, 40);
  std::vector<bool> online(users);
  std::vector<Vec3> pos(users);
  for (std::size_t u = 0; u < users; ++u) {
    online[u] = rng.bernoulli(0.6);
    pos[u] = {static_cast<double>(rng.uniform_int(0, 30)),
              static_cast<double>(rng.uniform_int(0, 30)), 22.0};
  }
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    Snapshot snap;
    snap.time = static_cast<double>(slot) * 10.0;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.bernoulli(0.15)) online[u] = !online[u];
      if (rng.bernoulli(0.35)) {
        pos[u] = {static_cast<double>(rng.uniform_int(0, 30)),
                  static_cast<double>(rng.uniform_int(0, 30)), 22.0};
      }
    }
    if (rng.bernoulli(0.1)) continue;  // missed, and not recorded as a gap
    if (!rng.bernoulli(0.05)) {
      for (std::size_t u = 0; u < users; ++u) {
        if (online[u]) snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)}, pos[u]});
      }
      if (!snap.fixes.empty() && rng.bernoulli(0.15)) {
        const auto dup = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(snap.fixes.size()) - 1));
        const Vec3 near{snap.fixes[dup].pos.x + static_cast<double>(rng.uniform_int(0, 12)),
                        snap.fixes[dup].pos.y, 22.0};
        snap.fixes.push_back({snap.fixes[dup].id, near});
      }
    }
    trace.add(std::move(snap));
  }
  const double last_slot = static_cast<double>(slots - 1) * 10.0;
  Seconds free_from = -5.0;  // gaps are ordered and disjoint
  if (rng.bernoulli(0.7)) {
    for (Seconds start = free_from + static_cast<double>(rng.uniform_int(0, 40)) * 2.5;
         start < last_slot;) {
      const Seconds end = start + static_cast<double>(rng.uniform_int(1, 12)) * 2.5;
      trace.add_gap(start, end);
      free_from = end;
      start = end + static_cast<double>(rng.uniform_int(0, 40)) * 2.5;
    }
  }
  if (rng.bernoulli(0.4)) {  // a trailing gap, often shorter than tau
    const Seconds start =
        std::max(free_from, last_slot) + static_cast<double>(rng.uniform_int(1, 4)) * 2.5;
    trace.add_gap(start, start + static_cast<double>(rng.uniform_int(1, 12)) * 2.5);
  }
  return trace;
}

constexpr std::uint64_t kOracleSeeds = 120;

TEST(ContactOracle, RandomTracesMatchBatchAnalysis) {
  std::size_t intervals = 0;
  std::size_t chained = 0;
  std::size_t gapped = 0;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    const Trace trace = random_contact_trace(seed);
    if (!trace.gaps().empty()) ++gapped;
    for (const double r : {10.0, 20.0}) {
      const OracleContacts want = contact_oracle(trace, r);
      intervals += want.intervals.size();
      chained += want.inter_contact_times.size();
      expect_matches_oracle(contacts_of(trace, r), want,
                            "seed " + std::to_string(seed) + " r " + std::to_string(r));
    }
  }
  // The generator must exercise what the oracle checks.
  EXPECT_GT(intervals, 1000u);
  EXPECT_GT(chained, 100u);
  EXPECT_GT(gapped, kOracleSeeds / 2);
}

TEST(ContactOracle, RandomTracesMatchStreamingAnalyzerAtAnyWindowAndThreadCount) {
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; seed += 3) {
    const Trace trace = random_contact_trace(seed);
    const OracleContacts want10 = contact_oracle(trace, 10.0);
    const OracleContacts want20 = contact_oracle(trace, 20.0);
    for (const std::size_t threads : {1u, 4u}) {
      for (const std::size_t window : {1u, 3u, 64u}) {
        StreamingOptions opt;
        opt.ranges = {10.0, 20.0};
        opt.threads = threads;
        opt.window = window;
        MemoryTraceStream stream(trace);
        const AnalysisReport report = analyze_stream(stream, opt);
        const std::string where = "seed " + std::to_string(seed) + " threads " +
                                  std::to_string(threads) + " window " +
                                  std::to_string(window);
        expect_matches_oracle(report.contacts.at(10.0), want10, where + " r 10");
        expect_matches_oracle(report.contacts.at(20.0), want20, where + " r 20");
      }
    }
  }
}

// A real 2 h Isle of View crawl under the blackout fault scenario. When the
// crawler relogs after a gap the whole population reappears at once, so
// hundreds of contacts open in the same snapshot, and gaps censor the
// contact path.
const Trace& gapped_crawler_trace() {
  static const Trace trace = [] {
    ExperimentConfig cfg;
    cfg.archetype = LandArchetype::kIsleOfView;
    cfg.duration = 2.0 * kSecondsPerHour;
    cfg.ranges = {};
    cfg.analysis_threads = 1;
    cfg.fault_scenario = "blackouts";
    return run_experiment(cfg).trace;
  }();
  return trace;
}

AnalysisReport stream_contacts(const Trace& trace, std::size_t threads, std::size_t window) {
  StreamingOptions opt;
  opt.ranges = {10.0, 80.0};
  opt.threads = threads;
  opt.window = window;
  MemoryTraceStream stream(trace);
  return analyze_stream(stream, opt);
}

bool start_then_pair_less(const ContactInterval& x, const ContactInterval& y) {
  return std::tie(x.start, x.a.value, x.b.value) < std::tie(y.start, y.a.value, y.b.value);
}

// Contacts opening in one snapshot take their output slots in pair-key
// order, so the intervals come out ordered without a sort, whatever order
// the proximity kernel listed the pairs in.
TEST(ContactOracle, IntervalsInStartThenPairOrder) {
  std::vector<Trace> traces;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; seed += 7) {
    traces.push_back(random_contact_trace(seed));
  }
  traces.push_back(gapped_crawler_trace());
  ASSERT_FALSE(traces.back().gaps().empty());
  std::size_t most_opened_together = 0;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    for (const std::size_t threads : {1u, 4u}) {
      for (const std::size_t window : {1u, 3u, 64u}) {
        const AnalysisReport report = stream_contacts(traces[k], threads, window);
        for (const auto& [range, contacts] : report.contacts) {
          const auto& iv = contacts.intervals;
          const auto bad = std::adjacent_find(
              iv.begin(), iv.end(), [](const ContactInterval& x, const ContactInterval& y) {
                return !start_then_pair_less(x, y);
              });
          EXPECT_EQ(bad, iv.end())
              << "trace " << k << " threads " << threads << " window " << window << " r "
              << range << ": interval " << (bad - iv.begin()) << " is not before the next";
          for (auto run = iv.begin(); run != iv.end();) {
            const auto next = std::find_if(run, iv.end(), [&](const ContactInterval& x) {
              return x.start != run->start;
            });
            most_opened_together =
                std::max(most_opened_together, static_cast<std::size_t>(next - run));
            run = next;
          }
        }
      }
    }
  }
  EXPECT_GT(most_opened_together, 100u);  // the crawler trace's relogins
}

// Sorted samples as bit patterns, so -0.0 and 0.0 would differ.
std::vector<std::uint64_t> sample_bits(const Ecdf& ecdf) {
  std::vector<std::uint64_t> bits;
  for (const double x : ecdf.sorted()) bits.push_back(std::bit_cast<std::uint64_t>(x));
  return bits;
}

// `trace` with every avatar id v replaced by top - v: a bijection that
// reverses the order of ids, and so of pair keys and of each pair's (a, b).
Trace relabelled(const Trace& trace, std::uint32_t top) {
  Trace out(trace.land_name(), trace.sampling_interval());
  for (Snapshot snap : trace.snapshots()) {
    for (AvatarFix& fix : snap.fixes) fix.id = AvatarId{top - fix.id.value};
    out.add(std::move(snap));
  }
  for (const CoverageGap& gap : trace.gaps()) out.add_gap(gap.start, gap.end);
  for (const auto& d : trace.degradations()) out.add_degradation(d.start, d.end, d.factor);
  return out;
}

// ROADMAP 3(b), first relation: the paper's metrics do not depend on how
// avatars are named. Relabelling reverses the key order the contact path
// sorts by and regroups the ICT pass (a pair's `a` becomes its `b`).
TEST(ContactOracle, RelabellingIdsLeavesEcdfsUnchanged) {
  std::vector<Trace> traces;
  for (std::uint64_t seed = 1; seed <= kOracleSeeds; seed += 5) {
    traces.push_back(random_contact_trace(seed));
  }
  traces.push_back(gapped_crawler_trace());
  std::size_t chained = 0;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    std::uint32_t top = 1;
    for (const Snapshot& snap : traces[k].snapshots()) {
      for (const AvatarFix& fix : snap.fixes) top = std::max(top, fix.id.value + 1);
    }
    const AnalysisReport want = stream_contacts(traces[k], 1, 64);
    const AnalysisReport got = stream_contacts(relabelled(traces[k], top), 4, 3);
    for (const auto& [range, c] : want.contacts) {
      const std::string where = "trace " + std::to_string(k) + " r " + std::to_string(range);
      const ContactAnalysis& r = got.contacts.at(range);
      EXPECT_EQ(sample_bits(r.contact_times), sample_bits(c.contact_times)) << where;
      EXPECT_EQ(sample_bits(r.inter_contact_times), sample_bits(c.inter_contact_times)) << where;
      EXPECT_EQ(sample_bits(r.first_contact_times), sample_bits(c.first_contact_times)) << where;
      EXPECT_EQ(r.users_seen, c.users_seen) << where;
      EXPECT_EQ(r.users_with_contact, c.users_with_contact) << where;
      chained += c.inter_contact_times.size();

      std::vector<ContactInterval> back = r.intervals;
      for (ContactInterval& iv : back) {
        const std::uint32_t a = top - iv.a.value;
        const std::uint32_t b = top - iv.b.value;
        iv.a = AvatarId{std::min(a, b)};
        iv.b = AvatarId{std::max(a, b)};
      }
      std::sort(back.begin(), back.end(), start_then_pair_less);
      ASSERT_EQ(back.size(), c.intervals.size()) << where;
      for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].a, c.intervals[i].a) << where << " interval " << i;
        EXPECT_EQ(back[i].b, c.intervals[i].b) << where << " interval " << i;
        EXPECT_EQ(back[i].start, c.intervals[i].start) << where << " interval " << i;
        EXPECT_EQ(back[i].end, c.intervals[i].end) << where << " interval " << i;
      }
    }
    for (const auto& [range, g] : want.graphs) {
      const std::string where = "trace " + std::to_string(k) + " r " + std::to_string(range);
      const GraphMetrics& r = got.graphs.at(range);
      EXPECT_EQ(sample_bits(r.degrees), sample_bits(g.degrees)) << where;
      EXPECT_EQ(sample_bits(r.diameters), sample_bits(g.diameters)) << where;
      EXPECT_EQ(sample_bits(r.clustering), sample_bits(g.clustering)) << where;
      EXPECT_EQ(r.snapshots_analyzed, g.snapshots_analyzed) << where;
      EXPECT_EQ(r.isolated_fraction, g.isolated_fraction) << where;
    }
  }
  EXPECT_GT(chained, 1000u);
}

// `trace` with every fix's planar position mapped by `move`; gaps and
// degradations kept.
template <typename Move>
Trace moved(const Trace& trace, Move move) {
  Trace out(trace.land_name(), trace.sampling_interval());
  for (Snapshot snap : trace.snapshots()) {
    for (AvatarFix& fix : snap.fixes) fix.pos = move(fix.pos);
    out.add(std::move(snap));
  }
  for (const CoverageGap& gap : trace.gaps()) out.add_gap(gap.start, gap.end);
  for (const auto& d : trace.degradations()) out.add_degradation(d.start, d.end, d.factor);
  return out;
}

// ROADMAP 3(c): the paper's metrics do not depend on how the land is
// oriented. A crawler trace holds integer metres in [0, 255], so swapping x
// and y or reflecting x -> 255 - x keeps every squared distance exact, while
// both transforms reorder every pair list's cell traversal. Contacts and
// graphs are therefore equal bit for bit, whatever order the pairs come in;
// zones depend on the cell grid and are left out.
TEST(ContactOracle, SwappingOrReflectingAxesLeavesEcdfsUnchanged) {
  const Trace& trace = gapped_crawler_trace();
  for (const Snapshot& snap : trace.snapshots()) {
    for (const AvatarFix& fix : snap.fixes) {
      ASSERT_EQ(fix.pos.x, std::floor(fix.pos.x));
      ASSERT_EQ(fix.pos.y, std::floor(fix.pos.y));
      ASSERT_TRUE(fix.pos.x >= 0.0 && fix.pos.x <= 255.0 && fix.pos.y >= 0.0 &&
                  fix.pos.y <= 255.0);
    }
  }
  const AnalysisReport want = stream_contacts(trace, 1, 64);
  const std::vector<std::pair<std::string, Trace>> variants = {
      {"swap", moved(trace, [](Vec3 p) { return Vec3{p.y, p.x, p.z}; })},
      {"reflect", moved(trace, [](Vec3 p) { return Vec3{255.0 - p.x, p.y, p.z}; })}};
  for (const auto& [name, variant] : variants) {
    const AnalysisReport got = stream_contacts(variant, 4, 3);
    for (const auto& [range, c] : want.contacts) {
      const std::string where = name + " r " + std::to_string(range);
      const ContactAnalysis& r = got.contacts.at(range);
      ASSERT_EQ(r.intervals.size(), c.intervals.size()) << where;
      for (std::size_t i = 0; i < c.intervals.size(); ++i) {
        EXPECT_EQ(r.intervals[i].a, c.intervals[i].a) << where << " interval " << i;
        EXPECT_EQ(r.intervals[i].b, c.intervals[i].b) << where << " interval " << i;
        EXPECT_EQ(r.intervals[i].start, c.intervals[i].start) << where << " interval " << i;
        EXPECT_EQ(r.intervals[i].end, c.intervals[i].end) << where << " interval " << i;
      }
      EXPECT_EQ(sample_bits(r.contact_times), sample_bits(c.contact_times)) << where;
      EXPECT_EQ(sample_bits(r.inter_contact_times), sample_bits(c.inter_contact_times)) << where;
      EXPECT_EQ(sample_bits(r.first_contact_times), sample_bits(c.first_contact_times)) << where;
      EXPECT_EQ(r.users_seen, c.users_seen) << where;
      EXPECT_EQ(r.users_with_contact, c.users_with_contact) << where;
    }
    for (const auto& [range, g] : want.graphs) {
      const std::string where = name + " r " + std::to_string(range);
      const GraphMetrics& r = got.graphs.at(range);
      EXPECT_EQ(sample_bits(r.degrees), sample_bits(g.degrees)) << where;
      EXPECT_EQ(sample_bits(r.diameters), sample_bits(g.diameters)) << where;
      EXPECT_EQ(sample_bits(r.clustering), sample_bits(g.clustering)) << where;
      EXPECT_EQ(r.snapshots_analyzed, g.snapshots_analyzed) << where;
      EXPECT_EQ(r.isolated_fraction, g.isolated_fraction) << where;
    }
  }
  EXPECT_GT(want.contacts.at(80.0).intervals.size(), 1000u);
}

TEST(ContactOracle, ShortGapAfterTheLastSnapshotTruncatesOpenContacts) {
  TraceBuilder b;
  b.snap({{1, 0.0}, {2, 5.0}});
  b.snap({{1, 0.0}, {2, 5.0}});  // t=10, last snapshot
  b.trace.add_gap(12.5, 15.0);   // ends before t=10 + tau
  const OracleContacts want = contact_oracle(b.trace, 10.0);
  ASSERT_EQ(want.intervals.size(), 1u);
  EXPECT_EQ(want.intervals[0].end, 12.5);
  expect_matches_oracle(contacts_of(b.trace, 10.0), want, "short trailing gap");
}

TEST(ContactOracle, ContactEndingAtARepeatedSnapshotTimeIsKept) {
  // Trace::add takes two snapshots with the same time. A contact seen in
  // the first and not in the second ended there; it used to be dropped
  // instead of closed, because its last sighting was not before "now".
  Trace trace("repeat", 10.0);
  for (const auto& [t, x] : {std::pair{0.0, 5.0}, std::pair{0.0, 50.0}, std::pair{10.0, 5.0}}) {
    Snapshot snap;
    snap.time = t;
    snap.fixes.push_back({AvatarId{1}, {0.0, 0.0, 22.0}});
    snap.fixes.push_back({AvatarId{2}, {x, 0.0, 22.0}});
    trace.add(std::move(snap));
  }
  const OracleContacts want = contact_oracle(trace, 10.0);
  ASSERT_EQ(want.intervals.size(), 2u);
  EXPECT_EQ(want.intervals[0].end, 10.0);
  expect_matches_oracle(contacts_of(trace, 10.0), want, "repeated time");
}

TEST(ContactOracle, TieAtExactlyRangeIsAContact) {
  // A 6-8-10 triangle: distance exactly r.
  Trace trace("tie", 10.0);
  for (int k = 0; k < 3; ++k) {
    Snapshot snap;
    snap.time = 10.0 * k;
    snap.fixes.push_back({AvatarId{1}, {0.0, 0.0, 22.0}});
    snap.fixes.push_back({AvatarId{2}, {k == 1 ? 7.0 : 6.0, 8.0, 22.0}});
    trace.add(std::move(snap));
  }
  const OracleContacts want = contact_oracle(trace, 10.0);
  ASSERT_EQ(want.intervals.size(), 2u);
  ASSERT_EQ(want.inter_contact_times.size(), 1u);
  EXPECT_EQ(want.inter_contact_times[0], 10.0);
  expect_matches_oracle(contacts_of(trace, 10.0), want, "tie");
}

// ---------------------------------------------------------------------------
// ContactKeys: the key stage against a brute-force std::set of the distinct
// id pairs of each pair list.

ContactKeys brute_force_keys(const Snapshot& snap, const ContactStream::PairList& pairs) {
  std::set<std::uint64_t> keys;
  ContactKeys out;
  out.in_contact.assign(snap.fixes.size(), 0);
  for (const auto& [i, j] : pairs) {
    const std::uint32_t a = snap.fixes[i].id.value;
    const std::uint32_t b = snap.fixes[j].id.value;
    if (a == b) continue;
    keys.insert((std::uint64_t{std::min(a, b)} << 32) | std::max(a, b));
    out.in_contact[i] = 1;
    out.in_contact[j] = 1;
  }
  out.keys.assign(keys.begin(), keys.end());
  return out;
}

// Runs the key stage over `lists` into `got` (reused, so stale output from
// an earlier call must not leak through) and checks every range.
void expect_keys_match(const Snapshot& snap, const std::vector<ContactStream::PairList>& lists,
                       std::vector<ContactKeys>& got, const std::string& where) {
  got.resize(lists.size());
  contact_keys(snap, lists, got);
  for (std::size_t ri = 0; ri < lists.size(); ++ri) {
    const ContactKeys want = brute_force_keys(snap, lists[ri]);
    EXPECT_EQ(got[ri].keys, want.keys) << where << " list " << ri;
    EXPECT_EQ(got[ri].in_contact, want.in_contact) << where << " list " << ri;
  }
}

Snapshot snapshot_of_ids(const std::vector<std::uint32_t>& ids) {
  Snapshot snap;
  for (const std::uint32_t id : ids) snap.fixes.push_back({AvatarId{id}, {}});
  return snap;
}

ContactStream::PairList all_pairs(std::size_t n) {
  ContactStream::PairList pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  return pairs;
}

// Random snapshots of up to 150 fixes whose ids come from pools of 1 to
// 200 ids (so duplicate ids, one-id snapshots and more than 64 distinct ids
// all occur), ids up to the top of the u32 range, and two pair lists per
// snapshot — a random subset of all fix pairs (a few listed twice) and a
// subset of that, like a smaller range — each shuffled, with either
// orientation of a pair.
TEST(ContactKeys, RandomSnapshotsMatchBruteForce) {
  Rng rng(2024);
  std::vector<ContactKeys> got;  // reused across snapshots
  std::size_t keys = 0;
  std::size_t dropped_same_id = 0;
  std::size_t most_distinct = 0;
  for (int round = 0; round < 300; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 150));
    const auto pool = static_cast<std::uint32_t>(rng.uniform_int(1, 200));
    const std::uint32_t base = rng.bernoulli(0.3) ? 0xffffffffu - pool : 1;
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(base + static_cast<std::uint32_t>(rng.uniform_int(0, pool - 1)));
    }
    const Snapshot snap = snapshot_of_ids(ids);
    std::vector<ContactStream::PairList> lists(2);
    const double density = rng.uniform(0.0, 0.5);
    for (const auto& [i, j] : all_pairs(n)) {
      if (!rng.bernoulli(density)) continue;
      const bool flip = rng.bernoulli(0.5);
      lists[0].emplace_back(flip ? j : i, flip ? i : j);
      if (rng.bernoulli(0.02)) lists[0].push_back(lists[0].back());  // listed twice
      if (rng.bernoulli(0.3)) lists[1].push_back(lists[0].back());
      if (ids[i] == ids[j]) ++dropped_same_id;
    }
    for (auto& list : lists) {
      for (std::size_t k = list.size(); k > 1; --k) {
        std::swap(list[k - 1], list[static_cast<std::size_t>(
                                   rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
      }
    }
    expect_keys_match(snap, lists, got, "round " + std::to_string(round));
    keys += got[0].keys.size();
    most_distinct = std::max(most_distinct, std::set<std::uint32_t>(ids.begin(), ids.end()).size());
  }
  // The generator must exercise what the test claims.
  EXPECT_GT(keys, 10000u);
  EXPECT_GT(dropped_same_id, 100u);
  EXPECT_GT(most_distinct, 64u);
}

TEST(ContactKeys, PairReachedThroughTwoFixesOfOneIdIsEmittedOnce) {
  const Snapshot snap = snapshot_of_ids({7, 5, 5});
  std::vector<ContactKeys> got;
  expect_keys_match(snap, {{{1, 0}, {0, 2}, {1, 2}}}, got, "two fixes of id 5");
  ASSERT_EQ(got[0].keys.size(), 1u);
  EXPECT_EQ(got[0].keys[0], (std::uint64_t{5} << 32) | 7);
  EXPECT_EQ(got[0].in_contact, (std::vector<std::uint8_t>{1, 1, 1}));
  // Only the same-id pair: no key, and neither fix is in contact.
  expect_keys_match(snap, {{{1, 2}}}, got, "same-id pair alone");
  EXPECT_TRUE(got[0].keys.empty());
  EXPECT_EQ(got[0].in_contact, (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(ContactKeys, SnapshotOfOneIdHasNoKeys) {
  const Snapshot snap = snapshot_of_ids({9, 9, 9, 9, 9});
  std::vector<ContactKeys> got;
  expect_keys_match(snap, {all_pairs(5), {}}, got, "one id");
  for (const ContactKeys& k : got) {
    EXPECT_TRUE(k.keys.empty());
    EXPECT_EQ(k.in_contact, std::vector<std::uint8_t>(5, 0));
  }
}

TEST(ContactKeys, EmptyAndSingleFixSnapshots) {
  std::vector<ContactKeys> got;
  expect_keys_match(snapshot_of_ids({3, 1, 2}), {all_pairs(3), all_pairs(3)}, got, "warm");
  expect_keys_match(snapshot_of_ids({}), {{}, {}}, got, "empty");
  for (const ContactKeys& k : got) {
    EXPECT_TRUE(k.keys.empty());
    EXPECT_TRUE(k.in_contact.empty());
  }
  expect_keys_match(snapshot_of_ids({4}), {{}, {}}, got, "single fix");
  for (const ContactKeys& k : got) {
    EXPECT_TRUE(k.keys.empty());
    EXPECT_EQ(k.in_contact, std::vector<std::uint8_t>{0});
  }
}

// 100 distinct ids listed in descending order, every pair in range: the
// ranks run against fix order, and there are more ranks than bits in a
// machine word.
TEST(ContactKeys, MoreThan64DistinctIdsInDescendingOrder) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 1000; id > 900; --id) ids.push_back(id);
  std::vector<ContactKeys> got;
  expect_keys_match(snapshot_of_ids(ids), {all_pairs(ids.size())}, got, "100 ids");
  EXPECT_EQ(got[0].keys.size(), 100u * 99u / 2u);
}

}  // namespace
}  // namespace slmob
