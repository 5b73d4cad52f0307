// Streaming trace access (trace/stream.hpp): every TraceStream flavour must
// emit the same events as walking the trace that was written, honouring the
// ordering contract — a gap [start, end) is emitted before any snapshot with
// time >= start — and a torn journal must stream exactly the records whose
// frames survived the cut, plus the documented trailing censoring gap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "trace/stream.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

Trace small_trace(std::uint64_t seed, std::size_t snapshots, std::size_t users) {
  Rng rng(seed);
  Trace t("stream-test", 10.0);
  for (std::size_t s = 0; s < snapshots; ++s) {
    Snapshot snap;
    snap.time = static_cast<double>(s) * 10.0;
    for (std::size_t u = 0; u < users; ++u) {
      if (rng.uniform(0.0, 1.0) < 0.3) continue;
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(u + 1)},
                            {rng.uniform(0.0, 255.0), rng.uniform(0.0, 255.0), 22.0}});
    }
    t.add(std::move(snap));
  }
  return t;
}

// Flattened event record for sequence comparison across stream kinds.
struct Recorded {
  StreamEventKind kind;
  Seconds time;
  std::size_t fixes;   // kSnapshot only
  Seconds gap_end;     // kGap only
};

std::vector<Recorded> drain(TraceStream& stream) {
  std::vector<Recorded> out;
  for (;;) {
    const StreamEvent ev = stream.next();
    if (ev.kind == StreamEventKind::kEnd) break;
    Recorded r{ev.kind, 0.0, 0, 0.0};
    switch (ev.kind) {
      case StreamEventKind::kSnapshot:
        r.time = ev.snapshot->time;
        r.fixes = ev.snapshot->fixes.size();
        break;
      case StreamEventKind::kGap:
        r.time = ev.gap.start;
        r.gap_end = ev.gap.end;
        break;
      case StreamEventKind::kSessionEvent:
      case StreamEventKind::kRateChange:
        r.time = ev.time;
        break;
      case StreamEventKind::kEnd:
        break;
    }
    out.push_back(r);
  }
  // kEnd must be sticky.
  EXPECT_EQ(stream.next().kind, StreamEventKind::kEnd);
  return out;
}

void expect_same_events(const std::vector<Recorded>& a, const std::vector<Recorded>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].kind, b[i].kind) << "event " << i;
    ASSERT_EQ(a[i].time, b[i].time) << "event " << i;
    ASSERT_EQ(a[i].fixes, b[i].fixes) << "event " << i;
    ASSERT_EQ(a[i].gap_end, b[i].gap_end) << "event " << i;
  }
}

// Asserts the stream ordering contract over a recorded sequence.
void expect_gap_contract(const std::vector<Recorded>& events) {
  for (std::size_t g = 0; g < events.size(); ++g) {
    if (events[g].kind != StreamEventKind::kGap) continue;
    for (std::size_t s = 0; s < g; ++s) {
      if (events[s].kind != StreamEventKind::kSnapshot) continue;
      EXPECT_LT(events[s].time, events[g].time)
          << "snapshot at " << events[s].time << " emitted before gap ["
          << events[g].time << ", " << events[g].gap_end << ")";
    }
  }
}

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(::testing::TempDir() + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(MemoryTraceStream, EmitsSnapshotsInOrder) {
  const Trace trace = small_trace(1, 12, 8);
  MemoryTraceStream stream(trace);
  EXPECT_EQ(stream.land_name(), "stream-test");
  EXPECT_EQ(stream.sampling_interval(), 10.0);
  const auto events = drain(stream);
  ASSERT_EQ(events.size(), trace.snapshots().size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, StreamEventKind::kSnapshot);
    EXPECT_EQ(events[i].time, trace.snapshots()[i].time);
    EXPECT_EQ(events[i].fixes, trace.snapshots()[i].fixes.size());
  }
}

TEST(MemoryTraceStream, GapsMergeOrderedPerContract) {
  Trace trace = small_trace(2, 20, 6);
  trace.add_gap(35.0, 55.0);    // between snapshots 3 and 6
  trace.add_gap(120.0, 130.0);  // contains snapshot 12
  MemoryTraceStream stream(trace);
  const auto events = drain(stream);
  ASSERT_EQ(events.size(), trace.snapshots().size() + 2);
  expect_gap_contract(events);
  // The first gap precedes the snapshot at t=40 (first snapshot >= 35).
  const auto gap_it = std::find_if(events.begin(), events.end(), [](const Recorded& e) {
    return e.kind == StreamEventKind::kGap;
  });
  ASSERT_NE(gap_it, events.end());
  const auto next_snap = std::find_if(gap_it, events.end(), [](const Recorded& e) {
    return e.kind == StreamEventKind::kSnapshot;
  });
  ASSERT_NE(next_snap, events.end());
  EXPECT_EQ(next_snap->time, 40.0);
}

TEST(MemoryTraceStream, OwningConstructorOutlivesSource) {
  Trace trace = small_trace(3, 5, 4);
  const std::size_t want = trace.snapshots().size();
  MemoryTraceStream stream(std::move(trace));
  EXPECT_EQ(drain(stream).size(), want);
}

// A saved trace streams the events of the trace it was saved from, in the
// same order: a gap and a window inside the snapshots, a gap past them.
TEST(JournalFileStream, SavedTraceMatchesMemoryStream) {
  Trace trace = small_trace(4, 30, 10);
  trace.add_degradation(55.0, 95.0, 2);
  trace.add_gap(95.0, 115.0);
  trace.add_gap(300.0, 320.0);
  TempPath tmp("stream_roundtrip.slt");
  save_trace(trace, tmp.path);

  JournalFileStream file_stream(tmp.path);
  EXPECT_EQ(file_stream.land_name(), trace.land_name());
  EXPECT_EQ(file_stream.sampling_interval(), trace.sampling_interval());
  MemoryTraceStream mem_stream(trace);
  expect_same_events(drain(file_stream), drain(mem_stream));
  EXPECT_TRUE(file_stream.clean_end());
  EXPECT_FALSE(file_stream.torn());
}

TEST(JournalFileStream, FixContentsSurviveRoundTrip) {
  TempPath tmp("stream_fixes.slt");
  const Trace trace = small_trace(5, 6, 5);
  save_trace(trace, tmp.path);
  // A trace file stores positions as f32: the stream must return the
  // written positions rounded to float, bit for bit.
  const auto f32 = [](double v) { return static_cast<double>(static_cast<float>(v)); };
  JournalFileStream stream(tmp.path);
  for (const auto& want : trace.snapshots()) {
    const StreamEvent ev = stream.next();
    ASSERT_EQ(ev.kind, StreamEventKind::kSnapshot);
    ASSERT_EQ(ev.snapshot->fixes.size(), want.fixes.size());
    for (std::size_t i = 0; i < want.fixes.size(); ++i) {
      EXPECT_EQ(ev.snapshot->fixes[i].id, want.fixes[i].id);
      EXPECT_EQ(ev.snapshot->fixes[i].pos.x, f32(want.fixes[i].pos.x));
      EXPECT_EQ(ev.snapshot->fixes[i].pos.y, f32(want.fixes[i].pos.y));
      EXPECT_EQ(ev.snapshot->fixes[i].pos.z, f32(want.fixes[i].pos.z));
    }
  }
  EXPECT_EQ(stream.next().kind, StreamEventKind::kEnd);
}

Recorded snapshot_event(const Snapshot& snap) {
  return {StreamEventKind::kSnapshot, snap.time, snap.fixes.size(), 0.0};
}

Recorded gap_event(Seconds start, Seconds end) {
  return {StreamEventKind::kGap, start, 0, end};
}

TEST(JournalFileStream, CleanJournalStreamsLikeSalvagedTrace) {
  const Trace trace = small_trace(6, 15, 8);
  TempPath tmp("stream_clean.sltj");
  std::uint64_t final_offset = 0;
  {
    TraceJournalWriter w(tmp.path, 150.0);
    w.begin(trace.land_name(), trace.sampling_interval());
    for (std::size_t i = 0; i < trace.snapshots().size(); ++i) {
      if (i == 4) {
        w.append_gap_open(38.0);
        w.append_gap_close(38.0, 40.0);
      }
      w.append_snapshot(trace.snapshots()[i]);
    }
    w.append_session(100.0, SessionEvent::kRelogin, "test");
    w.append_end(150.0);
    final_offset = w.offset();
  }

  // Every record in writing order; the gap close goes out as the gap, the
  // open frame and kEnd emit nothing, and no trailing gap is added.
  std::vector<Recorded> want;
  for (std::size_t i = 0; i < trace.snapshots().size(); ++i) {
    if (i == 4) want.push_back(gap_event(38.0, 40.0));
    want.push_back(snapshot_event(trace.snapshots()[i]));
  }
  want.push_back({StreamEventKind::kSessionEvent, 100.0, 0, 0.0});

  JournalFileStream stream(tmp.path);
  EXPECT_EQ(stream.land_name(), trace.land_name());
  EXPECT_EQ(stream.sampling_interval(), trace.sampling_interval());
  EXPECT_EQ(stream.planned_end(), 150.0);
  const auto events = drain(stream);
  expect_same_events(events, want);
  expect_gap_contract(events);
  EXPECT_TRUE(stream.clean_end());
  EXPECT_FALSE(stream.torn());
  EXPECT_EQ(stream.snapshot_frames(), trace.snapshots().size());
  EXPECT_EQ(stream.session_events(), 1u);
  EXPECT_EQ(stream.frames_read(), 1 + trace.snapshots().size() + 2 + 1 + 1);
  EXPECT_EQ(stream.bytes_kept(), final_offset);
}

TEST(JournalFileStream, TornTailMatchesSalvageAtEveryTruncation) {
  const Trace trace = small_trace(7, 10, 6);
  const Seconds tau = trace.sampling_interval();
  const Seconds planned_end = 100.0;
  TempPath tmp("stream_torn.sltj");
  // Frame frontier after kBegin and after each snapshot frame.
  std::uint64_t begin_end = 0;
  std::vector<std::uint64_t> snapshot_end;
  {
    TraceJournalWriter w(tmp.path, planned_end);
    w.begin(trace.land_name(), tau);
    begin_end = w.offset();
    for (const auto& snap : trace.snapshots()) {
      w.append_snapshot(snap);
      snapshot_end.push_back(w.offset());
    }
    w.append_end(planned_end);
  }
  std::FILE* f = std::fopen(tmp.path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const auto full = static_cast<std::uint64_t>(std::ftell(f));
  std::vector<std::uint8_t> bytes(full);
  std::rewind(f);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);

  // Truncate at a spread of offsets (every 7 bytes) past the kBegin frame (a
  // file cut inside it never held one complete record and is rejected).
  // At each cut the stream keeps exactly the snapshots whose frame ends at
  // or before it, then censors from one interval past the last of them to
  // the planned end.
  TempPath cut("stream_torn_cut.sltj");
  for (std::uint64_t len = begin_end; len < full; len += 7) {
    std::FILE* out = std::fopen(cut.path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, len, out), len);
    ASSERT_EQ(std::fclose(out), 0);

    std::vector<Recorded> want;
    std::uint64_t kept = begin_end;
    for (std::size_t i = 0; i < snapshot_end.size() && snapshot_end[i] <= len; ++i) {
      want.push_back(snapshot_event(trace.snapshots()[i]));
      kept = snapshot_end[i];
    }
    if (!want.empty()) {
      const Seconds start = want.back().time + tau;
      want.push_back(gap_event(start, std::max(planned_end, start + tau)));
    }

    JournalFileStream stream(cut.path);
    expect_same_events(drain(stream), want);
    EXPECT_EQ(stream.torn(), len != kept) << "len " << len;
    EXPECT_EQ(stream.bytes_kept(), kept) << "len " << len;
    EXPECT_FALSE(stream.clean_end()) << "len " << len;
  }
}

TEST(GapTracker, AnswersLikeTraceOnTheSameGaps) {
  Trace trace("gap-test", 10.0);
  for (int i = 0; i < 30; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    trace.add(std::move(s));
  }
  trace.add_gap(45.0, 75.0);
  trace.add_gap(200.0, 230.0);

  GapTracker tracker;
  for (const auto& g : trace.gaps()) tracker.add(g.start, g.end);
  EXPECT_TRUE(tracker.any());
  EXPECT_EQ(tracker.gaps().size(), 2u);
  EXPECT_EQ(tracker.gap_seconds(), 60.0);
  // A Trace answers through its own GapTracker, so the reference is a
  // brute-force scan of the whole gap list, not the trace.
  const auto inside_any = [&](double t) {
    return std::any_of(trace.gaps().begin(), trace.gaps().end(),
                       [&](const CoverageGap& g) { return g.contains(t); });
  };
  const auto overlaps_any = [&](double t0, double t1) {
    return std::any_of(trace.gaps().begin(), trace.gaps().end(),
                       [&](const CoverageGap& g) { return g.start < t1 && g.end > t0; });
  };
  for (double t = 0.0; t <= 300.0; t += 5.0) {
    EXPECT_EQ(tracker.covered_at(t), !inside_any(t)) << "t=" << t;
  }
  for (double t0 = 0.0; t0 <= 280.0; t0 += 20.0) {
    EXPECT_EQ(tracker.spans_gap(t0, t0 + 30.0), overlaps_any(t0, t0 + 30.0)) << "t0=" << t0;
  }
  // Truncation point: start of the first gap ending after t.
  EXPECT_EQ(tracker.next_gap_start(10.0), 45.0);
  EXPECT_EQ(tracker.next_gap_start(100.0), 200.0);
  EXPECT_EQ(tracker.next_gap_start(250.0), 250.0);  // past the last gap
}

TEST(GapTracker, RejectsInvalidGaps) {
  GapTracker tracker;
  EXPECT_THROW(tracker.add(10.0, 10.0), std::invalid_argument);
  tracker.add(10.0, 20.0);
  EXPECT_THROW(tracker.add(15.0, 30.0), std::invalid_argument);  // overlap
  EXPECT_THROW(tracker.add(5.0, 8.0), std::invalid_argument);    // out of order
}

TEST(OpenTraceStream, DispatchesOnExtension) {
  Trace trace = small_trace(8, 8, 5);
  trace.add_gap(25.0, 45.0);

  // A saved trace is a journal, whatever its name.
  TempPath slt("dispatch.slt");
  save_trace(trace, slt.path);
  auto a = open_trace_stream(slt.path);
  EXPECT_NE(dynamic_cast<JournalFileStream*>(a.get()), nullptr);

  TempPath csv("dispatch.csv");
  std::FILE* f = std::fopen(csv.path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string text = trace_to_csv(trace);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  ASSERT_EQ(std::fclose(f), 0);
  auto b = open_trace_stream(csv.path);
  EXPECT_NE(dynamic_cast<MemoryTraceStream*>(b.get()), nullptr);

  TempPath sltj("dispatch.sltj");
  {
    TraceJournalWriter w(sltj.path, 0.0);
    w.begin(trace.land_name(), trace.sampling_interval());
    for (const auto& snap : trace.snapshots()) w.append_snapshot(snap);
    w.append_end(80.0);
  }
  auto c = open_trace_stream(sltj.path);
  EXPECT_NE(dynamic_cast<JournalFileStream*>(c.get()), nullptr);

  // All three agree on the snapshot sequence.
  const auto ea = drain(*a);
  const auto eb = drain(*b);
  auto snaps_of = [](const std::vector<Recorded>& evs) {
    std::vector<Recorded> out;
    for (const auto& e : evs) {
      if (e.kind == StreamEventKind::kSnapshot) out.push_back(e);
    }
    return out;
  };
  expect_same_events(snaps_of(ea), snaps_of(eb));
  expect_same_events(snaps_of(ea), snaps_of(drain(*c)));
}

TEST(DriveStream, PumpsEveryEventIntoTheSink) {
  Trace trace = small_trace(9, 10, 5);
  trace.add_gap(42.0, 58.0);

  struct RecordingSink final : LiveTraceSink {
    std::string land;
    Seconds interval{0.0};
    std::size_t begins{0};
    std::vector<Seconds> snapshot_times;
    std::vector<CoverageGap> gaps;
    void on_begin(const std::string& land_name, Seconds sampling_interval) override {
      ++begins;
      land = land_name;
      interval = sampling_interval;
    }
    void on_snapshot(const Snapshot& snapshot) override {
      snapshot_times.push_back(snapshot.time);
    }
    void on_gap(Seconds start, Seconds end) override { gaps.push_back({start, end}); }
  } sink;

  MemoryTraceStream stream(trace);
  drive_stream(stream, sink);
  EXPECT_EQ(sink.begins, 1u);
  EXPECT_EQ(sink.land, trace.land_name());
  EXPECT_EQ(sink.interval, trace.sampling_interval());
  ASSERT_EQ(sink.snapshot_times.size(), trace.snapshots().size());
  for (std::size_t i = 0; i < sink.snapshot_times.size(); ++i) {
    EXPECT_EQ(sink.snapshot_times[i], trace.snapshots()[i].time);
  }
  ASSERT_EQ(sink.gaps.size(), 1u);
  EXPECT_EQ(sink.gaps[0].start, 42.0);
  EXPECT_EQ(sink.gaps[0].end, 58.0);
}

}  // namespace
}  // namespace slmob
