#include "trace/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "trace/codec.hpp"

namespace slmob {
namespace {

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
  std::fclose(f);
  return bytes;
}

Snapshot make_snapshot(Seconds time, std::uint32_t base_id, std::size_t count) {
  Snapshot snap;
  snap.time = time;
  for (std::size_t i = 0; i < count; ++i) {
    snap.fixes.push_back({AvatarId{base_id + static_cast<std::uint32_t>(i)},
                          {10.0 * static_cast<double>(i), 20.0, 22.5}});
  }
  return snap;
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

// Appends `payload` to `bytes` as one CRC-valid frame.
void append_frame(std::vector<std::uint8_t>& bytes,
                         std::span<const std::uint8_t> payload) {
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload));
  frame.raw(payload);
  bytes.insert(bytes.end(), frame.bytes().begin(), frame.bytes().end());
}

// Salvages `bytes` through a file named after the running test (ctest runs
// tests in parallel): salvage_journal is the one journal reader.
JournalSalvage salvage_bytes(std::span<const std::uint8_t> bytes) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path =
      temp_path(std::string("salvage_") + info->test_suite_name() + "." + info->name() + ".sltj");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  EXPECT_EQ(std::fclose(f), 0);
  struct Remove {
    const std::string& path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return salvage_journal(path);
}

TEST(TraceJournal, RoundTripCleanEnd) {
  const std::string path = temp_path("journal_roundtrip.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("Test Land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 3));
    writer.append_snapshot(make_snapshot(10.0, 1, 2));
    writer.append_gap_open(20.0);
    writer.append_gap_close(20.0, 40.0);
    writer.append_snapshot(make_snapshot(40.0, 5, 1));
    writer.append_session(25.0, SessionEvent::kRelogin, "timeout");
    writer.append_end(100.0);
  }
  const JournalSalvage s = salvage_journal(path);
  EXPECT_TRUE(s.clean_end);
  EXPECT_FALSE(s.torn);
  EXPECT_EQ(s.snapshots, 3u);
  EXPECT_EQ(s.session_events, 1u);
  EXPECT_EQ(s.frames_read, 8u);  // begin + 3 snapshots + open + close + session + end
  EXPECT_DOUBLE_EQ(s.planned_end, 100.0);

  EXPECT_EQ(s.trace.land_name(), "Test Land");
  EXPECT_DOUBLE_EQ(s.trace.sampling_interval(), 10.0);
  ASSERT_EQ(s.trace.size(), 3u);
  EXPECT_DOUBLE_EQ(s.trace.snapshots()[1].time, 10.0);
  ASSERT_EQ(s.trace.snapshots()[0].fixes.size(), 3u);
  EXPECT_EQ(s.trace.snapshots()[0].fixes[2].id.value, 3u);
  EXPECT_DOUBLE_EQ(s.trace.snapshots()[0].fixes[2].pos.x, 20.0);
  ASSERT_EQ(s.trace.gaps().size(), 1u);
  EXPECT_EQ(s.trace.gaps()[0], (CoverageGap{20.0, 40.0}));
}

TEST(TraceJournal, FramesReadCountsEveryFrame) {
  const std::string path = temp_path("journal_frames.sltj");
  {
    TraceJournalWriter writer(path, 50.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 1));
    writer.append_end(50.0);
  }
  EXPECT_EQ(salvage_journal(path).frames_read, 3u);
}

// The ISSUE's acceptance bar: a SIGKILL can tear the final frame at ANY byte
// offset, and salvage must still produce a loadable trace that keeps every
// earlier frame and censors the rest of the planned run with a trailing gap.
TEST(TraceJournal, TornTailAtEveryByteOffsetSalvages) {
  const std::string path = temp_path("journal_torn.sltj");
  std::uint64_t last_frame_start = 0;
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 2));
    writer.append_snapshot(make_snapshot(10.0, 1, 2));
    last_frame_start = writer.offset();
    writer.append_snapshot(make_snapshot(20.0, 1, 2));
    // No kEnd: the process died right after the last flush.
  }
  const std::vector<std::uint8_t> full = read_file_bytes(path);
  ASSERT_GT(full.size(), last_frame_start);

  // Untruncated (but end-less) journal: all three snapshots, trailing gap
  // from last snapshot + interval out to the planned end.
  {
    const JournalSalvage s = salvage_bytes(full);
    EXPECT_FALSE(s.torn);
    EXPECT_FALSE(s.clean_end);
    EXPECT_EQ(s.snapshots, 3u);
    ASSERT_EQ(s.trace.gaps().size(), 1u);
    EXPECT_EQ(s.trace.gaps().back(), (CoverageGap{30.0, 100.0}));
  }

  for (std::size_t cut = last_frame_start; cut < full.size(); ++cut) {
    const std::span<const std::uint8_t> prefix(full.data(), cut);
    JournalSalvage s;
    ASSERT_NO_THROW(s = salvage_bytes(prefix)) << "cut at byte " << cut;
    EXPECT_EQ(s.snapshots, 2u) << "cut at byte " << cut;
    EXPECT_EQ(s.bytes_kept, last_frame_start) << "cut at byte " << cut;
    EXPECT_EQ(s.torn, cut != last_frame_start) << "cut at byte " << cut;
    ASSERT_EQ(s.trace.gaps().size(), 1u) << "cut at byte " << cut;
    // Last intact snapshot is t=10; coverage is censored from the next
    // sample onwards, out to the planned end of the run.
    EXPECT_EQ(s.trace.gaps().back(), (CoverageGap{20.0, 100.0})) << "cut at byte " << cut;
  }
}

TEST(TraceJournal, BitFlipInFinalFrameDropsOnlyThatFrame) {
  const std::string path = temp_path("journal_bitflip.sltj");
  std::uint64_t last_frame_start = 0;
  {
    TraceJournalWriter writer(path, 0.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 2));
    last_frame_start = writer.offset();
    writer.append_snapshot(make_snapshot(10.0, 1, 2));
  }
  std::vector<std::uint8_t> bytes = read_file_bytes(path);
  bytes[last_frame_start + 12] ^= 0x40;  // corrupt the payload, CRC now fails
  const JournalSalvage s = salvage_bytes(bytes);
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.snapshots, 1u);
  EXPECT_EQ(s.bytes_kept, last_frame_start);
  // planned_end unknown (0): the gap still censors at least one interval.
  ASSERT_EQ(s.trace.gaps().size(), 1u);
  EXPECT_EQ(s.trace.gaps().back(), (CoverageGap{10.0, 20.0}));
}

TEST(TraceJournal, TearAfterGapOpenUsesGapStart) {
  const std::string path = temp_path("journal_gapopen.sltj");
  {
    TraceJournalWriter writer(path, 200.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 1));
    writer.append_gap_open(25.0);
    // Killed during the outage: no gap_close, no further snapshots.
  }
  const JournalSalvage s = salvage_journal(path);
  EXPECT_EQ(s.snapshots, 1u);
  ASSERT_EQ(s.trace.gaps().size(), 1u);
  EXPECT_EQ(s.trace.gaps().back(), (CoverageGap{25.0, 200.0}));
}

TEST(TraceJournal, UnreadableHeaderOrBeginRejected) {
  EXPECT_THROW(salvage_bytes({}), DecodeError);
  const std::vector<std::uint8_t> junk{'X', 'X', 'X', 'X', 1, 0};
  EXPECT_THROW(salvage_bytes(junk), DecodeError);

  // A header with a torn kBegin frame never held a single complete record.
  const std::string path = temp_path("journal_tornbegin.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 10.0);
  }
  std::vector<std::uint8_t> bytes = read_file_bytes(path);
  bytes.resize(bytes.size() - 1);
  EXPECT_THROW(salvage_bytes(bytes), DecodeError);

  // A CRC-valid kBegin frame with a byte past its record is no intact begin.
  ByteWriter begin;
  begin.u8(static_cast<std::uint8_t>(JournalRecord::kBegin));
  begin.str("land");
  begin.f64(10.0);
  begin.f64(100.0);
  begin.u8(0);
  bytes.resize(kJournalHeaderBytes);
  append_frame(bytes, begin.bytes());
  try {
    (void)salvage_bytes(bytes);
    ADD_FAILURE() << "trailing byte in kBegin accepted";
  } catch (const DecodeError& e) {
    EXPECT_STREQ(e.what(), "salvage_journal: no intact begin frame");
  }
}

// CRC-valid frames whose records would break the stream ordering contract
// or the degradation windows are the tear, like a torn frame: everything
// before them is kept and the rest of the planned run is censored.
TEST(TraceJournal, RecordsTheTraceCannotTakeAreTheTear) {
  const auto salvage_written = [](const std::string& name, const auto& write) {
    const std::string path = temp_path(name);
    {
      TraceJournalWriter writer(path, 100.0);
      writer.begin("land", 10.0);
      write(writer);
    }
    return salvage_journal(path);
  };

  // A gap starting at an emitted snapshot would go out after it.
  JournalSalvage s = salvage_written("journal_gap_at_snapshot.sltj", [](auto& w) {
    w.append_snapshot(make_snapshot(0.0, 1, 1));
    w.append_gap_close(0.0, 20.0);
  });
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.trace.gaps(), (std::vector<CoverageGap>{{10.0, 100.0}}));

  // A gap opening inside the previous one (the snapshot at 20 is inside it
  // too, so uncovered).
  s = salvage_written("journal_gap_in_gap.sltj", [](auto& w) {
    w.append_snapshot(make_snapshot(0.0, 1, 1));
    w.append_gap_close(10.0, 40.0);
    w.append_snapshot(make_snapshot(20.0, 1, 1));
    w.append_gap_open(30.0);
  });
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.snapshots, 2u);
  EXPECT_EQ(s.trace.gaps(), (std::vector<CoverageGap>{{10.0, 40.0}, {40.0, 100.0}}));

  // A snapshot inside a gap that was opened and never closed.
  s = salvage_written("journal_snapshot_in_gap.sltj", [](auto& w) {
    w.append_snapshot(make_snapshot(0.0, 1, 1));
    w.append_gap_open(15.0);
    w.append_snapshot(make_snapshot(20.0, 1, 1));
  });
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.snapshots, 1u);
  EXPECT_EQ(s.trace.gaps(), (std::vector<CoverageGap>{{15.0, 100.0}}));

  // A close at the window's own start; the open window then ends at the
  // censoring boundary.
  s = salvage_written("journal_zero_window.sltj", [](auto& w) {
    w.append_snapshot(make_snapshot(0.0, 1, 1));
    w.append_degrade_open(5.0, 2);
    w.append_snapshot(make_snapshot(10.0, 1, 1));
    w.append_degrade_close(1.0, 5.0, 2);
  });
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.trace.degradations(), (std::vector<SamplingDegradation>{{5.0, 20.0, 2}}));
  EXPECT_EQ(s.trace.gaps(), (std::vector<CoverageGap>{{20.0, 100.0}}));

  // A window opening before the previous one closed.
  s = salvage_written("journal_window_backwards.sltj", [](auto& w) {
    w.append_snapshot(make_snapshot(0.0, 1, 1));
    w.append_degrade_open(5.0, 2);
    w.append_snapshot(make_snapshot(10.0, 1, 1));
    w.append_degrade_close(5.0, 15.0, 2);
    w.append_degrade_open(12.0, 4);
  });
  EXPECT_TRUE(s.torn);
  EXPECT_EQ(s.trace.degradations(), (std::vector<SamplingDegradation>{{5.0, 15.0, 2}}));
  EXPECT_EQ(s.trace.gaps(), (std::vector<CoverageGap>{{20.0, 100.0}}));

  // CRC-valid frames whose record cannot be decoded, or does not fill the
  // frame, appended after one intact snapshot.
  const std::string path = temp_path("journal_one_snapshot.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 1));
  }
  const std::vector<std::uint8_t> intact = read_file_bytes(path);
  const auto salvage_with = [&intact](const ByteWriter& payload) {
    std::vector<std::uint8_t> bytes = intact;
    append_frame(bytes, payload.bytes());
    return salvage_bytes(bytes);
  };
  const auto expect_torn_after_one_snapshot = [&intact](const JournalSalvage& got) {
    EXPECT_TRUE(got.torn);
    EXPECT_FALSE(got.clean_end);
    EXPECT_EQ(got.session_events, 0u);
    EXPECT_EQ(got.snapshots, 1u);
    EXPECT_EQ(got.bytes_kept, intact.size());
    EXPECT_EQ(got.trace.gaps(), (std::vector<CoverageGap>{{10.0, 100.0}}));
  };

  // A session frame too short for its time, code and detail.
  ByteWriter session;
  session.u8(static_cast<std::uint8_t>(JournalRecord::kSession));
  session.u32(0);
  expect_torn_after_one_snapshot(salvage_with(session));

  // A snapshot frame with three bytes past its one fix.
  ByteWriter snapshot;
  snapshot.u8(static_cast<std::uint8_t>(JournalRecord::kSnapshot));
  put_snapshot(snapshot, make_snapshot(10.0, 1, 1));
  snapshot.u8(0);
  snapshot.u8(0);
  snapshot.u8(0);
  expect_torn_after_one_snapshot(salvage_with(snapshot));

  // A kEnd frame with a byte past its time is no clean end.
  ByteWriter end;
  end.u8(static_cast<std::uint8_t>(JournalRecord::kEnd));
  end.f64(100.0);
  end.u8(0);
  expect_torn_after_one_snapshot(salvage_with(end));

  // Gap and window records that would be taken without their extra byte.
  ByteWriter gap_open;
  gap_open.u8(static_cast<std::uint8_t>(JournalRecord::kGapOpen));
  gap_open.f64(15.0);
  ByteWriter gap_close;
  gap_close.u8(static_cast<std::uint8_t>(JournalRecord::kGapClose));
  put_gap(gap_close, {15.0, 25.0});
  ByteWriter degrade_open;
  degrade_open.u8(static_cast<std::uint8_t>(JournalRecord::kDegradeOpen));
  degrade_open.f64(15.0);
  degrade_open.u32(2);
  for (ByteWriter* record : {&gap_open, &gap_close, &degrade_open}) {
    record->u8(0);
    const JournalSalvage got = salvage_with(*record);
    expect_torn_after_one_snapshot(got);
    EXPECT_TRUE(got.trace.degradations().empty());
  }
}

TEST(TraceJournal, BeginWithoutUsableIntervalRejected) {
  const std::string path = temp_path("journal_zero_interval.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 0.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 1));
  }
  EXPECT_THROW(salvage_journal(path), DecodeError);
}

TEST(TraceJournal, MissingFileThrows) {
  EXPECT_THROW(salvage_journal(temp_path("does_not_exist.sltj")), std::runtime_error);
}

TEST(TraceJournal, HeaderOnlyZeroFrameFileRejected) {
  // Exactly the 6-byte header, zero frames: the writer was constructed and
  // the process died before begin() ever ran. The file is structurally
  // valid, but it never held a single complete record — salvage must refuse
  // rather than invent an empty trace with no land name or interval.
  const std::vector<std::uint8_t> header{'S', 'L', 'T', 'J', 1, 0};
  EXPECT_THROW(salvage_bytes(header), DecodeError);

  // Same bytes on disk, through the file path.
  const std::string path = temp_path("journal_headeronly.sltj");
  { TraceJournalWriter writer(path, 100.0); }
  EXPECT_EQ(read_file_bytes(path).size(), 6u);
  EXPECT_THROW(salvage_journal(path), DecodeError);
}

TEST(TraceJournal, BeginOnlyJournalSalvagesToEmptyTrace) {
  // One intact kBegin frame and nothing else: killed right after start-up.
  // This is the smallest salvageable journal — an empty trace with the
  // run's identity, no snapshots, and (per the crawler's convention that
  // outages before the first snapshot are a later trace start) no trailing
  // censoring gap either.
  const std::string path = temp_path("journal_beginonly.sltj");
  {
    TraceJournalWriter writer(path, 150.0);
    writer.begin("Isle of View", 10.0);
  }
  const JournalSalvage s = salvage_journal(path);
  EXPECT_FALSE(s.clean_end);
  EXPECT_FALSE(s.torn);
  EXPECT_EQ(s.frames_read, 1u);
  EXPECT_EQ(s.snapshots, 0u);
  EXPECT_EQ(s.trace.land_name(), "Isle of View");
  EXPECT_DOUBLE_EQ(s.trace.sampling_interval(), 10.0);
  EXPECT_EQ(s.trace.size(), 0u);
  EXPECT_TRUE(s.trace.gaps().empty());
}

TEST(TraceJournal, OffsetTracksFileSize) {
  const std::string path = temp_path("journal_offset.sltj");
  std::uint64_t final_offset = 0;
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 4));
    writer.append_end(100.0);
    final_offset = writer.offset();
  }
  EXPECT_EQ(read_file_bytes(path).size(), final_offset);
}

TEST(TraceJournal, ResumeTruncatesDiscardedFramesAndAppends) {
  const std::string path = temp_path("journal_resume.sltj");
  std::uint64_t checkpointed = 0;
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 10.0);
    writer.append_snapshot(make_snapshot(0.0, 1, 1));
    checkpointed = writer.offset();
    // Frames past the checkpoint: discarded by resume, regenerated below.
    writer.append_snapshot(make_snapshot(10.0, 2, 1));
  }
  {
    TraceJournalWriter writer = TraceJournalWriter::resume(path, checkpointed, 100.0);
    EXPECT_TRUE(writer.begun());
    EXPECT_EQ(writer.offset(), checkpointed);
    writer.append_snapshot(make_snapshot(10.0, 9, 1));
    writer.append_end(100.0);
  }
  const JournalSalvage s = salvage_journal(path);
  EXPECT_TRUE(s.clean_end);
  ASSERT_EQ(s.trace.size(), 2u);
  EXPECT_EQ(s.trace.snapshots()[1].fixes[0].id.value, 9u);
}

TEST(TraceJournal, ResumeRejectsImpossibleOffsets) {
  const std::string path = temp_path("journal_resume_bad.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("land", 10.0);
  }
  const auto size = read_file_bytes(path).size();
  EXPECT_THROW(TraceJournalWriter::resume(path, size + 1, 100.0), std::runtime_error);
  EXPECT_THROW(TraceJournalWriter::resume(path, 2, 100.0), std::runtime_error);
  EXPECT_THROW(
      TraceJournalWriter::resume(temp_path("no_such_journal.sltj"), 0, 100.0),
      std::runtime_error);
}

}  // namespace
}  // namespace slmob
