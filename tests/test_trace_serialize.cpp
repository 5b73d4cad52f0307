#include "trace/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "trace/codec.hpp"
#include "trace/journal.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

// The file path for the running test (ctest runs tests in parallel).
std::string test_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/slmob_" + name + ".slt";
}

struct RemoveOnExit {
  const std::string& path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

// Loads `bytes` through a file: load_trace is the one trace file decoder.
Trace load_bytes(const std::vector<std::uint8_t>& bytes) {
  const std::string path = test_path();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const RemoveOnExit remove{path};
  return load_trace(path);
}

// The file save_trace writes for `trace`.
std::vector<std::uint8_t> saved_bytes(const Trace& trace) {
  const std::string path = test_path();
  const RemoveOnExit remove{path};
  save_trace(trace, path);
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint32_t trace_digest(const Trace& trace) { return crc32(encode_trace(trace)); }

// Saves `trace`, loads it back, and checks the digest survives.
Trace round_trip(const Trace& trace) {
  const std::string path = test_path();
  const RemoveOnExit remove{path};
  save_trace(trace, path);
  Trace loaded = load_trace(path);
  EXPECT_EQ(trace_digest(loaded), trace_digest(trace));
  return loaded;
}

// A journal header and kBegin frame, land "x", interval 10 s.
ByteWriter begun_journal() {
  ByteWriter w;
  w.raw(kJournalMagic);
  w.u16(kJournalVersion);
  put_frame(w, JournalRecord::kBegin, [](ByteWriter& p) {
    p.str("x");
    p.f64(10.0);
    p.f64(0.0);
  });
  return w;
}

void put_end(ByteWriter& w) {
  put_frame(w, JournalRecord::kEnd, [](ByteWriter& p) { p.f64(0.0); });
}

// A closed journal with one fixless snapshot frame per time, then the given
// gap and degradation window frames verbatim (no validation on the writing
// side), then kEnd.
std::vector<std::uint8_t> crafted_journal(const std::vector<double>& times,
                                          const std::vector<CoverageGap>& gaps,
                                          const std::vector<SamplingDegradation>& degradations) {
  ByteWriter w = begun_journal();
  for (const double t : times) {
    put_frame(w, JournalRecord::kSnapshot, [t](ByteWriter& p) { put_snapshot(p, {t, {}}); });
  }
  for (const auto& g : gaps) {
    put_frame(w, JournalRecord::kGapClose, [&g](ByteWriter& p) { put_gap(p, g); });
  }
  for (const auto& d : degradations) {
    put_frame(w, JournalRecord::kDegradeOpen, [&d](ByteWriter& p) {
      p.f64(d.start);
      p.u32(d.factor);
    });
    put_frame(w, JournalRecord::kDegradeClose, [&d](ByteWriter& p) { put_window(p, d); });
  }
  put_end(w);
  return w.take();
}

Trace make_random_trace(std::uint64_t seed, std::size_t snapshots) {
  Rng rng(seed);
  Trace t("Test Land", 10.0);
  for (std::size_t i = 0; i < snapshots; ++i) {
    Snapshot snap;
    snap.time = static_cast<double>(i) * 10.0;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 20));
    for (std::size_t j = 0; j < n; ++j) {
      snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(rng.uniform_int(1, 100))},
                            {rng.uniform(0.0, 256.0), rng.uniform(0.0, 256.0), 22.0}});
    }
    t.add(std::move(snap));
  }
  return t;
}

void expect_traces_equal(const Trace& a, const Trace& b, double tol) {
  EXPECT_EQ(a.land_name(), b.land_name());
  EXPECT_DOUBLE_EQ(a.sampling_interval(), b.sampling_interval());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& sa = a.snapshots()[i];
    const auto& sb = b.snapshots()[i];
    EXPECT_DOUBLE_EQ(sa.time, sb.time);
    ASSERT_EQ(sa.fixes.size(), sb.fixes.size());
    for (std::size_t j = 0; j < sa.fixes.size(); ++j) {
      EXPECT_EQ(sa.fixes[j].id, sb.fixes[j].id);
      EXPECT_NEAR(sa.fixes[j].pos.x, sb.fixes[j].pos.x, tol);
      EXPECT_NEAR(sa.fixes[j].pos.y, sb.fixes[j].pos.y, tol);
      EXPECT_NEAR(sa.fixes[j].pos.z, sb.fixes[j].pos.z, tol);
    }
  }
}

class SerializeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeRoundTrip, Binary) {
  const Trace original = make_random_trace(GetParam(), 30);
  expect_traces_equal(original, round_trip(original), 1e-4);  // f32 storage
}

TEST_P(SerializeRoundTrip, Csv) {
  const Trace original = make_random_trace(GetParam(), 10);
  const std::string csv = trace_to_csv(original);
  const Trace decoded = trace_from_csv(csv, original.land_name(), 10.0);
  // CSV drops empty snapshots (no rows to carry them); compare non-empty.
  Trace filtered(original.land_name(), original.sampling_interval());
  for (const auto& s : original.snapshots()) {
    if (!s.fixes.empty()) filtered.add(s);
  }
  expect_traces_equal(filtered, decoded, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRoundTrip, ::testing::Values(1, 2, 3, 42, 1234));

TEST(Serialize, BadMagicThrows) {
  std::vector<std::uint8_t> bytes{'X', 'X', 'X', 'X', 0, 0};
  EXPECT_THROW((void)load_bytes(bytes), DecodeError);
}

// load_trace takes a closed journal only: a torn file, one without kEnd,
// one with a frame after kEnd and one of the old .slt format are errors.
TEST(Serialize, TruncatedThrows) {
  auto bytes = saved_bytes(make_random_trace(9, 5));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)load_bytes(bytes), DecodeError);
}

TEST(Serialize, JournalWithoutEndThrows) {
  auto bytes = crafted_journal({0.0, 10.0}, {}, {});
  EXPECT_EQ(load_bytes(bytes).size(), 2u);
  bytes.resize(bytes.size() - (kFrameHeadBytes + 9));  // the kEnd frame
  try {
    (void)load_bytes(bytes);
    FAIL() << "load_trace accepted a journal without kEnd";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(bytes.size())), std::string::npos)
        << e.what();
  }
}

TEST(Serialize, FrameAfterEndThrows) {
  ByteWriter w;
  w.raw(crafted_journal({0.0, 10.0}, {}, {}));
  EXPECT_EQ(load_bytes(w.bytes()).size(), 2u);
  put_frame(w, JournalRecord::kSnapshot, [](ByteWriter& p) { put_snapshot(p, {20.0, {}}); });
  EXPECT_THROW((void)load_bytes(w.bytes()), DecodeError);
}

TEST(Serialize, OldSltFileThrows) {
  // The canonical bytes are what the retired .slt format wrote.
  const auto bytes = encode_trace(make_random_trace(9, 5));
  ASSERT_EQ(bytes[0], 'S');
  ASSERT_EQ(bytes[3], 'R');
  EXPECT_THROW((void)load_bytes(bytes), DecodeError);
}

TEST(Serialize, InflatedFixCountThrowsBeforeAllocating) {
  // One snapshot frame claiming 2^32 - 1 fixes (~64 GiB once decoded) with
  // no fix bytes behind it: the count must be rejected, not reserved. The
  // frame is the tear, so the error names the bytes before it.
  ByteWriter w = begun_journal();
  const std::size_t kept = w.size();
  put_frame(w, JournalRecord::kSnapshot, [](ByteWriter& p) {
    p.f64(0.0);
    p.u32(0xffffffffu);
  });
  put_end(w);
  try {
    (void)load_bytes(w.bytes());
    FAIL() << "load_trace accepted an inflated fix count";
  } catch (const DecodeError& e) {
    EXPECT_EQ(std::string(e.what()), "load_trace: not a closed journal; intact up to byte " +
                                         std::to_string(kept));
  }
}

TEST(Serialize, TrailingBytesThrow) {
  auto bytes = saved_bytes(make_random_trace(9, 2));
  bytes.push_back(0);
  EXPECT_THROW((void)load_bytes(bytes), DecodeError);
}

TEST(Serialize, GapsRoundTripBinary) {
  Trace original = make_random_trace(21, 30);
  original.add_gap(35.0, 60.0);
  original.add_gap(120.0, 155.0);
  const Trace decoded = round_trip(original);
  expect_traces_equal(original, decoded, 1e-4);
  ASSERT_EQ(decoded.gaps().size(), 2u);
  EXPECT_EQ(decoded.gaps()[0], (CoverageGap{35.0, 60.0}));
  EXPECT_EQ(decoded.gaps()[1], (CoverageGap{120.0, 155.0}));
}

TEST(Serialize, EmptyTraceRoundTrips) {
  const Trace decoded = round_trip(Trace("Empty Land", 20.0));
  EXPECT_EQ(decoded.land_name(), "Empty Land");
  EXPECT_EQ(decoded.sampling_interval(), 20.0);
  EXPECT_TRUE(decoded.snapshots().empty());
}

TEST(Serialize, GapsAndWindowsPastTheLastSnapshotRoundTrip) {
  Trace original = make_random_trace(22, 10);  // snapshots at 0..90
  original.add_degradation(60.0, 120.0, 2);
  original.add_gap(125.0, 200.0);
  const Trace decoded = round_trip(original);
  EXPECT_EQ(decoded.gaps(), original.gaps());
  EXPECT_EQ(decoded.degradations(), original.degradations());
}

// Malformed content is a DecodeError, never the std::invalid_argument the
// Trace mutators throw: the reader takes a record its rule refuses as the
// tear, and load_trace refuses a torn file.
TEST(Serialize, SnapshotTimeGoingBackwardsThrows) {
  EXPECT_NO_THROW((void)load_bytes(crafted_journal({0.0, 10.0, 10.0}, {}, {})));
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0, 10.0, 5.0}, {}, {})), DecodeError);
}

TEST(Serialize, EmptyOrOutOfOrderGapsThrow) {
  EXPECT_NO_THROW((void)load_bytes(crafted_journal({0.0}, {{10.0, 20.0}, {20.0, 30.0}}, {})));
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0}, {{10.0, 10.0}}, {})), DecodeError);
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0}, {{30.0, 40.0}, {10.0, 20.0}}, {})),
               DecodeError);
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0}, {{10.0, 30.0}, {20.0, 40.0}}, {})),
               DecodeError);
}

TEST(Serialize, EmptyOrOutOfOrderDegradationsThrow) {
  EXPECT_NO_THROW(
      (void)load_bytes(crafted_journal({0.0}, {}, {{10.0, 20.0, 2}, {20.0, 30.0, 4}})));
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0}, {}, {{10.0, 10.0, 2}})), DecodeError);
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0}, {}, {{10.0, 20.0, 1}})), DecodeError);
  EXPECT_THROW((void)load_bytes(crafted_journal({0.0}, {}, {{30.0, 40.0, 2}, {10.0, 20.0, 2}})),
               DecodeError);
}

TEST(Serialize, GapsRoundTripCsv) {
  Trace original("Test Land", 10.0);
  Snapshot s;
  s.time = 0.0;
  s.fixes.push_back({AvatarId{1}, {10.0, 20.0, 22.0}});
  original.add(s);
  original.add_gap(15.0, 45.0);
  const Trace decoded = trace_from_csv(trace_to_csv(original), "Test Land", 10.0);
  ASSERT_EQ(decoded.gaps().size(), 1u);
  EXPECT_DOUBLE_EQ(decoded.gaps()[0].start, 15.0);
  EXPECT_DOUBLE_EQ(decoded.gaps()[0].end, 45.0);
  ASSERT_EQ(decoded.size(), 1u);
}

TEST(Serialize, TruncatedGapBlockThrows) {
  Trace t = make_random_trace(9, 5);  // snapshots at 0..40
  t.add_gap(50.0, 60.0);              // its frame is the last before kEnd
  auto bytes = saved_bytes(t);
  bytes.resize(bytes.size() - (kFrameHeadBytes + 9) - 8);  // cut into the gap record
  EXPECT_THROW((void)load_bytes(bytes), DecodeError);
}

TEST(Serialize, CsvCorruptGapRowThrows) {
  EXPECT_THROW(
      (void)trace_from_csv("time,avatar,x,y,z\ngap,50.0,20.0,0,0\n", "x", 10.0),
      DecodeError);  // gap end before start
}

TEST(Serialize, FileRoundTrip) {
  const Trace original = make_random_trace(77, 12);
  const std::string path = ::testing::TempDir() + "/slmob_trace_test.slt";
  save_trace(original, path);
  const Trace loaded = load_trace(path);
  expect_traces_equal(original, loaded, 1e-4);
  std::remove(path.c_str());
}

TEST(Serialize, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_trace("/nonexistent/dir/file.slt"), std::runtime_error);
}

// Regression: the CLI convert path used to fopen/fwrite the CSV without
// checking results, so a failed write still exited 0 with a truncated file.
// save_trace_csv shares write_file_atomic's contract instead.
TEST(Serialize, SaveTraceCsvRoundTrips) {
  const Trace original = make_random_trace(91, 9);
  const std::string path = ::testing::TempDir() + "/slmob_trace_test.csv";
  save_trace_csv(original, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string written{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  EXPECT_EQ(written, trace_to_csv(original));
  std::remove(path.c_str());
}

TEST(Serialize, SaveTraceCsvUnwritablePathThrows) {
  const Trace original = make_random_trace(91, 3);
  EXPECT_THROW(save_trace_csv(original, "/nonexistent/dir/out.csv"), std::runtime_error);
}

TEST(Serialize, CsvMalformedRowThrows) {
  EXPECT_THROW((void)trace_from_csv("time,avatar,x,y,z\n1,2,3\n", "x", 10.0), DecodeError);
}

}  // namespace
}  // namespace slmob
