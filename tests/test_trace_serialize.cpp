#include "trace/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

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
  const auto bytes = encode_trace(original);
  const Trace decoded = decode_trace(bytes);
  expect_traces_equal(original, decoded, 1e-4);  // f32 storage
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
  EXPECT_THROW((void)decode_trace(bytes), DecodeError);
}

TEST(Serialize, TruncatedThrows) {
  const Trace t = make_random_trace(9, 5);
  auto bytes = encode_trace(t);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW((void)decode_trace(bytes), DecodeError);
}

TEST(Serialize, InflatedFixCountThrowsBeforeAllocating) {
  // One snapshot claiming 2^32 - 1 fixes (~64 GiB once decoded) with no fix
  // bytes behind it: the count must be rejected, not reserved.
  constexpr std::uint8_t kMagic[4] = {'S', 'L', 'T', 'R'};
  ByteWriter w;
  w.raw(kMagic);
  w.u16(3);
  w.str("x");
  w.f64(10.0);
  w.u32(1);
  w.f64(0.0);
  w.u32(0xffffffffu);
  const auto bytes = w.take();
  try {
    (void)decode_trace(bytes);
    FAIL() << "decode_trace accepted an inflated fix count";
  } catch (const DecodeError& e) {
    EXPECT_STREQ(e.what(), "decode_trace: truncated snapshot block");
  }
}

TEST(Serialize, TrailingBytesThrow) {
  const Trace t = make_random_trace(9, 2);
  auto bytes = encode_trace(t);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_trace(bytes), DecodeError);
}

TEST(Serialize, GapsRoundTripBinary) {
  Trace original = make_random_trace(21, 30);
  original.add_gap(35.0, 60.0);
  original.add_gap(120.0, 155.0);
  const Trace decoded = decode_trace(encode_trace(original));
  expect_traces_equal(original, decoded, 1e-4);
  ASSERT_EQ(decoded.gaps().size(), 2u);
  EXPECT_EQ(decoded.gaps()[0], (CoverageGap{35.0, 60.0}));
  EXPECT_EQ(decoded.gaps()[1], (CoverageGap{120.0, 155.0}));
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

TEST(Serialize, Version1BytesStillDecode) {
  // A v1 file is a v3 file minus the trailing gap and degradation blocks;
  // old traces must keep loading (as gap-free) forever.
  const Trace original = make_random_trace(13, 8);
  auto bytes = encode_trace(original);
  bytes.resize(bytes.size() - 8);  // drop the u32 gap + degradation counts (0)
  bytes[4] = 1;                    // patch version u16 (little-endian) to 1
  const Trace decoded = decode_trace(bytes);
  expect_traces_equal(original, decoded, 1e-4);
  EXPECT_TRUE(decoded.gaps().empty());
}

TEST(Serialize, Version2BytesStillDecode) {
  // A v2 file is a v3 file minus the trailing degradation block; traces
  // written before sampling degradation existed must keep loading.
  Trace original = make_random_trace(13, 8);
  original.add_gap(12.0, 30.0);
  auto bytes = encode_trace(original);
  bytes.resize(bytes.size() - 4);  // drop the u32 degradation count (0)
  bytes[4] = 2;                    // patch version u16 (little-endian) to 2
  const Trace decoded = decode_trace(bytes);
  expect_traces_equal(original, decoded, 1e-4);
  ASSERT_EQ(decoded.gaps().size(), 1u);
  EXPECT_TRUE(decoded.degradations().empty());
}

TEST(Serialize, TruncatedGapBlockThrows) {
  Trace t = make_random_trace(9, 5);
  t.add_gap(12.0, 24.0);
  auto bytes = encode_trace(t);
  bytes.resize(bytes.size() - 8);  // cut into the gap record
  EXPECT_THROW((void)decode_trace(bytes), DecodeError);
}

TEST(Serialize, CsvCorruptGapRowThrows) {
  EXPECT_THROW(
      (void)trace_from_csv("time,avatar,x,y,z\ngap,50.0,20.0,0,0\n", "x", 10.0),
      std::invalid_argument);  // gap end before start
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
