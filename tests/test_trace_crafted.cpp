// Crafted inputs against every reader of a trace file: load_trace /
// salvage_journal, the analysis entry point (analyze_stream_file), and the
// `slmob summary`, `slmob analyze` and `slmob salvage` commands. Each input
// must give a value or a DecodeError — never std::bad_alloc from a count
// or frame length read in the file, never std::invalid_argument from a
// record the trace cannot take — and every surface must report the same
// snapshots and gaps.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "analysis/streaming.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace slmob {
namespace {

// Journal bytes frame by frame, with valid CRCs and no writer-side checks.
class JournalBytes {
 public:
  JournalBytes() {
    out_.raw(kJournalMagic);
    out_.u16(kJournalVersion);
  }
  JournalBytes& begin(const char* land = "crafted") {
    ByteWriter p = record(JournalRecord::kBegin);
    p.str(land);
    p.f64(10.0);   // sampling interval
    p.f64(100.0);  // planned end
    return frame(p);
  }
  // A snapshot frame claiming `n` fixes; the first min(n, 1) is written,
  // at (x, 20, 22).
  JournalBytes& snapshot(Seconds time, std::uint32_t n = 1, float x = 10.0F) {
    ByteWriter p = record(JournalRecord::kSnapshot);
    p.f64(time);
    p.u32(n);
    if (n == 1) {
      p.u32(7);
      p.f32(x);
      p.f32(20.0F);
      p.f32(22.0F);
    }
    return frame(p);
  }
  // A snapshot frame holding `n` fixes: avatars 1..n at (10 + i, 20, 22).
  JournalBytes& snapshot_of(Seconds time, std::uint32_t n) {
    ByteWriter p = record(JournalRecord::kSnapshot);
    p.f64(time);
    p.u32(n);
    for (std::uint32_t i = 1; i <= n; ++i) {
      p.u32(i);
      p.f32(10.0F + static_cast<float>(i));
      p.f32(20.0F);
      p.f32(22.0F);
    }
    return frame(p);
  }
  JournalBytes& gap_open(Seconds start) {
    ByteWriter p = record(JournalRecord::kGapOpen);
    p.f64(start);
    return frame(p);
  }
  JournalBytes& gap_close(Seconds start, Seconds end) {
    ByteWriter p = record(JournalRecord::kGapClose);
    p.f64(start);
    p.f64(end);
    return frame(p);
  }
  JournalBytes& degrade_open(Seconds start, std::uint32_t factor) {
    ByteWriter p = record(JournalRecord::kDegradeOpen);
    p.f64(start);
    p.u32(factor);
    return frame(p);
  }
  // A frame head alone: a payload of `len` bytes is declared, none follows.
  JournalBytes& frame_head(std::uint32_t len, std::uint32_t crc) {
    out_.u32(len);
    out_.u32(crc);
    return *this;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return out_.bytes(); }

 private:
  static ByteWriter record(JournalRecord type) {
    ByteWriter p;
    p.u8(static_cast<std::uint8_t>(type));
    return p;
  }
  JournalBytes& frame(const ByteWriter& payload) {
    out_.u32(static_cast<std::uint32_t>(payload.size()));
    out_.u32(crc32(payload.bytes()));
    out_.raw(payload.bytes());
    return *this;
  }
  ByteWriter out_;
};

// Writes `bytes` to a file named after the running test; removed on scope
// exit.
class CraftedFile {
 public:
  CraftedFile(const std::vector<std::uint8_t>& bytes, const char* ext) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/crafted_" + info->name() + ext;
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    EXPECT_NE(f, nullptr) << path_;
    EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    EXPECT_EQ(std::fclose(f), 0);
  }
  ~CraftedFile() { std::remove(path_.c_str()); }
  CraftedFile(const CraftedFile&) = delete;
  CraftedFile& operator=(const CraftedFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct CliRun {
  int status{-1};
  std::string output;  // stdout and stderr
};

CliRun run_cli(const std::string& args) {
  const std::string command = std::string(SLMOB_CLI) + " " + args + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CliRun run;
  if (pipe == nullptr) return run;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) run.output.append(buf, n);
  const int rc = pclose(pipe);
  run.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return run;
}

// The integer printed right after the first `label` at or past `from` in
// `text`, or -1 without one.
long number_after(const std::string& text, const std::string& label, std::size_t from = 0) {
  const std::size_t pos = text.find(label, from);
  return pos == std::string::npos
             ? -1
             : std::strtol(text.c_str() + pos + label.size(), nullptr, 10);
}

// A file of the retired .slt format: DecodeError from the library, exit 1
// with the file named from every command, and no journal to salvage.
TEST(CraftedInput, OldSltFile) {
  Trace trace("x", 10.0);
  trace.add({0.0, {{AvatarId{7}, {10.0, 20.0, 22.0}}}});
  const CraftedFile file(encode_trace(trace), ".slt");
  EXPECT_THROW((void)load_trace(file.path()), DecodeError);
  EXPECT_THROW((void)analyze_stream_file(file.path()), DecodeError);
  for (const char* command : {"summary", "analyze"}) {
    const CliRun run = run_cli(std::string(command) + " " + file.path());
    EXPECT_EQ(run.status, 1) << command << ": " << run.output;
    EXPECT_NE(run.output.find(file.path() + ": corrupt or truncated trace"), std::string::npos)
        << command << ": " << run.output;
  }
  const CliRun salvage = run_cli("salvage " + file.path());
  EXPECT_EQ(salvage.status, 1) << salvage.output;
  EXPECT_NE(salvage.output.find("salvage_journal: bad magic"), std::string::npos)
      << salvage.output;
}

// A journal that salvages to `snapshots` snapshots and exactly `gaps`, torn
// at the crafted frame; every surface agrees on the counts.
void expect_salvaged(const JournalBytes& journal, std::size_t snapshots,
                     const std::vector<CoverageGap>& gaps) {
  const CraftedFile file(journal.bytes(), ".sltj");
  const JournalSalvage s = salvage_journal(file.path());
  EXPECT_TRUE(s.torn);
  EXPECT_FALSE(s.clean_end);
  EXPECT_EQ(s.snapshots, snapshots);
  EXPECT_EQ(s.trace.size(), snapshots);
  EXPECT_EQ(s.trace.gaps(), gaps);
  EXPECT_TRUE(s.trace.degradations().empty());
  const TraceSummary want = s.trace.summary();

  const AnalysisReport report = analyze_stream_file(file.path());
  EXPECT_EQ(report.summary.snapshot_count, snapshots);
  EXPECT_EQ(report.summary.gap_count, gaps.size());
  EXPECT_EQ(report.summary.gap_seconds, want.gap_seconds);

  const CliRun summary = run_cli("summary " + file.path());
  EXPECT_EQ(summary.status, 0) << summary.output;
  EXPECT_EQ(number_after(summary.output, "snapshots:"), static_cast<long>(snapshots))
      << summary.output;
  EXPECT_EQ(number_after(summary.output, "coverage gaps:"), static_cast<long>(gaps.size()))
      << summary.output;
  EXPECT_EQ(number_after(summary.output, "(", summary.output.find("coverage gaps:")),
            static_cast<long>(want.gap_seconds))
      << summary.output;
  EXPECT_NE(summary.output.find("torn tail truncated"), std::string::npos)
      << summary.output;

  const CliRun analyze = run_cli("analyze " + file.path() + " --range 10");
  EXPECT_EQ(analyze.status, 0) << analyze.output;
  EXPECT_NE(analyze.output.find("zones: "), std::string::npos) << analyze.output;

  const CliRun salvage = run_cli("salvage " + file.path());
  EXPECT_EQ(salvage.status, 0) << salvage.output;
  EXPECT_EQ(number_after(salvage.output, "frames ("), static_cast<long>(snapshots))
      << salvage.output;
  EXPECT_EQ(number_after(salvage.output, "unique users, "), static_cast<long>(gaps.size()))
      << salvage.output;
}

// A frame head declaring 16 MiB with nothing behind it, after three
// intact frames: 175 bytes. The head is the tear, found before anything is
// sized by its length.
TEST(CraftedInput, JournalFrameLongerThanTheFile) {
  JournalBytes j;
  j.begin("Isle Of View").snapshot_of(0.0, 2).snapshot_of(10.0, 3).frame_head(16u << 20, 0);
  ASSERT_EQ(j.bytes().size(), 175u);
  {
    const CraftedFile file(j.bytes(), ".sltj");
    const std::size_t before = bench::allocated_bytes();
    const JournalSalvage s = salvage_journal(file.path());
    const std::size_t allocated = bench::allocated_bytes() - before;
    EXPECT_TRUE(s.torn);
    EXPECT_EQ(s.snapshots, 2u);
    EXPECT_LT(allocated, 4096u);
  }
  expect_salvaged(j, 2, {{20.0, 100.0}});
}

TEST(CraftedInput, JournalInflatedFixCount) {
  // Third frame: a CRC-valid snapshot claiming 2^32 - 1 fixes with none
  // behind it. It is the tear; the run is censored from t = 10.
  JournalBytes j;
  j.begin().snapshot(0.0).snapshot(10.0, 0xffffffffu);
  expect_salvaged(j, 1, {{10.0, 100.0}});
}

TEST(CraftedInput, JournalDegradeFactorOne) {
  JournalBytes j;
  j.begin().snapshot(0.0).degrade_open(5.0, 1);
  expect_salvaged(j, 1, {{10.0, 100.0}});
}

TEST(CraftedInput, JournalGapOpenBeforeLastGapEnd) {
  JournalBytes j;
  j.begin().snapshot(0.0).gap_close(10.0, 40.0).snapshot(50.0).gap_open(20.0);
  expect_salvaged(j, 2, {{10.0, 40.0}, {60.0, 100.0}});
}

TEST(CraftedInput, JournalSecondBegin) {
  JournalBytes j;
  j.begin().snapshot(0.0).begin().snapshot(50.0);
  expect_salvaged(j, 1, {{10.0, 100.0}});
}

// A non-finite time is no instant: the snapshot head's decoder rejects it.
TEST(CraftedInput, JournalInfiniteSnapshotTime) {
  JournalBytes j;
  j.begin().snapshot(0.0).snapshot(std::numeric_limits<double>::infinity());
  expect_salvaged(j, 1, {{10.0, 100.0}});
}

// A fix with a NaN coordinate is no position: the reader rejects it before
// it can reach the proximity kernel's cell arithmetic.
TEST(CraftedInput, JournalNanCoordinate) {
  // The snapshot frame at t = 10 carries x = NaN: it is the tear, and the
  // run is censored from t = 10.
  JournalBytes j;
  j.begin().snapshot(0.0).snapshot(10.0, 1, std::numeric_limits<float>::quiet_NaN());
  expect_salvaged(j, 1, {{10.0, 100.0}});
}

// A CSV trace the reader must reject at 1-based line `line`: DecodeError
// naming the line from the library, exit 1 naming the file and the line
// from every command.
void expect_rejected_csv(const std::string& text, std::size_t line) {
  const std::string at = "line " + std::to_string(line) + ":";
  try {
    (void)trace_from_csv(text, "x", 10.0);
    ADD_FAILURE() << "trace_from_csv accepted the input";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find(at), std::string::npos) << e.what();
  }
  const CraftedFile file(std::vector<std::uint8_t>(text.begin(), text.end()), ".csv");
  EXPECT_THROW((void)analyze_stream_file(file.path()), DecodeError);
  for (const char* command : {"summary", "analyze"}) {
    const CliRun run = run_cli(std::string(command) + " " + file.path());
    EXPECT_EQ(run.status, 1) << command << ": " << run.output;
    EXPECT_NE(run.output.find(file.path() + ": corrupt or truncated trace"), std::string::npos)
        << command << ": " << run.output;
    EXPECT_NE(run.output.find(at), std::string::npos) << command << ": " << run.output;
  }
}

constexpr const char* kCsvHead = "time,avatar,x,y,z\n0,7,10,20,22\n";

TEST(CraftedInput, CsvNanCoordinate) {
  for (const char* bad : {"nan", "inf"}) {
    SCOPED_TRACE(bad);
    expect_rejected_csv(std::string(kCsvHead) + "10,7,11,20,22\n10,8," + bad + ",20,22\n", 4);
  }
}

TEST(CraftedInput, CsvIdBeyondU32) {
  // 2^32 + 1 used to be truncated to avatar 1.
  expect_rejected_csv(std::string(kCsvHead) + "0,4294967297,12,20,22\n", 3);
}

TEST(CraftedInput, CsvNegativeId) {
  // Used to wrap to 0xFFFFFFFF.
  expect_rejected_csv(std::string(kCsvHead) + "0,-1,12,20,22\n", 3);
}

TEST(CraftedInput, CsvCoordinateWithTrailingGarbage) {
  // Used to be read as x = 12.
  expect_rejected_csv(std::string(kCsvHead) + "10,7,12xyz,20,22\n", 3);
}

TEST(CraftedInput, CsvNonNumericCoordinate) {
  expect_rejected_csv(std::string(kCsvHead) + "\n10,7,abc,20,22\n", 4);  // a blank line counts
}

TEST(CraftedInput, CsvTimeGoesBackwards) {
  expect_rejected_csv(std::string(kCsvHead) + "10,7,11,20,22\n5,7,12,20,22\n", 4);
}

}  // namespace
}  // namespace slmob
