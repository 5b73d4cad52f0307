// Trace journal: the one binary trace file format, and crash-safe capture
// for long runs.
//
// The paper's 24 h traces were "interrupted several times" and had to be
// restarted by hand; an in-memory trace loses the whole run when the
// capture process dies. The journal makes capture durable: every record
// (snapshot, gap open/close, session event) is appended as one CRC32-framed,
// length-prefixed frame and flushed immediately, so a SIGKILL at any byte
// loses at most the frame being written. A capture's journal (.sltj) grows
// frame by frame; a saved trace (save_trace, trace/serialize.hpp) is a
// closed journal, written whole: kBegin, the records in stream order, kEnd.
//
// File layout:
//   magic "SLTJ" | u16 version
//   frame*           frame = u32 payload_len | u32 crc32(payload) | payload
// Payloads (ByteWriter encoding, little-endian; the snapshot, gap and
// window records are laid out in trace/codec.hpp):
//   kBegin    u8 type | str land | f64 sampling_interval | f64 planned_end
//   kSnapshot u8 type | snapshot record
//   kGapOpen  u8 type | f64 start
//   kGapClose u8 type | gap record
//   kSession  u8 type | f64 time | u8 code | str detail
//   kEnd      u8 type | f64 time
//   kDegradeOpen  u8 type | f64 start | u32 factor
//   kDegradeClose u8 type | window record
//
// Salvage never throws on a torn or bit-flipped tail: frames are read until
// the first frame that is truncated, oversized, fails its CRC, does not end
// where its record ends or holds a record the trace cannot take
// (JournalFileStream in trace/stream.hpp lists the rules, a second kBegin
// included); that frame and everything after it are discarded, and the
// reconstructed Trace gets a trailing CoverageGap marking the censored
// remainder of the planned run. Only a file whose header or kBegin frame is
// unreadable is rejected (DecodeError) — such a file never held a single
// complete record. JournalFileStream is the one reader: salvage_journal
// collects it.
#pragma once

#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"
#include "util/bytes.hpp"

namespace slmob {

// File header: magic "SLTJ", then the u16 format version.
inline constexpr std::uint8_t kJournalMagic[4] = {'S', 'L', 'T', 'J'};
inline constexpr std::uint16_t kJournalVersion = 1;
inline constexpr std::size_t kJournalHeaderBytes = 6;
// Each frame opens with its u32 payload length and u32 payload CRC.
inline constexpr std::size_t kFrameHeadBytes = 8;
// Frames are one snapshot (or less); a longer payload is torn garbage, not
// a record, so no writer makes one.
inline constexpr std::uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

enum class JournalRecord : std::uint8_t {
  kBegin = 0,
  kSnapshot = 1,
  kGapOpen = 2,
  kGapClose = 3,
  kSession = 4,
  kEnd = 5,
  // Sampling-degradation windows (overload protection slowed the snapshot
  // rate): open is written before the first degraded snapshot, close after
  // the last, mirroring the gap open/close pattern.
  kDegradeOpen = 6,
  kDegradeClose = 7,
};

// Appends one frame to `out`: its head, the type byte, then what `put`
// writes. Every journal frame is written here, by TraceJournalWriter and by
// save_trace. Throws std::length_error on a payload over kMaxFramePayload,
// which no reader would take.
template <typename Put>
void put_frame(ByteWriter& out, JournalRecord type, const Put& put) {
  const std::size_t head = out.size();
  out.u32(0);  // payload length and CRC, filled in once the payload is known
  out.u32(0);
  out.u8(static_cast<std::uint8_t>(type));
  put(out);
  const auto payload = std::span{out.bytes()}.subspan(head + kFrameHeadBytes);
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("put_frame: record larger than a journal frame holds");
  }
  out.u32_at(head, static_cast<std::uint32_t>(payload.size()));
  out.u32_at(head + 4, crc32(payload));
}

// Session-event codes carried by kSession frames (diagnostic only; salvage
// counts them but they do not affect the reconstructed trace).
enum class SessionEvent : std::uint8_t {
  kLogin = 0,
  kRelogin = 1,
  kFeedReconnect = 2,
};

// Appends frames to a journal file, flushing after every frame. All methods
// throw std::runtime_error on I/O failure — a measurement rig must know its
// durability layer is broken rather than sample into the void.
class TraceJournalWriter {
 public:
  // Creates (truncates) `path` and writes the file header. `planned_end` is
  // the intended virtual end time of the run; salvage uses it to extend the
  // trailing gap of a crashed run to the full planned duration (0 = unknown).
  TraceJournalWriter(const std::string& path, Seconds planned_end);
  // Re-opens an existing journal for appending after truncating it to
  // `offset` bytes (a checkpoint's recorded frontier). The retained prefix
  // must contain an intact header; frames past the offset are discarded
  // because a deterministic replay regenerates them bit-for-bit.
  static TraceJournalWriter resume(const std::string& path, std::uint64_t offset,
                                   Seconds planned_end);
  ~TraceJournalWriter();

  TraceJournalWriter(TraceJournalWriter&& other) noexcept;
  TraceJournalWriter& operator=(TraceJournalWriter&&) = delete;
  TraceJournalWriter(const TraceJournalWriter&) = delete;
  TraceJournalWriter& operator=(const TraceJournalWriter&) = delete;

  // First frame of every journal; must precede all records. A resumed
  // journal is already begun (the frame lives in the retained prefix).
  void begin(const std::string& land_name, Seconds sampling_interval);
  [[nodiscard]] bool begun() const { return begun_; }

  void append_snapshot(const Snapshot& snapshot);
  void append_gap_open(Seconds start);
  void append_gap_close(Seconds start, Seconds end);
  void append_degrade_open(Seconds start, std::uint32_t factor);
  void append_degrade_close(Seconds start, Seconds end, std::uint32_t factor);
  void append_session(Seconds time, SessionEvent event, const std::string& detail = "");
  // Clean finalization: a journal ending in kEnd salvages with no trailing gap.
  void append_end(Seconds time);

  // Current byte offset of the frame frontier (checkpoints record this).
  [[nodiscard]] std::uint64_t offset() const { return offset_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  TraceJournalWriter() = default;
  // Writes one frame (put_frame) and flushes it. Every record goes through
  // here.
  template <typename Put>
  void append(JournalRecord type, const Put& put);

  std::string path_;
  std::FILE* file_{nullptr};
  std::uint64_t offset_{0};
  Seconds planned_end_{0.0};
  bool begun_{false};
  ByteWriter frame_;  // reused, so a warm writer appends without allocating
};

// Result of reading a journal back, torn tail and all.
struct JournalSalvage {
  Trace trace;
  Seconds planned_end{0.0};
  std::size_t frames_read{0};       // intact frames, including kBegin/kEnd
  std::size_t snapshots{0};
  std::size_t session_events{0};
  std::uint64_t bytes_kept{0};      // offset of the first torn byte (= file
                                    // size when nothing was torn)
  bool torn{false};                 // a trailing frame was discarded
  bool clean_end{false};            // journal finished with a kEnd frame
};

// Reconstructs a Trace from a journal file, truncating any torn tail (see
// file comment for the exact semantics). Throws DecodeError only when the
// header or the kBegin frame is unreadable, std::runtime_error when the
// file cannot be opened.
JournalSalvage salvage_journal(const std::string& path);

}  // namespace slmob
