#include "trace/journal.hpp"

#include <filesystem>
#include <stdexcept>

#include "trace/stream.hpp"

namespace slmob {
namespace {

void write_or_throw(std::FILE* file, const std::string& path,
                    std::span<const std::uint8_t> bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
      std::fflush(file) != 0) {
    throw std::runtime_error("TraceJournalWriter: write failed for " + path);
  }
}

}  // namespace

TraceJournalWriter::TraceJournalWriter(const std::string& path, Seconds planned_end)
    : path_(path), planned_end_(planned_end) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("TraceJournalWriter: cannot open " + path);
  }
  ByteWriter header;
  header.raw(kJournalMagic);
  header.u16(kJournalVersion);
  write_or_throw(file_, path_, header.bytes());
  offset_ = header.size();
}

TraceJournalWriter TraceJournalWriter::resume(const std::string& path,
                                              std::uint64_t offset, Seconds planned_end) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("TraceJournalWriter::resume: cannot stat " + path);
  if (offset < kJournalHeaderBytes || offset > size) {
    throw std::runtime_error("TraceJournalWriter::resume: offset " +
                             std::to_string(offset) + " out of range for " + path);
  }
  // Frames past the checkpointed frontier are discarded: the deterministic
  // replay regenerates them bit-for-bit, so truncation never loses data.
  std::filesystem::resize_file(path, offset, ec);
  if (ec) throw std::runtime_error("TraceJournalWriter::resume: cannot truncate " + path);

  TraceJournalWriter writer;
  writer.path_ = path;
  writer.planned_end_ = planned_end;
  writer.file_ = std::fopen(path.c_str(), "ab");
  if (writer.file_ == nullptr) {
    throw std::runtime_error("TraceJournalWriter::resume: cannot open " + path);
  }
  writer.offset_ = offset;
  writer.begun_ = true;  // the kBegin frame lives in the retained prefix
  return writer;
}

TraceJournalWriter::TraceJournalWriter(TraceJournalWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      offset_(other.offset_),
      planned_end_(other.planned_end_),
      begun_(other.begun_) {
  other.file_ = nullptr;
}

TraceJournalWriter::~TraceJournalWriter() {
  // slmob-lint: allow(checked-durability) -- destructor cannot throw; every frame was already fflush-checked on append
  if (file_ != nullptr) std::fclose(file_);
}

void TraceJournalWriter::append_frame(const ByteWriter& payload) {
  if (file_ == nullptr) {
    throw std::runtime_error("TraceJournalWriter: writer is closed");
  }
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.bytes()));
  frame.raw(payload.bytes());
  write_or_throw(file_, path_, frame.bytes());
  offset_ += frame.size();
}

void TraceJournalWriter::begin(const std::string& land_name, Seconds sampling_interval) {
  if (begun_) throw std::logic_error("TraceJournalWriter::begin: already begun");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kBegin));
  w.str(land_name);
  w.f64(sampling_interval);
  w.f64(planned_end_);
  append_frame(w);
  begun_ = true;
}

void TraceJournalWriter::append_snapshot(const Snapshot& snapshot) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kSnapshot));
  w.f64(snapshot.time);
  w.u32(static_cast<std::uint32_t>(snapshot.fixes.size()));
  for (const auto& fix : snapshot.fixes) {
    w.u32(fix.id.value);
    w.f32(static_cast<float>(fix.pos.x));
    w.f32(static_cast<float>(fix.pos.y));
    w.f32(static_cast<float>(fix.pos.z));
  }
  append_frame(w);
}

void TraceJournalWriter::append_gap_open(Seconds start) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kGapOpen));
  w.f64(start);
  append_frame(w);
}

void TraceJournalWriter::append_gap_close(Seconds start, Seconds end) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kGapClose));
  w.f64(start);
  w.f64(end);
  append_frame(w);
}

void TraceJournalWriter::append_degrade_open(Seconds start, std::uint32_t factor) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kDegradeOpen));
  w.f64(start);
  w.u32(factor);
  append_frame(w);
}

void TraceJournalWriter::append_degrade_close(Seconds start, Seconds end,
                                              std::uint32_t factor) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kDegradeClose));
  w.f64(start);
  w.f64(end);
  w.u32(factor);
  append_frame(w);
}

void TraceJournalWriter::append_session(Seconds time, SessionEvent event,
                                        const std::string& detail) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kSession));
  w.f64(time);
  w.u8(static_cast<std::uint8_t>(event));
  w.str(detail);
  append_frame(w);
}

void TraceJournalWriter::append_end(Seconds time) {
  if (!begun_) throw std::logic_error("TraceJournalWriter: record before begin()");
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(JournalRecord::kEnd));
  w.f64(time);
  append_frame(w);
}

JournalSalvage salvage_journal(const std::string& path) {
  JournalFileStream stream(path);
  JournalSalvage out;
  out.trace = collect_trace(stream);
  out.planned_end = stream.planned_end();
  out.frames_read = stream.frames_read();
  out.snapshots = stream.snapshot_frames();
  out.session_events = stream.session_events();
  out.bytes_kept = stream.bytes_kept();
  out.torn = stream.torn();
  out.clean_end = stream.clean_end();
  return out;
}

}  // namespace slmob
