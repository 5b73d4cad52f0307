#include "trace/journal.hpp"

#include <filesystem>
#include <stdexcept>

#include "trace/codec.hpp"
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
      begun_(other.begun_),
      frame_(std::move(other.frame_)) {
  other.file_ = nullptr;
}

TraceJournalWriter::~TraceJournalWriter() {
  // slmob-lint: allow(checked-durability) -- destructor cannot throw; every frame was already fflush-checked on append
  if (file_ != nullptr) std::fclose(file_);
}

template <typename Put>
void TraceJournalWriter::append(JournalRecord type, const Put& put) {
  if (!begun_ && type != JournalRecord::kBegin) {
    throw std::logic_error("TraceJournalWriter: record before begin()");
  }
  if (file_ == nullptr) {
    throw std::runtime_error("TraceJournalWriter: writer is closed");
  }
  frame_.clear();
  put_frame(frame_, type, put);
  write_or_throw(file_, path_, frame_.bytes());
  offset_ += frame_.size();
}

void TraceJournalWriter::begin(const std::string& land_name, Seconds sampling_interval) {
  if (begun_) throw std::logic_error("TraceJournalWriter::begin: already begun");
  append(JournalRecord::kBegin, [&](ByteWriter& w) {
    w.str(land_name);
    w.f64(sampling_interval);
    w.f64(planned_end_);
  });
  begun_ = true;
}

void TraceJournalWriter::append_snapshot(const Snapshot& snapshot) {
  append(JournalRecord::kSnapshot, [&](ByteWriter& w) { put_snapshot(w, snapshot); });
}

void TraceJournalWriter::append_gap_open(Seconds start) {
  append(JournalRecord::kGapOpen, [&](ByteWriter& w) { w.f64(start); });
}

void TraceJournalWriter::append_gap_close(Seconds start, Seconds end) {
  append(JournalRecord::kGapClose, [&](ByteWriter& w) { put_gap(w, {start, end}); });
}

void TraceJournalWriter::append_degrade_open(Seconds start, std::uint32_t factor) {
  append(JournalRecord::kDegradeOpen, [&](ByteWriter& w) {
    w.f64(start);
    w.u32(factor);
  });
}

void TraceJournalWriter::append_degrade_close(Seconds start, Seconds end,
                                              std::uint32_t factor) {
  append(JournalRecord::kDegradeClose,
         [&](ByteWriter& w) { put_window(w, {start, end, factor}); });
}

void TraceJournalWriter::append_session(Seconds time, SessionEvent event,
                                        const std::string& detail) {
  append(JournalRecord::kSession, [&](ByteWriter& w) {
    w.f64(time);
    w.u8(static_cast<std::uint8_t>(event));
    w.str(detail);
  });
}

void TraceJournalWriter::append_end(Seconds time) {
  append(JournalRecord::kEnd, [&](ByteWriter& w) { w.f64(time); });
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
