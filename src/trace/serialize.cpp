#include "trace/serialize.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"

namespace slmob {
namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'L', 'T', 'R'};
// Version 2 added the trailing coverage-gap block; version 3 appends the
// sampling-degradation block after it. Version-1 and -2 inputs are still
// decoded (as gap-free / degradation-free traces respectively).
constexpr std::uint16_t kVersion = 3;
// Per-fix wire size: u32 id + 3 x f32 position.
constexpr std::size_t kFixBytes = 16;

}  // namespace

std::vector<std::uint8_t> encode_trace(const Trace& trace) {
  ByteWriter w;
  w.raw(kMagic);
  w.u16(kVersion);
  w.str(trace.land_name());
  w.f64(trace.sampling_interval());
  w.u32(static_cast<std::uint32_t>(trace.snapshots().size()));
  for (const auto& snap : trace.snapshots()) {
    w.f64(snap.time);
    w.u32(static_cast<std::uint32_t>(snap.fixes.size()));
    for (const auto& fix : snap.fixes) {
      w.u32(fix.id.value);
      w.f32(static_cast<float>(fix.pos.x));
      w.f32(static_cast<float>(fix.pos.y));
      w.f32(static_cast<float>(fix.pos.z));
    }
  }
  w.u32(static_cast<std::uint32_t>(trace.gaps().size()));
  for (const auto& gap : trace.gaps()) {
    w.f64(gap.start);
    w.f64(gap.end);
  }
  w.u32(static_cast<std::uint32_t>(trace.degradations().size()));
  for (const auto& d : trace.degradations()) {
    w.f64(d.start);
    w.f64(d.end);
    w.u32(d.factor);
  }
  return w.take();
}

Trace decode_trace(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto magic = r.raw(4);
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    throw DecodeError("decode_trace: bad magic");
  }
  const auto version = r.u16();
  if (version < 1 || version > 3) {
    throw DecodeError("decode_trace: unsupported version");
  }
  const std::string land = r.str();
  const double interval = r.f64();
  Trace trace(land, interval);
  const std::uint32_t snap_count = r.u32();
  for (std::uint32_t i = 0; i < snap_count; ++i) {
    Snapshot snap;
    snap.time = r.f64();
    const std::uint32_t fix_count = r.u32();
    // The count comes from the file: check it against the bytes left before
    // sizing anything by it.
    if (kFixBytes * fix_count > r.remaining()) {
      throw DecodeError("decode_trace: truncated snapshot block");
    }
    snap.fixes.reserve(fix_count);
    for (std::uint32_t j = 0; j < fix_count; ++j) {
      AvatarFix fix;
      fix.id = AvatarId{r.u32()};
      fix.pos.x = r.f32();
      fix.pos.y = r.f32();
      fix.pos.z = r.f32();
      snap.fixes.push_back(fix);
    }
    trace.add(std::move(snap));
  }
  if (version >= 2) {
    const std::uint32_t gap_count = r.u32();
    for (std::uint32_t i = 0; i < gap_count; ++i) {
      const double start = r.f64();
      const double end = r.f64();
      trace.add_gap(start, end);
    }
  }
  if (version >= 3) {
    const std::uint32_t degradation_count = r.u32();
    for (std::uint32_t i = 0; i < degradation_count; ++i) {
      const double start = r.f64();
      const double end = r.f64();
      const std::uint32_t factor = r.u32();
      trace.add_degradation(start, end, factor);
    }
  }
  if (!r.at_end()) throw DecodeError("decode_trace: trailing bytes");
  return trace;
}

std::string trace_to_csv(const Trace& trace) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"time", "avatar", "x", "y", "z"});
  for (const auto& snap : trace.snapshots()) {
    for (const auto& fix : snap.fixes) {
      w.row({std::to_string(snap.time), std::to_string(fix.id.value),
             std::to_string(fix.pos.x), std::to_string(fix.pos.y),
             std::to_string(fix.pos.z)});
    }
  }
  for (const auto& gap : trace.gaps()) {
    w.row({"gap", std::to_string(gap.start), std::to_string(gap.end), "0", "0"});
  }
  for (const auto& d : trace.degradations()) {
    w.row({"degraded", std::to_string(d.start), std::to_string(d.end),
           std::to_string(d.factor), "0"});
  }
  return os.str();
}

Trace trace_from_csv(std::string_view text, std::string land_name,
                     Seconds sampling_interval) {
  Trace trace(std::move(land_name), sampling_interval);
  const auto rows = parse_csv(text);
  Snapshot current;
  bool have_current = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (i == 0 && !row.empty() && row[0] == "time") continue;  // header
    if (row.size() != 5) throw DecodeError("trace_from_csv: row must have 5 fields");
    if (row[0] == "gap") {
      trace.add_gap(std::stod(row[1]), std::stod(row[2]));
      continue;
    }
    if (row[0] == "degraded") {
      trace.add_degradation(std::stod(row[1]), std::stod(row[2]),
                            static_cast<std::uint32_t>(std::stoul(row[3])));
      continue;
    }
    const double t = std::stod(row[0]);
    const auto id = AvatarId{static_cast<std::uint32_t>(std::stoul(row[1]))};
    const Vec3 pos{std::stod(row[2]), std::stod(row[3]), std::stod(row[4])};
    if (!have_current || t != current.time) {
      if (have_current) trace.add(std::move(current));
      current = Snapshot{};
      current.time = t;
      have_current = true;
    }
    current.fixes.push_back({id, pos});
  }
  if (have_current) trace.add(std::move(current));
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  // Atomic: a crash mid-save must not leave a truncated .slt at the final
  // path (the paper's runs died often enough to make this a real hazard).
  write_file_atomic(path, encode_trace(trace));
}

void save_trace_csv(const Trace& trace, const std::string& path) {
  write_file_atomic(path, trace_to_csv(trace));
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_trace: cannot open " + path);
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  return decode_trace(bytes);
}

}  // namespace slmob
