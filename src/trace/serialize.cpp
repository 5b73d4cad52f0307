#include "trace/serialize.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "trace/codec.hpp"
#include "trace/journal.hpp"
#include "trace/stream.hpp"
#include "util/bytes.hpp"
#include "util/csv.hpp"
#include "util/fileio.hpp"
#include "util/strings.hpp"

namespace slmob {
namespace {

// The header of the canonical bytes (serialize.hpp).
constexpr std::uint8_t kCanonicalMagic[4] = {'S', 'L', 'T', 'R'};
constexpr std::uint16_t kCanonicalVersion = 3;

}  // namespace

std::vector<std::uint8_t> encode_trace(const Trace& trace) {
  ByteWriter w;
  w.raw(kCanonicalMagic);
  w.u16(kCanonicalVersion);
  w.str(trace.land_name());
  w.f64(trace.sampling_interval());
  w.u32(static_cast<std::uint32_t>(trace.snapshots().size()));
  for (const auto& snap : trace.snapshots()) put_snapshot(w, snap);
  w.u32(static_cast<std::uint32_t>(trace.gaps().size()));
  for (const auto& gap : trace.gaps()) put_gap(w, gap);
  w.u32(static_cast<std::uint32_t>(trace.degradations().size()));
  for (const auto& d : trace.degradations()) put_window(w, d);
  return w.take();
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
  Snapshot current;
  bool have_current = false;
  bool first_row = true;
  for_each_csv_row(text, [&](std::size_t line, const std::vector<std::string_view>& row) {
    const auto fail = [line](const std::string& what) {
      throw DecodeError("trace_from_csv: line " + std::to_string(line) + ": " + what);
    };
    const auto number = [&](std::size_t field, const char* name) {
      const std::optional<double> value = parse_double(row[field]);
      if (!value) fail(std::string("malformed ") + name);
      return *value;
    };
    const auto u32 = [&](std::size_t field, const char* name) {
      const std::optional<std::uint32_t> value = parse_u32(row[field]);
      if (!value) fail(std::string("malformed or out-of-range ") + name);
      return *value;
    };
    const bool header = first_row && row[0] == "time";
    first_row = false;
    if (header) return;
    if (row.size() != 5) fail("row must have 5 fields");
    try {
      if (row[0] == "gap") {
        trace.add_gap(number(1, "gap start"), number(2, "gap end"));
        return;
      }
      if (row[0] == "degraded") {
        trace.add_degradation(number(1, "degradation start"), number(2, "degradation end"),
                              u32(3, "degradation factor"));
        return;
      }
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    const double t = number(0, "time");
    if (!std::isfinite(t)) fail("non-finite time");
    const auto id = AvatarId{u32(1, "avatar id")};
    const Vec3 pos{number(2, "x"), number(3, "y"), number(4, "z")};
    if (!pos.finite()) fail("non-finite fix coordinate");
    if (!have_current || t != current.time) {
      // Trace::add's rule, checked here so the error names this row.
      if (have_current && t < current.time) fail("snapshots must be time-ordered");
      if (have_current) trace.add(std::move(current));
      current = Snapshot{};
      current.time = t;
      have_current = true;
    }
    current.fixes.push_back({id, pos});
  });
  if (have_current) trace.add(std::move(current));
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  const auto& snaps = trace.snapshots();
  const Seconds end = snaps.empty() ? 0.0 : snaps.back().time;
  ByteWriter w;
  w.raw(kJournalMagic);
  w.u16(kJournalVersion);
  put_frame(w, JournalRecord::kBegin, [&](ByteWriter& p) {
    p.str(trace.land_name());
    p.f64(trace.sampling_interval());
    p.f64(end);  // planned end: the run is over
  });
  MemoryTraceStream stream(trace);
  SamplingDegradation open{};  // the window a rate change back to 1 closes
  for (StreamEvent ev = stream.next(); ev.kind != StreamEventKind::kEnd; ev = stream.next()) {
    switch (ev.kind) {
      case StreamEventKind::kSnapshot:
        put_frame(w, JournalRecord::kSnapshot,
                  [&](ByteWriter& p) { put_snapshot(p, *ev.snapshot); });
        break;
      case StreamEventKind::kGap:
        put_frame(w, JournalRecord::kGapClose, [&](ByteWriter& p) { put_gap(p, ev.gap); });
        break;
      case StreamEventKind::kRateChange:
        if (ev.factor > 1) {
          open = {ev.time, ev.time, ev.factor};
          put_frame(w, JournalRecord::kDegradeOpen, [&](ByteWriter& p) {
            p.f64(open.start);
            p.u32(open.factor);
          });
        } else {
          open.end = ev.time;
          put_frame(w, JournalRecord::kDegradeClose, [&](ByteWriter& p) { put_window(p, open); });
        }
        break;
      case StreamEventKind::kSessionEvent:
      case StreamEventKind::kEnd:
        break;
    }
  }
  put_frame(w, JournalRecord::kEnd, [&](ByteWriter& p) { p.f64(end); });
  // Atomic: a crash mid-save must not leave a truncated trace at the final
  // path (the paper's runs died often enough to make this a real hazard).
  write_file_atomic(path, w.bytes());
}

void save_trace_csv(const Trace& trace, const std::string& path) {
  write_file_atomic(path, trace_to_csv(trace));
}

Trace load_trace(const std::string& path) {
  JournalFileStream stream(path);
  Trace trace = collect_trace(stream);
  if (stream.torn() || !stream.clean_end()) {
    throw DecodeError("load_trace: not a closed journal; intact up to byte " +
                      std::to_string(stream.bytes_kept()));
  }
  return trace;
}

}  // namespace slmob
