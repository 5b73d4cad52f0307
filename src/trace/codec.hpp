// The trace records, one encoder and one decoder each.
//
// A trace file, a journal (trace/journal.hpp), carries them as frame
// payloads after the type byte; a trace's canonical bytes (encode_trace,
// trace/serialize.hpp) are a header and three blocks of them. ByteWriter
// encoding, little-endian:
//
//   snapshot  f64 time | u32 n | n x (u32 id, f32 x, f32 y, f32 z)
//   gap       f64 start | f64 end
//   window    f64 start | f64 end | u32 factor   (a sampling degradation)
//
// The decoders check what the bytes alone can tell and throw DecodeError
// otherwise: a snapshot's fix count against the bytes left, before
// anything is sized by it, and a finite time and coordinates. Whether a gap
// or window may follow the previous one is not the codec's question:
// GapTracker::admits and DegradationWindows::admits (trace/trace.hpp)
// answer it for every reader.
#pragma once

#include <cstddef>
#include <cstdint>

#include "trace/trace.hpp"
#include "util/bytes.hpp"

namespace slmob {

inline constexpr std::size_t kSnapshotHeadBytes = 12;  // time and fix count
inline constexpr std::size_t kFixBytes = 16;
inline constexpr std::size_t kGapBytes = 16;
inline constexpr std::size_t kWindowBytes = 20;

void put_snapshot(ByteWriter& w, const Snapshot& snapshot);
// A snapshot record in two steps, for a reader that learns the fix count
// before it has the fixes: get_snapshot_head reads the time and count,
// get_fixes the fixes after them into `out`, with the head's time (the
// fixes' capacity is reused). get_snapshot does both.
struct SnapshotHead {
  Seconds time{0.0};
  std::uint32_t fixes{0};
};
[[nodiscard]] SnapshotHead get_snapshot_head(ByteReader& r);
void get_fixes(ByteReader& r, const SnapshotHead& head, Snapshot& out);
inline void get_snapshot(ByteReader& r, Snapshot& out) { get_fixes(r, get_snapshot_head(r), out); }

inline void put_gap(ByteWriter& w, const CoverageGap& gap) {
  w.f64(gap.start);
  w.f64(gap.end);
}
// A braced list reads its fields in order.
inline CoverageGap get_gap(ByteReader& r) { return {r.f64(), r.f64()}; }

inline void put_window(ByteWriter& w, const SamplingDegradation& window) {
  w.f64(window.start);
  w.f64(window.end);
  w.u32(window.factor);
}
inline SamplingDegradation get_window(ByteReader& r) { return {r.f64(), r.f64(), r.u32()}; }

}  // namespace slmob
