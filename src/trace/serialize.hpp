// Trace persistence.
//
// Two formats:
//  * binary: a closed journal (trace/journal.hpp), the one binary trace
//    format — exact round-trip of the f32 positions, for saving and
//    replaying experiments; a capture's .sltj is the same format, growing;
//  * CSV: one row per fix (time,avatar,x,y,z) — for external tools (R,
//    gnuplot, the DTN simulators the paper's traces were published for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace slmob {

// The canonical bytes of a trace, which trace digests hash: magic "SLTR",
// u16 version 3, land name, f64 sampling interval, u32 snapshot count and
// that many snapshot records, u32 gap count and that many gap records, u32
// count and that many degradation window records (records laid out in
// trace/codec.hpp). No file holds these bytes any more and nothing decodes
// them: they stay only so every committed digest stays valid.
std::vector<std::uint8_t> encode_trace(const Trace& trace);

// CSV with header "time,avatar,x,y,z". Coverage gaps are emitted as trailing
// sentinel rows: "gap",start,end,0,0 — external tools filtering on numeric
// avatar ids skip them naturally. Sampling degradations follow the same
// pattern: "degraded",start,end,factor,0. trace_from_csv parses every field
// whole and throws DecodeError, naming the 1-based line, on a row of the
// wrong width, a malformed number, an id or factor outside u32, a non-finite
// time or fix coordinate, or a row the Trace rejects (time going backwards,
// an empty or overlapping gap or degradation window, a factor below 2).
std::string trace_to_csv(const Trace& trace);
Trace trace_from_csv(std::string_view text, std::string land_name,
                     Seconds sampling_interval);

// File helpers (binary format). save_trace writes a closed journal: the
// header, kBegin, every snapshot, gap and degradation window frame in
// stream order (MemoryTraceStream's), then kEnd, built in memory and
// written atomically. load_trace collects a JournalFileStream
// (trace/stream.hpp) and throws DecodeError, naming the bytes kept, unless
// the file is a closed journal: it ends with kEnd and has no torn frame.
// Both throw std::runtime_error on I/O failure.
void save_trace(const Trace& trace, const std::string& path);
Trace load_trace(const std::string& path);

// CSV export with the same durability contract as save_trace: written
// atomically (tmp + rename), throws on any I/O failure — a full disk must
// never leave a silently truncated CSV behind with a success exit.
void save_trace_csv(const Trace& trace, const std::string& path);

}  // namespace slmob
