// Trace persistence.
//
// Two formats:
//  * binary (".slt"): compact, versioned, exact round-trip — the working
//    format for saving/replaying experiments;
//  * CSV: one row per fix (time,avatar,x,y,z) — for external tools (R,
//    gnuplot, the DTN simulators the paper's traces were published for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace slmob {

// Binary encoding. Layout: magic "SLTR", u16 version, land name, f64
// sampling interval, u32 snapshot count and that many snapshot records,
// then (version 2 on) u32 gap count and that many gap records, then
// (version 3 on) u32 count and that many degradation window records. The
// records are laid out in trace/codec.hpp. Versions 1 and 2 still load, as
// gap-free and degradation-free traces.
inline constexpr std::uint8_t kSltMagic[4] = {'S', 'L', 'T', 'R'};
inline constexpr std::uint16_t kSltVersion = 3;
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

// File helpers (binary format). Throw std::runtime_error on I/O failure;
// load_trace throws DecodeError on malformed content. load_trace collects
// an SltFileStream (trace/stream.hpp), the one .slt decoder.
void save_trace(const Trace& trace, const std::string& path);
Trace load_trace(const std::string& path);

// CSV export with the same durability contract as save_trace: written
// atomically (tmp + rename), throws on any I/O failure — a full disk must
// never leave a silently truncated CSV behind with a success exit.
void save_trace_csv(const Trace& trace, const std::string& path);

}  // namespace slmob
