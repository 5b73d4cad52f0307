// The complete result of analyzing one trace, as a plain value: the
// paper's §3 metrics (summary, contacts and graphs per range, zones,
// trips). The §5 relation graph and flight decomposition are not part of
// it; bench/future_relation_graph computes them per trace.
//
// StreamingAnalyzer (analysis/streaming.hpp) is the only producer; an
// in-memory trace reaches it through analyze_trace (core/experiment.hpp).
// analysis_diff explains the first mismatch between two reports in words;
// analysis_fingerprint condenses a report to a CRC. Committed fingerprints
// (tests/analysis_goldens.hpp, perfbench/spec.json) pin the results of
// every land, fault scenario and synthetic trace they cover, at any thread
// count.
//
// Equality convention: Ecdfs compare by their sorted sample sequence,
// bitwise: the runs, each value repeated by its count. An Ecdf keeps no
// insertion order, so no reported quantity can depend on it.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "trace/trace.hpp"

namespace slmob {

class ByteWriter;

struct AnalysisReport {
  TraceSummary summary;
  // Keyed by communication range; one entry per requested radius.
  std::map<double, ContactAnalysis> contacts;
  std::map<double, GraphMetrics> graphs;
  ZoneAnalysis zones;
  TripAnalysis trips;
};

// Human-readable description of the first difference between two reports,
// or "" when they are equivalent. Scalars compare exactly (bitwise for
// doubles), Ecdfs by sorted sample sequence, interval lists elementwise.
[[nodiscard]] std::string analysis_diff(const AnalysisReport& a, const AnalysisReport& b);

[[nodiscard]] inline bool analysis_equal(const AnalysisReport& a, const AnalysisReport& b) {
  return analysis_diff(a, b).empty();
}

// CRC-32 over a canonical serialization of the report (Ecdfs as put_ecdf
// writes them). Two reports are fingerprint-equal iff analysis_equal —
// up to CRC collision — so a committed constant can stand for a whole
// report.
[[nodiscard]] std::uint32_t analysis_fingerprint(const AnalysisReport& report);

// An Ecdf as every fingerprint serializes it: the sample count as u64, then
// every sample in ascending order as raw f64 bits, each run's value written
// once per sample it counts.
void put_ecdf(ByteWriter& w, const Ecdf& e);

}  // namespace slmob
