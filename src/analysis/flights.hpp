// Flight/pause decomposition of user trajectories.
//
// The paper's conclusion calls for "further study in the specification of
// new metrics to define human mobility"; the natural candidates are the
// flight-length and pause-time statistics of Rhee et al. ("On the
// Levy-walk nature of human mobility", INFOCOM 2008 — the paper's ref [8]).
// This module extracts them from sampled traces:
//
//   * a *pause* is a maximal run of fixes with per-interval displacement
//     below `pause_speed_threshold` (metres/second);
//   * a *flight* is the straight-line displacement between two consecutive
//     pauses (turning angles below the sampling resolution are absorbed,
//     as in the original methodology's rectangular model simplification).
#pragma once

#include "stats/ecdf.hpp"
#include "stats/fit.hpp"
#include "trace/sessions.hpp"
#include "trace/trace.hpp"

namespace slmob {

struct FlightAnalysisOptions {
  // Below this speed a sampled interval counts as pausing. Coarse positions
  // are metre-quantised at 10 s sampling, so 0.15 m/s is the noise floor.
  double pause_speed_threshold{0.15};
  // Flights shorter than this are quantisation residue and are discarded.
  double min_flight_length{2.0};
  SessionExtractionOptions sessions;
};

struct FlightAnalysis {
  Ecdf flight_lengths;  // metres
  Ecdf pause_times;     // seconds
  std::size_t sessions_analyzed{0};
  // MLE power-law exponents (Rhee et al. report ~1.5-2 for human walks).
  PowerLawFit flight_fit;
  PowerLawFit pause_fit;
};

// A FlightStream over stream_sessions(trace, options.sessions).
FlightAnalysis analyze_flights(const Trace& trace,
                               const FlightAnalysisOptions& options = {});

// Incremental flight/pause decomposition fed by a SessionStream sink: the one
// pause/flight state machine. Each session is decomposed and counted on
// arrival; an Ecdf does not depend on the order of its samples, so neither
// the result nor the fits depend on closure order.
class FlightStream {
 public:
  explicit FlightStream(const FlightAnalysisOptions& options = {})
      : options_(options) {}

  void on_session(const Session& session);
  [[nodiscard]] FlightAnalysis finish();

 private:
  FlightAnalysisOptions options_;
  EcdfAccumulator flight_lengths_;
  EcdfAccumulator pause_times_;
  std::size_t sessions_analyzed_{0};
};

}  // namespace slmob
