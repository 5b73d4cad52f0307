// Trip analysis (Fig. 4 of the paper): per-user travel length, effective
// travel time (motion only) and travel/login time, computed from
// reconstructed sessions.
#pragma once

#include <cstddef>

#include "stats/ecdf.hpp"
#include "trace/sessions.hpp"
#include "trace/trace.hpp"

namespace slmob {

struct TripAnalysis {
  Ecdf travel_lengths;          // metres, one sample per session
  Ecdf effective_travel_times;  // seconds
  Ecdf travel_times;            // seconds (session duration)
  std::size_t sessions{0};
};

// Incremental trip analysis fed by a SessionStream sink. Sessions arrive in
// closure order; each one's metrics are counted on arrival, and an Ecdf does
// not depend on the order of its samples.
class TripStream {
 public:
  explicit TripStream(const SessionExtractionOptions& options = {})
      : movement_epsilon_(options.movement_epsilon) {}

  void on_session(const Session& session);
  [[nodiscard]] TripAnalysis finish();

 private:
  double movement_epsilon_;
  EcdfAccumulator travel_lengths_;
  EcdfAccumulator effective_travel_times_;
  EcdfAccumulator travel_times_;
  std::size_t sessions_{0};
};

}  // namespace slmob
