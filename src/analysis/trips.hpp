// Trip analysis (Fig. 4 of the paper): per-user travel length, effective
// travel time (motion only) and travel/login time, computed from
// reconstructed sessions.
#pragma once

#include <vector>

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
// closure order; per-session metrics are buffered (the session itself is
// not) and emitted at finish() in (avatar, login) order — extract_sessions'
// order — so Ecdf sample sequences do not depend on closure order.
class TripStream {
 public:
  explicit TripStream(const SessionExtractionOptions& options = {})
      : movement_epsilon_(options.movement_epsilon) {}

  void on_session(const Session& session);
  [[nodiscard]] TripAnalysis finish();

 private:
  struct Entry {
    AvatarId avatar;
    Seconds login{0.0};
    TripMetrics metrics;
  };
  double movement_epsilon_;
  std::vector<Entry> entries_;
};

}  // namespace slmob
