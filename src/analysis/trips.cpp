#include "analysis/trips.hpp"

namespace slmob {

void TripStream::on_session(const Session& session) {
  const TripMetrics m = trip_metrics(session, movement_epsilon_);
  travel_lengths_.add(m.travel_length);
  effective_travel_times_.add(m.effective_travel_time);
  travel_times_.add(m.travel_time);
  ++sessions_;
}

TripAnalysis TripStream::finish() {
  TripAnalysis out;
  out.travel_lengths = travel_lengths_.finish();
  out.effective_travel_times = effective_travel_times_.finish();
  out.travel_times = travel_times_.finish();
  out.sessions = sessions_;
  return out;
}

}  // namespace slmob
