#include "analysis/flights.hpp"

namespace slmob {

FlightAnalysis analyze_flights(const Trace& trace, const FlightAnalysisOptions& options) {
  FlightStream flights(options);
  stream_sessions(trace, options.sessions,
                  [&flights](Session&& s) { flights.on_session(s); });
  return flights.finish();
}

void FlightStream::on_session(const Session& session) {
  ++sessions_analyzed_;  // every session counts, even unusable ones
  if (session.positions.size() < 2) return;

  // Classify each sampling interval as moving or paused; a pause ending
  // starts a flight, a flight ending starts a pause.
  Vec3 flight_start = session.positions.front();
  bool in_pause = true;
  Seconds pause_start = session.times.front();
  for (std::size_t i = 1; i < session.positions.size(); ++i) {
    const Seconds dt = session.times[i] - session.times[i - 1];
    if (dt <= 0.0) continue;
    const double speed =
        session.positions[i].distance_to(session.positions[i - 1]) / dt;
    const bool moving = speed > options_.pause_speed_threshold;
    if (moving && in_pause) {
      const Seconds pause = session.times[i - 1] - pause_start;
      if (pause > 0.0) pause_times_.add(pause);
      flight_start = session.positions[i - 1];
      in_pause = false;
    } else if (!moving && !in_pause) {
      const double length = session.positions[i - 1].distance_to(flight_start);
      if (length >= options_.min_flight_length) flight_lengths_.add(length);
      pause_start = session.times[i - 1];
      in_pause = true;
    }
  }
  // Close whatever phase is open at logout.
  if (in_pause) {
    const Seconds pause = session.times.back() - pause_start;
    if (pause > 0.0) pause_times_.add(pause);
  } else {
    const double length = session.positions.back().distance_to(flight_start);
    if (length >= options_.min_flight_length) flight_lengths_.add(length);
  }
}

FlightAnalysis FlightStream::finish() {
  FlightAnalysis out;
  out.sessions_analyzed = sessions_analyzed_;
  out.flight_lengths = flight_lengths_.finish();
  out.pause_times = pause_times_.finish();
  if (!out.flight_lengths.empty()) {
    out.flight_fit =
        fit_power_law(out.flight_lengths.sorted(), options_.min_flight_length);
  }
  if (!out.pause_times.empty()) {
    out.pause_fit = fit_power_law(out.pause_times.sorted(), 10.0);
  }
  return out;
}

}  // namespace slmob
