#include "analysis/flights.hpp"

#include <algorithm>

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

  Entry entry;
  entry.avatar = session.avatar;
  entry.login = session.login;

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
      if (pause > 0.0) entry.pause_times.push_back(pause);
      flight_start = session.positions[i - 1];
      in_pause = false;
    } else if (!moving && !in_pause) {
      const double length = session.positions[i - 1].distance_to(flight_start);
      if (length >= options_.min_flight_length) entry.flight_lengths.push_back(length);
      pause_start = session.times[i - 1];
      in_pause = true;
    }
  }
  // Close whatever phase is open at logout.
  if (in_pause) {
    const Seconds pause = session.times.back() - pause_start;
    if (pause > 0.0) entry.pause_times.push_back(pause);
  } else {
    const double length = session.positions.back().distance_to(flight_start);
    if (length >= options_.min_flight_length) entry.flight_lengths.push_back(length);
  }
  if (!entry.flight_lengths.empty() || !entry.pause_times.empty()) {
    entries_.push_back(std::move(entry));
  }
}

FlightAnalysis FlightStream::finish() {
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    if (a.avatar != b.avatar) return a.avatar < b.avatar;
    return a.login < b.login;
  });
  FlightAnalysis out;
  out.sessions_analyzed = sessions_analyzed_;
  for (const Entry& e : entries_) {
    for (const double length : e.flight_lengths) out.flight_lengths.add(length);
    for (const Seconds pause : e.pause_times) out.pause_times.add(pause);
  }
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
