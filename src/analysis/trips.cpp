#include "analysis/trips.hpp"

#include <algorithm>

namespace slmob {

void TripStream::on_session(const Session& session) {
  entries_.push_back(
      {session.avatar, session.login, trip_metrics(session, movement_epsilon_)});
}

TripAnalysis TripStream::finish() {
  // (avatar, login) pairs are unique, so this order is total and matches
  // extract_sessions' sort exactly.
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    if (a.avatar != b.avatar) return a.avatar < b.avatar;
    return a.login < b.login;
  });
  TripAnalysis out;
  out.sessions = entries_.size();
  for (const Entry& e : entries_) {
    out.travel_lengths.add(e.metrics.travel_length);
    out.effective_travel_times.add(e.metrics.effective_travel_time);
    out.travel_times.add(e.metrics.travel_time);
  }
  return out;
}

}  // namespace slmob
