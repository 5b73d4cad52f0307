#include "trace/sessions.hpp"

#include <algorithm>

namespace slmob {

void stream_sessions(const Trace& trace, const SessionExtractionOptions& options,
                     const std::function<void(Session&&)>& sink) {
  GapTracker gaps;
  for (const auto& gap : trace.gaps()) gaps.add(gap.start, gap.end);
  SessionStream stream(gaps, options);
  stream.set_sink(sink);
  for (const auto& snap : trace.snapshots()) {
    if (gaps.covered_at(snap.time)) stream.on_snapshot(snap);
  }
  stream.finish();
}

std::vector<Session> extract_sessions(const Trace& trace,
                                      const SessionExtractionOptions& options) {
  std::vector<Session> done;
  stream_sessions(trace, options, [&done](Session&& s) { done.push_back(std::move(s)); });
  // (avatar, login) pairs are unique, so this order is total.
  std::sort(done.begin(), done.end(), [](const Session& a, const Session& b) {
    if (a.avatar != b.avatar) return a.avatar < b.avatar;
    return a.login < b.login;
  });
  return done;
}

void SessionStream::emit(Session&& session) {
  if (sink_) sink_(std::move(session));
}

void SessionStream::on_snapshot(const Snapshot& snap) {
  // Gap censoring first, then absence closes, then this snapshot's fixes.
  // A coverage gap censors every open session — presence across unobserved
  // time may not be assumed, however short the gap is relative to the
  // absence threshold.
  if (have_prev_ && gaps_->spans_gap(prev_time_, snap.time)) {
    for (auto& [id, s] : open_) emit(std::move(s));
    open_.clear();
  }
  have_prev_ = true;
  prev_time_ = snap.time;
  for (auto it = open_.begin(); it != open_.end();) {
    if (snap.time - it->second.times.back() > options_.absence_threshold) {
      emit(std::move(it->second));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& fix : snap.fixes) {
    auto [it, inserted] = open_.try_emplace(fix.id);
    Session& s = it->second;
    if (inserted) {
      s.avatar = fix.id;
      s.login = snap.time;
    }
    s.logout = snap.time;
    s.times.push_back(snap.time);
    s.positions.push_back(fix.pos);
  }
}

void SessionStream::finish() {
  for (auto& [id, s] : open_) emit(std::move(s));
  open_.clear();
}

TripMetrics trip_metrics(const Session& session, double movement_epsilon) {
  TripMetrics m;
  m.avatar = session.avatar;
  m.travel_time = session.duration();
  for (std::size_t i = 1; i < session.positions.size(); ++i) {
    const double step = session.positions[i].distance_to(session.positions[i - 1]);
    if (step > movement_epsilon) {
      m.travel_length += step;
      m.effective_travel_time += session.times[i] - session.times[i - 1];
    }
  }
  return m;
}

}  // namespace slmob
