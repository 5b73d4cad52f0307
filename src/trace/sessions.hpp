// Session (login-to-logout) extraction from a sampled trace.
//
// The crawler only sees periodic snapshots, so sessions are reconstructed:
// an avatar absent for more than `absence_threshold` is considered logged
// out, and a later reappearance starts a new session. The paper's "travel
// time" (Fig. 4c) is the session duration; "travel length" (4a) the path
// length over the session; "effective travel time" (4b) the time spent
// moving (pauses excluded).
//
// Coverage gaps censor sessions: every session open when a gap starts is
// closed at its last observed snapshot, and reappearances after the gap
// start fresh sessions — presence is never assumed across unobserved time.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace slmob {

// One reconstructed visit of one avatar.
struct Session {
  AvatarId avatar;
  Seconds login{0.0};
  Seconds logout{0.0};
  // Position fixes (time-ordered) observed during the session.
  std::vector<Seconds> times;
  std::vector<Vec3> positions;

  [[nodiscard]] Seconds duration() const { return logout - login; }
};

struct SessionExtractionOptions {
  // An avatar unseen for strictly more than this is logged out. Default: 3
  // sampling intervals at tau = 10 s.
  Seconds absence_threshold{30.0};
  // Displacements below this (between consecutive fixes) count as standing
  // still for travel purposes. Coarse positions are quantised to whole
  // metres, so steps must clear the quantisation noise floor.
  double movement_epsilon{1.5};
};

// Extracts all sessions, ordered by (avatar, login time).
std::vector<Session> extract_sessions(const Trace& trace,
                                      const SessionExtractionOptions& options = {});

// Drives a SessionStream over the covered snapshots of `trace`, handing each
// session to `sink` as it closes (stream order). extract_sessions and
// analyze_flights read a trace through this.
void stream_sessions(const Trace& trace, const SessionExtractionOptions& options,
                     const std::function<void(Session&&)>& sink);

// Trip metrics of one session.
struct TripMetrics {
  AvatarId avatar;
  double travel_length{0.0};       // summed displacement over the session (m)
  Seconds effective_travel_time{0.0};  // time in motion
  Seconds travel_time{0.0};        // session duration (paper: login time)
};

TripMetrics trip_metrics(const Session& session, double movement_epsilon = 0.5);

// Incremental session reconstruction over a snapshot stream: the one
// session loop. Feed every *covered* snapshot in time order; each session is
// handed to the sink as it closes (absence timeout, gap censoring, or
// finish()). Sessions close in stream order, not the (avatar, login) order
// extract_sessions returns — consumers that need that order buffer and sort
// (the keys are unique).
class SessionStream {
 public:
  explicit SessionStream(const GapTracker& gaps,
                         SessionExtractionOptions options = {})
      : gaps_(&gaps), options_(options) {}

  void set_sink(std::function<void(Session&&)> sink) { sink_ = std::move(sink); }
  void on_snapshot(const Snapshot& snapshot);
  // Closes every still-open session (logout at last sighting).
  void finish();

 private:
  void emit(Session&& session);

  const GapTracker* gaps_;
  SessionExtractionOptions options_;
  std::function<void(Session&&)> sink_;
  std::map<AvatarId, Session> open_;
  bool have_prev_{false};
  Seconds prev_time_{0.0};
};

}  // namespace slmob
