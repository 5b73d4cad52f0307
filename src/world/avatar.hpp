// Avatar entity and its movement state machine.
//
// Synthetic avatars are driven by a MobilityModel; externally controlled
// avatars (protocol clients such as the crawler) receive waypoints via the
// sim server instead. Both kinds share the same kinematics, so from a
// measurement perspective the crawler is indistinguishable from a user —
// which is exactly the perturbation problem §2 of the paper discusses.
#pragma once

#include "util/ids.hpp"
#include "util/time.hpp"
#include "util/vec3.hpp"

namespace slmob {

enum class AvatarState {
  kTravelling,  // moving toward `waypoint` at `speed`
  kPaused,      // dwelling until `pause_until` (optionally jittering)
};

// Behavioural archetype of a synthetic avatar, fixed at login.
enum class AvatarKind {
  kRegular,   // hops between POIs
  kIdler,     // mostly stationary (camping/AFK users)
  kExplorer,  // roams long distances across the land
};

struct Avatar {
  AvatarId id;
  Vec3 pos;
  AvatarState state{AvatarState::kPaused};
  AvatarKind kind{AvatarKind::kRegular};

  Vec3 waypoint;
  double speed{0.0};          // m/s while travelling
  Seconds pause_until{0.0};   // valid while paused
  Seconds login_time{0.0};
  Seconds logout_at{0.0};     // scheduled departure (synthetic avatars)

  // While paused, avatars may take small steps around `anchor` within
  // `jitter_radius` (e.g. dancing on a dance floor).
  Vec3 anchor;
  double jitter_radius{0.0};
  double jitter_rate{0.0};  // per-second probability of a jitter step

  // Index of the POI the avatar currently gravitates around; -1 if none.
  int current_poi{-1};
  // First POI adopted in this session ("my spot"): excursions tend to
  // return here, which is what produces long inter-contact gaps between
  // users who share a home POI.
  int home_poi{-1};

  bool sitting{false};            // sitting avatars report position {0,0,0}
  bool externally_controlled{false};  // protocol client drives this avatar
  bool debug_pinned{false};  // test avatar: stationary, never pooled for revisits
  Seconds last_intentional_move{0.0};  // last waypoint change (activity signal)
};

// Advances one avatar by dt of kinematics only (no decisions): travelling
// avatars step toward their waypoint, arriving exactly when close enough.
// Returns true if the avatar reached its waypoint during this step.
bool step_kinematics(Avatar& avatar, Seconds dt);

// Component-level form of the same step, for structure-of-arrays storage
// where position/waypoint/speed live in separate arrays. The caller is
// responsible for the state check; identical arithmetic to the Avatar&
// overload (which delegates here).
inline bool step_kinematics(Vec3& pos, const Vec3& waypoint, double speed, Seconds dt) {
  const double dist = pos.distance_to(waypoint);
  const double step = speed * dt;
  if (dist <= step || dist <= 1e-9) {
    pos = waypoint;
    return true;
  }
  pos += pos.direction_to(waypoint) * step;
  return false;
}

}  // namespace slmob
