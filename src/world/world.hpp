// World: one land plus its live avatar population.
//
// The world owns the ground truth the monitoring architectures try to
// measure. Synthetic avatars arrive via the PopulationProcess and move per
// the MobilityModel; externally controlled avatars (protocol clients, e.g.
// the crawler) are added/steered by the sim server.
//
// The world also implements the "curiosity" perturbation the paper reports:
// a visibly idle, silent avatar (a naive crawler) becomes an attractor that
// nearby users walk up to, biasing the very mobility being measured.
//
// Storage is structure-of-arrays (AvatarStore), kept in ascending-id order —
// the iteration order of the std::map it replaced — so the per-tick RNG draw
// sequence, and therefore every seeded trace, is unchanged by the layout.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/pair_kernel.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "world/avatar.hpp"
#include "world/avatar_store.hpp"
#include "world/land.hpp"
#include "world/mobility.hpp"
#include "world/population.hpp"

namespace slmob {

// One completed (or still open) visit, recorded by the world as ground
// truth. logout < 0 means the avatar is still online.
struct VisitRecord {
  AvatarId avatar;
  Seconds login{0.0};
  Seconds logout{-1.0};
};

struct CuriosityParams {
  bool enabled{true};
  // An externally controlled avatar idle and silent for longer than this is
  // deemed a bot and starts attracting users.
  Seconds idle_threshold{120.0};
  // Per-decision probability that a synthetic avatar targets the attractor.
  double approach_probability{0.25};
  // Users approach to within this distance of the attractor.
  double approach_radius{4.0};
};

struct WorldStats {
  std::uint64_t total_logins{0};
  std::uint64_t rejected_logins{0};  // region at capacity
  std::uint64_t total_logouts{0};
  std::uint64_t curiosity_approaches{0};
};

class World {
 public:
  World(Land land, std::unique_ptr<MobilityModel> model, PopulationParams population,
        std::uint64_t seed);

  // Advances virtual time by dt: processes logouts, arrivals, decisions and
  // kinematics. `now` is the time at the *start* of the tick.
  void tick(Seconds now, Seconds dt);

  [[nodiscard]] const Land& land() const { return land_; }
  [[nodiscard]] const AvatarStore& avatars() const { return avatars_; }
  [[nodiscard]] std::size_t concurrent() const { return avatars_.size(); }
  // Copy of the avatar's current row; nullopt when not online.
  [[nodiscard]] std::optional<Avatar> find(AvatarId id) const;
  [[nodiscard]] const WorldStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<VisitRecord>& visit_log() const { return visit_log_; }

  // Store indices (see avatars()) of avatars within planar distance `radius`
  // of `pos`, in ascending index (= ascending id) order. Served from a
  // cell-sorted PairKernel that is rebuilt lazily, at most once per (tick,
  // radius), so repeated queries within a tick — chat audibility, sensor
  // sweeps — cost O(neighbours) instead of a population scan each.
  [[nodiscard]] const std::vector<std::uint32_t>& within(const Vec3& pos,
                                                         double radius) const;

  // --- external (protocol-controlled) avatars -----------------------------
  // Adds an avatar steered from outside; returns nullopt when the region is
  // full. The avatar never logs out on its own.
  std::optional<AvatarId> add_external_avatar(Seconds now, Vec3 pos);
  void remove_external_avatar(Seconds now, AvatarId id);
  // Steers an external avatar toward a waypoint.
  void steer_external(Seconds now, AvatarId id, Vec3 waypoint, double speed);
  // Marks activity that makes the avatar look human (chatting).
  void mark_social_activity(Seconds now, AvatarId id);
  void set_sitting(AvatarId id, bool sitting);

  void set_curiosity(CuriosityParams params) { curiosity_ = params; }
  [[nodiscard]] const CuriosityParams& curiosity() const { return curiosity_; }

  // Flash-crowd control (kFlashCrowd fault windows): multiplies the *count*
  // of arrivals admitted per tick, leaving the underlying Poisson draw — and
  // therefore the RNG draw sequence of unboosted runs — untouched. 1.0 =
  // nominal arrivals.
  void set_arrival_boost(double factor) { arrival_boost_ = factor < 1.0 ? 1.0 : factor; }
  [[nodiscard]] double arrival_boost() const { return arrival_boost_; }

  // Test hook: force-inject a synthetic avatar with a fixed session.
  AvatarId debug_add_synthetic(Seconds now, Vec3 pos, Seconds logout_at);
  // Bench hook: admits `n` immediate logins at `now` through the organic
  // arrival path (same RNG draws per login, capacity respected), so scale
  // benches can reach a target concurrency without simulating hours of
  // ramp-up.
  void debug_prefill(Seconds now, std::size_t n);

  // World RNG stream position, recorded by checkpoints and compared after a
  // deterministic replay to detect config drift or non-determinism.
  [[nodiscard]] std::array<std::uint64_t, 4> rng_state() const { return rng_.state(); }

 private:
  void process_arrivals(Seconds now, Seconds dt);
  void process_departures(Seconds now);
  void admit_arrival(Seconds now);
  void decide_at(Seconds now, std::size_t i);
  void decide(Seconds now, Avatar& avatar);
  void apply_decision(Seconds now, Avatar& avatar, const MobilityDecision& d);
  // Currently active attractor position (a bot-looking external avatar).
  [[nodiscard]] std::optional<Vec3> attractor(Seconds now) const;
  AvatarId next_id();
  void touch() { ++version_; }

  Land land_;
  std::unique_ptr<MobilityModel> model_;
  PopulationProcess population_;
  Rng rng_;
  AvatarStore avatars_;
  // Ids of externally controlled avatars, ascending — the attractor scan
  // walks only these instead of the whole population.
  std::vector<AvatarId> external_ids_;
  // Previously seen visitors available for re-visits (same identity).
  struct DepartedUser {
    AvatarId id;
    AvatarKind kind;
    int home_poi;
  };
  std::vector<DepartedUser> departed_pool_;
  std::map<AvatarId, Seconds> last_social_activity_;
  std::uint32_t next_id_{1};
  double arrival_boost_{1.0};
  CuriosityParams curiosity_;
  WorldStats stats_;
  std::vector<VisitRecord> visit_log_;
  std::map<AvatarId, std::size_t> open_visits_;  // avatar -> index in visit_log_

  // Lazily rebuilt range-query kernel (see within()), reused across
  // rebuilds. version_ bumps on every mutation of positions or membership,
  // invalidating the built layout.
  std::uint64_t version_{0};
  mutable PairKernel grid_;
  mutable bool grid_built_{false};
  mutable double grid_radius_{0.0};
  mutable std::uint64_t grid_version_{0};
  mutable std::vector<std::uint32_t> grid_query_;
};

}  // namespace slmob
