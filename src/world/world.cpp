#include "world/world.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/log.hpp"

namespace slmob {

World::World(Land land, std::unique_ptr<MobilityModel> model, PopulationParams population,
             std::uint64_t seed)
    : land_(std::move(land)),
      model_(std::move(model)),
      population_(population),
      rng_(seed) {
  if (!model_) throw std::invalid_argument("World: null mobility model");
  if (land_.spawn_points().empty()) {
    throw std::invalid_argument("World: land has no spawn points");
  }
}

std::optional<Avatar> World::find(AvatarId id) const {
  const auto i = avatars_.index_of(id);
  if (!i) return std::nullopt;
  return avatars_.materialize(*i);
}

AvatarId World::next_id() { return AvatarId{next_id_++}; }

void World::tick(Seconds now, Seconds dt) {
  process_departures(now);
  process_arrivals(now, dt);

  const std::size_t n = avatars_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (avatars_.external(i)) {
      if (avatars_.state(i) == AvatarState::kTravelling) {
        step_kinematics(avatars_.pos(i), avatars_.waypoint(i), avatars_.speed(i), dt);
        if (avatars_.pos(i).distance_to(avatars_.waypoint(i)) < 1e-9) {
          avatars_.state(i) = AvatarState::kPaused;
          avatars_.pause_until(i) = now + 1e18;  // waits for the next steer command
        }
      }
      continue;
    }
    if (avatars_.state(i) == AvatarState::kPaused) {
      if (now >= avatars_.pause_until(i)) {
        decide_at(now, i);
      } else if (avatars_.jitter_radius(i) > 0.0 &&
                 rng_.bernoulli(avatars_.jitter_rate(i) * dt)) {
        // In-POI fidgeting: short step within the jitter disc (dancing,
        // stepping to the bar). Does not end the pause.
        const double r = avatars_.jitter_radius(i) * std::sqrt(rng_.uniform());
        const double theta = rng_.uniform(0.0, 6.283185307179586);
        const Vec3& anchor = avatars_.anchor(i);
        avatars_.waypoint(i) = land_.clamp(
            {anchor.x + r * std::cos(theta), anchor.y + r * std::sin(theta), land_.ground_z()});
        avatars_.state(i) = AvatarState::kTravelling;
      }
    }
    if (avatars_.state(i) == AvatarState::kTravelling) {
      const bool arrived =
          step_kinematics(avatars_.pos(i), avatars_.waypoint(i), avatars_.speed(i), dt);
      if (arrived) {
        avatars_.state(i) = AvatarState::kPaused;
        // Jitter steps keep the existing pause deadline; fresh decisions set
        // pause_until in apply_decision before we get here.
        if (avatars_.pause_until(i) < now) avatars_.pause_until(i) = now;
      }
    }
  }
  touch();
}

void World::process_arrivals(Seconds now, Seconds dt) {
  std::size_t n = population_.arrivals(now, dt, rng_);
  // Flash-crowd boost multiplies the admitted count, not the Poisson rate:
  // the draw above is identical with or without a boost, so the RNG sequence
  // of every unboosted tick — and of entire fault-free runs — is unchanged.
  if (arrival_boost_ > 1.0) {
    n = static_cast<std::size_t>(std::floor(static_cast<double>(n) * arrival_boost_));
  }
  for (std::size_t i = 0; i < n; ++i) admit_arrival(now);
}

void World::admit_arrival(Seconds now) {
  if (avatars_.size() >= land_.capacity()) {
    ++stats_.rejected_logins;
    return;
  }
  Avatar avatar;
  const double p_revisit = population_.params().revisit_probability;
  if (!departed_pool_.empty() && rng_.bernoulli(p_revisit)) {
    // Returning visitor: reuse a departed identity (and their home POI).
    const auto idx = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(departed_pool_.size()) - 1));
    const DepartedUser user = departed_pool_[idx];
    departed_pool_[idx] = departed_pool_.back();
    departed_pool_.pop_back();
    avatar.id = user.id;
    avatar.kind = user.kind;
    avatar.home_poi = user.home_poi;
  } else {
    avatar.id = next_id();
    avatar.kind = model_->assign_kind(rng_);
  }
  const auto& spawns = land_.spawn_points();
  avatar.pos = spawns[static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(spawns.size()) - 1))];
  avatar.login_time = now;
  Seconds session = population_.session_duration(rng_);
  if (avatar.kind == AvatarKind::kExplorer) {
    session = std::min(session * population_.params().explorer_session_multiplier,
                       population_.params().session_cap);
  }
  avatar.logout_at = now + session;
  avatar.last_intentional_move = now;

  const MobilityDecision d = model_->on_login(avatar, land_, rng_);
  apply_decision(now, avatar, d);

  ++stats_.total_logins;
  open_visits_[avatar.id] = visit_log_.size();
  visit_log_.push_back({avatar.id, now, -1.0});
  avatars_.insert(avatar);
  touch();
}

void World::process_departures(Seconds now) {
  avatars_.erase_if([&](std::size_t i) {
    if (avatars_.external(i) || now < avatars_.logout_at(i)) return false;
    const AvatarId id = avatars_.id(i);
    if (const auto open = open_visits_.find(id); open != open_visits_.end()) {
      visit_log_[open->second].logout = now;
      open_visits_.erase(open);
    }
    ++stats_.total_logouts;
    if (!avatars_.debug_pinned(i)) {
      departed_pool_.push_back({id, avatars_.kind(i), avatars_.home_poi(i)});
    }
    return true;
  });
  touch();
}

void World::decide_at(Seconds now, std::size_t i) {
  Avatar avatar = avatars_.materialize(i);
  decide(now, avatar);
  avatars_.assign(i, avatar);
}

void World::decide(Seconds now, Avatar& avatar) {
  // Curiosity perturbation: a bot-looking avatar may hijack this decision.
  if (const auto target = attractor(now);
      target && rng_.bernoulli(curiosity_.approach_probability)) {
    ++stats_.curiosity_approaches;
    MobilityDecision d;
    const double r = curiosity_.approach_radius * std::sqrt(rng_.uniform());
    const double theta = rng_.uniform(0.0, 6.283185307179586);
    d.waypoint = land_.clamp(
        {target->x + r * std::cos(theta), target->y + r * std::sin(theta), land_.ground_z()});
    d.speed = 2.0;
    d.pause = rng_.uniform(20.0, 90.0);  // users linger, poke at the bot, leave
    d.jitter_radius = 0.0;
    d.poi_index = -1;
    apply_decision(now, avatar, d);
    return;
  }
  apply_decision(now, avatar, model_->next(avatar, land_, rng_));
}

void World::apply_decision(Seconds now, Avatar& avatar, const MobilityDecision& d) {
  avatar.waypoint = land_.clamp(d.waypoint);
  avatar.speed = std::max(0.1, d.speed);
  avatar.state = AvatarState::kTravelling;
  avatar.pause_until = now + avatar.pos.distance_to(avatar.waypoint) / avatar.speed + d.pause;
  avatar.anchor = avatar.waypoint;
  avatar.jitter_radius = d.jitter_radius;
  avatar.jitter_rate = d.jitter_rate;
  avatar.current_poi = d.poi_index;
  if (avatar.home_poi < 0 && d.poi_index >= 0) avatar.home_poi = d.poi_index;
  avatar.last_intentional_move = now;
}

std::optional<Vec3> World::attractor(Seconds now) const {
  if (!curiosity_.enabled) return std::nullopt;
  for (const AvatarId id : external_ids_) {
    const auto idx = avatars_.index_of(id);
    if (!idx) continue;
    const std::size_t i = *idx;
    const auto social = last_social_activity_.find(id);
    const Seconds last_social =
        social == last_social_activity_.end() ? avatars_.login_time(i) : social->second;
    const Seconds last_activity = std::max(avatars_.last_intentional_move(i), last_social);
    if (now - last_activity > curiosity_.idle_threshold) return avatars_.pos(i);
  }
  return std::nullopt;
}

const std::vector<std::uint32_t>& World::within(const Vec3& pos, double radius) const {
  if (!grid_built_ || grid_version_ != version_ || grid_radius_ != radius) {
    grid_built_ = false;  // stays false if build throws
    grid_.build(avatars_.positions(), radius);
    grid_built_ = true;
    grid_version_ = version_;
    grid_radius_ = radius;
  }
  grid_query_.clear();
  grid_.near(pos, grid_query_);
  // Hits come back in cell-traversal order; callers depend on ascending
  // index (= ascending id) order for deterministic iteration.
  std::sort(grid_query_.begin(), grid_query_.end());
  return grid_query_;
}

std::optional<AvatarId> World::add_external_avatar(Seconds now, Vec3 pos) {
  if (avatars_.size() >= land_.capacity()) {
    ++stats_.rejected_logins;
    return std::nullopt;
  }
  Avatar avatar;
  avatar.id = next_id();
  avatar.externally_controlled = true;
  avatar.pos = land_.clamp(pos);
  avatar.state = AvatarState::kPaused;
  avatar.pause_until = now + 1e18;
  avatar.login_time = now;
  avatar.logout_at = now + 1e18;
  avatar.last_intentional_move = now;
  ++stats_.total_logins;
  open_visits_[avatar.id] = visit_log_.size();
  visit_log_.push_back({avatar.id, now, -1.0});
  avatars_.insert(avatar);
  external_ids_.insert(
      std::lower_bound(external_ids_.begin(), external_ids_.end(), avatar.id), avatar.id);
  touch();
  return avatar.id;
}

void World::remove_external_avatar(Seconds now, AvatarId id) {
  const auto idx = avatars_.index_of(id);
  if (!idx || !avatars_.external(*idx)) return;
  if (const auto open = open_visits_.find(id); open != open_visits_.end()) {
    visit_log_[open->second].logout = now;
    open_visits_.erase(open);
  }
  ++stats_.total_logouts;
  last_social_activity_.erase(id);
  avatars_.erase(*idx);
  const auto it = std::lower_bound(external_ids_.begin(), external_ids_.end(), id);
  if (it != external_ids_.end() && *it == id) external_ids_.erase(it);
  touch();
}

void World::steer_external(Seconds now, AvatarId id, Vec3 waypoint, double speed) {
  const auto idx = avatars_.index_of(id);
  if (!idx || !avatars_.external(*idx)) return;
  const std::size_t i = *idx;
  avatars_.waypoint(i) = land_.clamp(waypoint);
  avatars_.speed(i) = std::max(0.1, speed);
  avatars_.state(i) = AvatarState::kTravelling;
  avatars_.last_intentional_move(i) = now;
}

void World::mark_social_activity(Seconds now, AvatarId id) {
  if (avatars_.contains(id)) last_social_activity_[id] = now;
}

void World::set_sitting(AvatarId id, bool sitting) {
  if (const auto idx = avatars_.index_of(id)) avatars_.set_sitting(*idx, sitting);
}

AvatarId World::debug_add_synthetic(Seconds now, Vec3 pos, Seconds logout_at) {
  Avatar avatar;
  avatar.id = next_id();
  avatar.pos = land_.clamp(pos);
  avatar.state = AvatarState::kPaused;
  avatar.pause_until = 1e18;  // debug avatars hold their position
  avatar.debug_pinned = true;
  avatar.login_time = now;
  avatar.logout_at = logout_at;
  avatar.last_intentional_move = now;
  ++stats_.total_logins;
  open_visits_[avatar.id] = visit_log_.size();
  visit_log_.push_back({avatar.id, now, -1.0});
  avatars_.insert(avatar);
  touch();
  return avatar.id;
}

void World::debug_prefill(Seconds now, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) admit_arrival(now);
}

}  // namespace slmob
