// A frozen-population world for steady-state tests: Dance Island geometry
// and mobility with the capacity raised to n, arrivals silenced and
// sessions stretched past any test horizon, so a prefilled population of
// exactly n avatars persists through every tick.
#pragma once

#include <memory>

#include "world/archetypes.hpp"
#include "world/poi_gravity.hpp"
#include "world/world.hpp"

namespace slmob {

inline std::unique_ptr<World> frozen_world(std::size_t n, std::uint64_t seed) {
  Land land = make_land(LandArchetype::kDanceIsland);
  land.set_capacity(n + 8);  // head-room for viewer clients
  PopulationParams population = make_population(LandArchetype::kDanceIsland);
  population.target_unique_users = 1e-6;  // arrival rate ~ 0
  population.session_median = 1e9;        // nobody logs out
  population.session_min = 1e9;
  population.session_cap = 2e9;
  auto model = std::make_unique<PoiGravityModel>(
      land, make_mobility_params(LandArchetype::kDanceIsland));
  auto world = std::make_unique<World>(std::move(land), std::move(model), population, seed);
  world->debug_prefill(0.0, n);
  return world;
}

}  // namespace slmob
