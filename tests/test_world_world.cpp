#include "world/world.hpp"

#include <gtest/gtest.h>

#include <set>

#include "frozen_world.hpp"
#include "util/bytes.hpp"
#include "world/archetypes.hpp"

namespace slmob {
namespace {

std::unique_ptr<World> small_world(std::uint64_t seed = 1) {
  return make_world(LandArchetype::kDanceIsland, seed);
}

void run(World& world, Seconds from, Seconds to) {
  for (Seconds t = from; t < to; t += 1.0) world.tick(t, 1.0);
}

TEST(World, PopulationArrivesAndDeparts) {
  auto world = small_world();
  run(*world, 0.0, 3600.0);
  EXPECT_GT(world->stats().total_logins, 0u);
  EXPECT_GT(world->stats().total_logouts, 0u);
  EXPECT_GT(world->concurrent(), 0u);
}

TEST(World, AvatarsStayInsideLand) {
  auto world = small_world();
  for (Seconds t = 0.0; t < 1800.0; t += 1.0) {
    world->tick(t, 1.0);
    const auto& store = world->avatars();
    for (std::size_t i = 0; i < store.size(); ++i) {
      ASSERT_TRUE(world->land().contains(store.pos(i)))
          << "avatar " << store.id(i).value << " at " << store.pos(i);
    }
  }
}

TEST(World, DeterministicForSameSeed) {
  auto a = small_world(7);
  auto b = small_world(7);
  run(*a, 0.0, 1200.0);
  run(*b, 0.0, 1200.0);
  ASSERT_EQ(a->concurrent(), b->concurrent());
  const auto& sa = a->avatars();
  const auto& sb = b->avatars();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa.id(i), sb.id(i));
    EXPECT_EQ(sa.pos(i), sb.pos(i));
  }
}

TEST(World, VisitLogConsistent) {
  auto world = small_world();
  run(*world, 0.0, 3600.0);
  const auto& log = world->visit_log();
  EXPECT_EQ(log.size(), world->stats().total_logins);
  std::size_t open = 0;
  for (const auto& visit : log) {
    if (visit.logout < 0.0) {
      ++open;
    } else {
      EXPECT_GE(visit.logout, visit.login);
    }
  }
  EXPECT_EQ(open, world->concurrent());
}

TEST(World, RevisitsReuseIdentity) {
  auto world = small_world();
  run(*world, 0.0, 4.0 * 3600.0);
  std::set<std::uint32_t> ids;
  std::size_t visits = 0;
  for (const auto& visit : world->visit_log()) {
    ids.insert(visit.avatar.value);
    ++visits;
  }
  // With revisit_probability > 0 some visits share an identity.
  EXPECT_LT(ids.size(), visits);
}

TEST(World, ExternalAvatarLifecycle) {
  auto world = small_world();
  const auto id = world->add_external_avatar(0.0, {128.0, 128.0, 22.0});
  ASSERT_TRUE(id.has_value());
  auto avatar = world->find(*id);
  ASSERT_TRUE(avatar.has_value());
  EXPECT_TRUE(avatar->externally_controlled);

  world->steer_external(0.0, *id, {200.0, 128.0, 22.0}, 2.0);
  run(*world, 0.0, 10.0);
  avatar = world->find(*id);
  ASSERT_TRUE(avatar.has_value());
  EXPECT_GT(avatar->pos.x, 128.0);

  world->remove_external_avatar(10.0, *id);
  EXPECT_FALSE(world->find(*id).has_value());
}

TEST(World, ExternalAvatarNeverLogsOutOnItsOwn) {
  auto world = small_world();
  const auto id = world->add_external_avatar(0.0, {128.0, 128.0, 22.0});
  ASSERT_TRUE(id.has_value());
  run(*world, 0.0, 2.0 * 3600.0);
  EXPECT_TRUE(world->find(*id).has_value());
}

TEST(World, CapacityRejectsLogins) {
  Land land("tiny");
  land.add_poi({"p", {128, 128, 22}, 10.0, 1.0});
  land.add_spawn_point({10, 10, 22});
  land.set_capacity(1);
  PopulationParams pop;
  pop.target_unique_users = 86400.0;  // 1 login/s: the region fills instantly
  auto model = std::make_unique<PoiGravityModel>(land, PoiGravityParams{});
  World world(std::move(land), std::move(model), pop, 1);
  for (Seconds t = 0.0; t < 60.0; t += 1.0) world.tick(t, 1.0);
  EXPECT_LE(world.concurrent(), 1u);
  EXPECT_GT(world.stats().rejected_logins, 0u);
}

TEST(World, CuriosityDrawsUsersToIdleBot) {
  auto world = small_world(3);
  CuriosityParams curiosity;
  curiosity.enabled = true;
  curiosity.idle_threshold = 60.0;
  curiosity.approach_probability = 0.8;
  world->set_curiosity(curiosity);
  // A bot that logs in and never moves or chats.
  const auto bot = world->add_external_avatar(0.0, {128.0, 128.0, 22.0});
  ASSERT_TRUE(bot.has_value());
  run(*world, 0.0, 3600.0);
  EXPECT_GT(world->stats().curiosity_approaches, 0u);
}

TEST(World, MimicryPreventsCuriosity) {
  auto world = small_world(3);
  CuriosityParams curiosity;
  curiosity.enabled = true;
  curiosity.idle_threshold = 60.0;
  curiosity.approach_probability = 0.8;
  world->set_curiosity(curiosity);
  const auto bot = world->add_external_avatar(0.0, {128.0, 128.0, 22.0});
  ASSERT_TRUE(bot.has_value());
  for (Seconds t = 0.0; t < 3600.0; t += 1.0) {
    // Chatting every 30 s keeps the bot looking human.
    if (static_cast<int>(t) % 30 == 0) world->mark_social_activity(t, *bot);
    world->tick(t, 1.0);
  }
  EXPECT_EQ(world->stats().curiosity_approaches, 0u);
}

TEST(World, SittingFlagControlled) {
  auto world = small_world();
  const auto id = world->add_external_avatar(0.0, {128.0, 128.0, 22.0});
  ASSERT_TRUE(id.has_value());
  world->set_sitting(*id, true);
  EXPECT_TRUE(world->find(*id)->sitting);
  world->set_sitting(*id, false);
  EXPECT_FALSE(world->find(*id)->sitting);
}

TEST(World, DebugSyntheticLogsOutOnSchedule) {
  auto world = small_world();
  const AvatarId id = world->debug_add_synthetic(0.0, {100.0, 100.0, 22.0}, 50.0);
  run(*world, 0.0, 49.0);
  EXPECT_TRUE(world->find(id).has_value());
  run(*world, 49.0, 60.0);
  EXPECT_FALSE(world->find(id).has_value());
}

// crc32 over (id, x, y) of every avatar in store order, exact double bits.
std::uint32_t position_digest(const World& world) {
  ByteWriter w;
  const AvatarStore& store = world.avatars();
  for (std::size_t i = 0; i < store.size(); ++i) {
    w.u32(store.id(i).value);
    w.f64(store.pos(i).x);
    w.f64(store.pos(i).y);
  }
  return crc32(w.bytes());
}

// The structure-of-arrays world replaced a std::map<AvatarId, Avatar>
// world that made the same RNG draws; the two ran in positional lockstep at
// these sizes and tick counts. These digests were recorded from that
// lockstep, so any change to the draw sequence or the movement arithmetic
// of World::tick shows up here.
TEST(World, FrozenPopulationGoldenDigest) {
  struct Case {
    std::size_t avatars;
    int ticks;
    std::uint32_t digest;
  };
  for (const Case c : {Case{1000, 3000, 0x7c8471dcu}, Case{10000, 300, 0x8ad7624eu}}) {
    SCOPED_TRACE("n=" + std::to_string(c.avatars));
    auto world = frozen_world(c.avatars, 42);
    run(*world, 0.0, 10.0 + c.ticks);
    EXPECT_EQ(world->concurrent(), c.avatars);
    EXPECT_EQ(position_digest(*world), c.digest);
  }
}

}  // namespace
}  // namespace slmob
