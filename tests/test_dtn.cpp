#include "dtn/dtn_simulator.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/experiment.hpp"

namespace slmob {
namespace {

// Relay scenario: A meets B, then B meets C; A never meets C. Direct
// delivery A->C must fail; epidemic and two-hop (B as relay of A's message)
// succeed.
Trace relay_trace() {
  Trace t("relay", 10.0);
  const auto add = [&](Seconds time, std::initializer_list<std::pair<int, double>> users) {
    Snapshot s;
    s.time = time;
    for (const auto& [id, x] : users) {
      s.fixes.push_back({AvatarId{static_cast<std::uint32_t>(id)}, {x, 0.0, 22.0}});
    }
    t.add(std::move(s));
  };
  // A=1, B=2, C=3. C stays far right; A far left; B shuttles.
  add(0.0, {{1, 0.0}, {2, 5.0}, {3, 200.0}});    // A-B contact
  add(10.0, {{1, 0.0}, {2, 100.0}, {3, 200.0}});
  add(20.0, {{1, 0.0}, {2, 198.0}, {3, 200.0}});  // B-C contact
  add(30.0, {{1, 0.0}, {2, 198.0}, {3, 200.0}});
  return t;
}

DtnConfig relay_config(RoutingScheme scheme) {
  DtnConfig cfg;
  cfg.scheme = scheme;
  cfg.range = 10.0;
  cfg.message_count = 1;
  cfg.seed = 1;
  cfg.creation_window = 0.05;  // create at the first snapshot
  return cfg;
}

// Forces a single A->C message by retrying seeds until src=1, dst=3.
DtnResults run_relay(RoutingScheme scheme) {
  const Trace t = relay_trace();
  for (std::uint64_t seed = 1; seed < 300; ++seed) {
    DtnConfig cfg = relay_config(scheme);
    cfg.seed = seed;
    const DtnResults r = simulate_dtn(t, cfg);
    if (r.messages_created == 1 && r.outcomes[0].src == 1 && r.outcomes[0].dst == 3) {
      return r;
    }
  }
  ADD_FAILURE() << "could not construct A->C message";
  return {};
}

TEST(Dtn, EpidemicDeliversViaRelay) {
  const DtnResults r = run_relay(RoutingScheme::kEpidemic);
  EXPECT_EQ(r.messages_delivered, 1u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);
  // Delivered when B meets C at t=20; created at t=0.
  EXPECT_DOUBLE_EQ(r.delays.median(), 20.0);
}

TEST(Dtn, TwoHopDeliversViaRelay) {
  const DtnResults r = run_relay(RoutingScheme::kTwoHopRelay);
  EXPECT_EQ(r.messages_delivered, 1u);
}

TEST(Dtn, DirectDeliveryFailsWithoutMeeting) {
  const DtnResults r = run_relay(RoutingScheme::kDirectDelivery);
  EXPECT_EQ(r.messages_delivered, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.0);
}

TEST(Dtn, TtlExpiryBlocksLateDelivery) {
  const Trace t = relay_trace();
  for (std::uint64_t seed = 1; seed < 300; ++seed) {
    DtnConfig cfg = relay_config(RoutingScheme::kEpidemic);
    cfg.seed = seed;
    cfg.ttl = 15.0;  // expires before B meets C at t=20
    const DtnResults r = simulate_dtn(t, cfg);
    if (r.messages_created == 1 && r.outcomes[0].src == 1 && r.outcomes[0].dst == 3) {
      EXPECT_EQ(r.messages_delivered, 0u);
      return;
    }
  }
  ADD_FAILURE() << "could not construct A->C message";
}

TEST(Dtn, EpidemicCountsCopies) {
  const DtnResults r = run_relay(RoutingScheme::kEpidemic);
  ASSERT_EQ(r.messages_created, 1u);
  EXPECT_GE(r.outcomes[0].copies, 2u);  // source + relay B
}

TEST(Dtn, SchemeOrderingOnRealTrace) {
  // On a real generated trace: epidemic >= two-hop >= direct in delivery,
  // and epidemic carries the most copies.
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.seed = 3;
  cfg.ranges = {};  // skip contact/graph analyses; we only need the trace
  const ExperimentResults res = run_experiment(cfg);

  DtnConfig dtn;
  dtn.range = 10.0;
  dtn.message_count = 150;
  dtn.seed = 9;
  dtn.scheme = RoutingScheme::kEpidemic;
  const DtnResults epidemic = simulate_dtn(res.trace, dtn);
  dtn.scheme = RoutingScheme::kTwoHopRelay;
  const DtnResults twohop = simulate_dtn(res.trace, dtn);
  dtn.scheme = RoutingScheme::kDirectDelivery;
  const DtnResults direct = simulate_dtn(res.trace, dtn);

  EXPECT_GE(epidemic.delivery_ratio, twohop.delivery_ratio);
  EXPECT_GE(twohop.delivery_ratio, direct.delivery_ratio);
  EXPECT_GT(epidemic.delivery_ratio, 0.3);  // dense event land spreads well
  EXPECT_GT(epidemic.mean_copies_per_message, twohop.mean_copies_per_message);
  EXPECT_DOUBLE_EQ(direct.mean_copies_per_message, 1.0);
}

TEST(Dtn, DeterministicForSeed) {
  const Trace t = relay_trace();
  DtnConfig cfg = relay_config(RoutingScheme::kEpidemic);
  const DtnResults a = simulate_dtn(t, cfg);
  const DtnResults b = simulate_dtn(t, cfg);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.messages_created, b.messages_created);
}

TEST(Dtn, RejectsBadInput) {
  const Trace empty("x", 10.0);
  EXPECT_THROW((void)simulate_dtn(empty, {}), std::invalid_argument);
  const Trace t = relay_trace();
  DtnConfig cfg;
  cfg.creation_window = 0.0;
  EXPECT_THROW((void)simulate_dtn(t, cfg), std::invalid_argument);

  // A bad range is refused before the trace is looked at, even when no
  // snapshot holds a pair for the proximity kernel to reject it on.
  const Trace lonely = [] {
    Trace out("x", 10.0);
    for (const Seconds time : {0.0, 10.0, 20.0}) {
      Snapshot s;
      s.time = time;
      if (time > 0.0) s.fixes.push_back({AvatarId{1}, {5.0, 5.0, 22.0}});
      out.add(std::move(s));
    }
    return out;
  }();
  for (const double range : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    DtnConfig bad;
    bad.range = range;
    for (const Trace* trace : {&lonely, &t}) {
      try {
        (void)simulate_dtn(*trace, bad);
        ADD_FAILURE() << "accepted range " << range;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("ranges must be positive and finite"),
                  std::string::npos)
            << "range " << range << ": " << e.what();
      }
    }
  }
}

TEST(Dtn, SchemeNames) {
  EXPECT_STREQ(routing_scheme_name(RoutingScheme::kEpidemic), "epidemic");
  EXPECT_STREQ(routing_scheme_name(RoutingScheme::kTwoHopRelay), "two-hop");
  EXPECT_STREQ(routing_scheme_name(RoutingScheme::kDirectDelivery), "direct");
}

}  // namespace
}  // namespace slmob
