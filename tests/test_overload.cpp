// Overload-protection layer: bounded queues, explicit shedding, graceful
// degradation. The contract under test is two-sided — under pressure every
// layer sheds deterministically and *counts* what it shed, and in a
// fault-free run every one of those counters is exactly zero (the protection
// layer is invisible until it is needed).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/streaming.hpp"
#include "client/metaverse_client.hpp"
#include "core/experiment.hpp"
#include "core/shards.hpp"
#include "net/circuit.hpp"
#include "net/network.hpp"
#include "sensors/collector.hpp"
#include "sensors/deployment.hpp"
#include "sensors/object_runtime.hpp"
#include "sensors/sensor_object.hpp"
#include "server/sim_server.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"
#include "util/bytes.hpp"
#include "util/sysinfo.hpp"
#include "world/archetypes.hpp"

namespace slmob {
namespace {

// ---------------------------------------------------------------------------
// Network: bounded in-flight queue with priority classes.
// ---------------------------------------------------------------------------

TEST(OverloadNetwork, InFlightCapShedsByClassAndCountsIt) {
  NetworkParams params;
  params.latency_min = 5.0;  // nothing delivers during the burst tick
  params.latency_max = 6.0;
  params.max_in_flight = 4;
  SimNetwork net(params, 1);
  const NodeId a = net.register_node(nullptr);
  int delivered = 0;
  const NodeId b =
      net.register_node([&](NodeId, std::span<const std::uint8_t>) { ++delivered; });

  for (int i = 0; i < 10; ++i) net.send(a, b, {1}, PacketClass::kSnapshot);
  EXPECT_EQ(net.stats().shed_snapshot, 6u);  // 4 admitted, 6 shed
  for (int i = 0; i < 3; ++i) net.send(a, b, {2}, PacketClass::kSession);
  EXPECT_EQ(net.stats().shed_session, 3u);  // queue still full

  // Control-plane datagrams are admitted past the cap, always.
  net.send(a, b, {3}, PacketClass::kControl);
  for (Seconds t = 0.0; t < 8.0; t += 1.0) net.tick(t, 1.0);
  EXPECT_EQ(delivered, 5);  // 4 admitted snapshots + the control datagram
  EXPECT_EQ(net.stats().overload_shed(), 9u);
  EXPECT_GE(net.stats().in_flight_peak, 5u);  // cap + control overflow
}

TEST(OverloadNetwork, DefaultCapNeverShedsModestTraffic) {
  SimNetwork net({}, 1);
  const NodeId a = net.register_node(nullptr);
  int delivered = 0;
  const NodeId b =
      net.register_node([&](NodeId, std::span<const std::uint8_t>) { ++delivered; });
  for (int i = 0; i < 1000; ++i) net.send(a, b, {1}, PacketClass::kSnapshot);
  for (Seconds t = 0.0; t < 3.0; t += 1.0) net.tick(t, 1.0);
  EXPECT_EQ(delivered, 1000);
  EXPECT_EQ(net.stats().overload_shed(), 0u);
  EXPECT_GE(net.stats().in_flight_peak, 1000u);
}

// ---------------------------------------------------------------------------
// Circuit: bounded unacked window (deferral) and bounded deferred queue.
// ---------------------------------------------------------------------------

// Mirrors the CircuitPair harness of test_net_circuit.cpp.
struct CircuitPair {
  explicit CircuitPair(NetworkParams params = {}, std::uint64_t seed = 1,
                       CircuitParams circuit = {})
      : net(params, seed) {
    a_addr = net.register_node(nullptr);
    b_addr = net.register_node(nullptr);
    a = std::make_unique<CircuitEndpoint>(net, a_addr, b_addr, circuit);
    b = std::make_unique<CircuitEndpoint>(net, b_addr, a_addr, circuit);
    net.set_handler(a_addr, [this](NodeId, std::span<const std::uint8_t> bytes) {
      a->on_datagram(bytes);
    });
    net.set_handler(b_addr, [this](NodeId, std::span<const std::uint8_t> bytes) {
      b->on_datagram(bytes);
    });
    a->set_deliver([this](Message m) { at_a.push_back(std::move(m)); });
    b->set_deliver([this](Message m) { at_b.push_back(std::move(m)); });
  }

  void pump(Seconds from, Seconds to, Seconds dt = 1.0) {
    for (Seconds t = from; t < to; t += dt) {
      a->tick(t);
      b->tick(t);
      net.tick(t, dt);
    }
  }

  SimNetwork net;
  NodeId a_addr{};
  NodeId b_addr{};
  std::unique_ptr<CircuitEndpoint> a;
  std::unique_ptr<CircuitEndpoint> b;
  std::vector<Message> at_a;
  std::vector<Message> at_b;
};

ChatFromViewer chat(const std::string& text) {
  ChatFromViewer m;
  m.agent_id = 1;
  m.message = text;
  return m;
}

TEST(OverloadCircuit, UnackedWindowDefersButNeverLoses) {
  CircuitParams tight;
  tight.max_unacked = 2;
  CircuitPair pair({}, 1, tight);
  for (int i = 0; i < 30; ++i) {
    pair.a->send(Message{chat(std::to_string(i))}, /*reliable=*/true);
  }
  pair.pump(0.0, 120.0);
  EXPECT_EQ(pair.at_b.size(), 30u);  // backpressure delays, never drops
  EXPECT_GT(pair.a->stats().deferred_sends, 0u);
  EXPECT_EQ(pair.a->stats().reliable_failures, 0u);
  EXPECT_FALSE(pair.a->failed());
}

TEST(OverloadCircuit, DeferredQueueOverflowFailsTheCircuitLoudly) {
  CircuitParams tiny;
  tiny.max_unacked = 1;
  tiny.max_deferred = 4;
  CircuitPair pair({}, 1, tiny);
  bool failure_seen = false;
  pair.a->set_on_failure([&] { failure_seen = true; });
  // Synchronous burst with no pumping in between: 1 slot in flight, 4
  // deferred, the rest overflow the bounded deferred queue.
  for (int i = 0; i < 10; ++i) {
    pair.a->send(Message{chat("burst")}, /*reliable=*/true);
  }
  EXPECT_TRUE(pair.a->failed());
  EXPECT_TRUE(failure_seen);
  EXPECT_GE(pair.a->stats().reliable_failures, 1u);
}

// ---------------------------------------------------------------------------
// Server: admission headroom and per-tick message budget.
// ---------------------------------------------------------------------------

// Mirrors the Rig harness of test_server_client.cpp.
struct Rig {
  explicit Rig(LandArchetype archetype = LandArchetype::kDanceIsland,
               NetworkParams net_params = {}, SimServerParams server_params = {})
      : world(make_world(archetype, 1)), net(net_params, 2) {
    server = std::make_unique<SimServer>(net, *world, server_params);
  }

  MetaverseClient& add_client(const std::string& name) {
    clients.push_back(
        std::make_unique<MetaverseClient>(net, server->address(), name, "test"));
    return *clients.back();
  }

  void pump(Seconds from, Seconds to) {
    for (Seconds t = from; t < to; t += 1.0) {
      world->tick(t, 1.0);
      server->tick(t, 1.0);
      net.tick(t, 1.0);
      for (auto& c : clients) c->tick(t, 1.0);
    }
  }

  std::unique_ptr<World> world;
  SimNetwork net;
  std::unique_ptr<SimServer> server;
  std::vector<std::unique_ptr<MetaverseClient>> clients;
};

TEST(OverloadServer, AdmissionHeadroomRejectsLoginBeforeHardCapacity) {
  SimServerParams sp;
  sp.admission_headroom = 0.5;
  Rig rig(LandArchetype::kDanceIsland, {}, sp);
  // Half of the 100-avatar capacity: at the headroom line, not the hard cap.
  for (int i = 0; i < 50; ++i) {
    rig.world->debug_add_synthetic(0.0, {100.0, 100.0, 22.0}, 1e9);
  }
  auto& client = rig.add_client("late");
  client.login();
  rig.pump(0.0, 5.0);
  EXPECT_EQ(client.state(), ClientState::kLoginFailed);
  EXPECT_EQ(rig.server->stats().logins_rejected_overload, 1u);
  EXPECT_EQ(rig.server->stats().logins_rejected, 1u);
}

TEST(OverloadServer, DefaultHeadroomAdmitsUpToCapacity) {
  Rig rig;
  for (int i = 0; i < 99; ++i) {
    rig.world->debug_add_synthetic(0.0, {100.0, 100.0, 22.0}, 1e9);
  }
  auto& client = rig.add_client("almost-last");
  client.login();
  rig.pump(0.0, 5.0);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(rig.server->stats().logins_rejected_overload, 0u);
}

TEST(OverloadServer, MessageBudgetShedsDataButKeepsSessionAlive) {
  SimServerParams sp;
  sp.max_messages_per_tick = 2;
  Rig rig(LandArchetype::kDanceIsland, {}, sp);
  auto& client = rig.add_client("chatty");
  client.login();
  rig.pump(0.0, 5.0);
  ASSERT_TRUE(client.connected());
  // A burst far past the budget, all landing inside one server tick.
  for (int i = 0; i < 20; ++i) client.say("spam " + std::to_string(i));
  rig.pump(5.0, 10.0);
  EXPECT_GT(rig.server->stats().messages_shed, 0u);
  // Shedding is data-plane only: the session survives the storm.
  EXPECT_TRUE(client.connected());
}

// ---------------------------------------------------------------------------
// Sensors: bounded HTTP bookkeeping and flush widening.
// ---------------------------------------------------------------------------

// Mirrors the SensorRig harness of test_sensors_object.cpp (empty land).
struct SensorRig {
  SensorRig()
      : world(empty_world()), net({}, 2), collector(net, "Isle Of View") {}

  static std::unique_ptr<World> empty_world() {
    Land land = make_land(LandArchetype::kIsleOfView);
    auto model = std::make_unique<PoiGravityModel>(land, PoiGravityParams{});
    PopulationParams pop;
    pop.target_unique_users = 1e-6;
    pop.revisit_probability = 0.0;
    return std::make_unique<World>(std::move(land), std::move(model), pop, 1);
  }

  SensorObject& make_sensor(Vec3 pos, std::string_view script,
                            SensorLimits limits = {}) {
    sensors.push_back(std::make_unique<SensorObject>(
        ObjectId{static_cast<std::uint32_t>(sensors.size() + 1)}, *world, net,
        collector.address(), pos, script, now, limits, 42));
    return *sensors.back();
  }

  void pump(Seconds duration) {
    const Seconds until = now + duration;
    for (; now < until; now += 1.0) {
      world->tick(now, 1.0);
      for (auto& s : sensors) s->tick(now, 1.0);
      net.tick(now, 1.0);
    }
  }

  std::unique_ptr<World> world;
  SimNetwork net;
  HttpCollector collector;
  std::vector<std::unique_ptr<SensorObject>> sensors;
  Seconds now{0.0};
};

// Fires a request every timer tick, unconditionally — unlike the default
// deployment script, whose gFlushing gate keeps at most one in flight.
constexpr std::string_view kFireAwayScript = R"(
default {
  state_entry() { llSetTimerEvent(1.0); }
  timer() { llHTTPRequest("http://c/r", [], "x"); }
}
)";

TEST(OverloadSensor, PendingTableCapDropsOldestAndCounts) {
  SensorRig rig;
  NetworkParams black_hole;
  black_hole.loss_rate = 1.0;  // no response ever comes back
  rig.net.set_params(black_hole);
  SensorLimits limits;
  limits.max_pending_http = 2;
  limits.http_timeout = 1e6;  // timeouts never clear the table for us
  limits.http_requests_per_minute = 1000;
  limits.max_flush_widen = 1;  // keep the timer at 1 s: isolate the cap
  auto& sensor = rig.make_sensor({128.0, 128.0, 22.0}, kFireAwayScript, limits);
  rig.pump(30.0);
  // Table fills to 2, then every further request evicts the stalest wait.
  EXPECT_GT(sensor.stats().http_pending_dropped, 10u);
  EXPECT_GT(sensor.stats().http_requests, 10u);  // kOldest still admits new ones
  EXPECT_FALSE(sensor.failed());
}

TEST(OverloadSensor, PendingTableKNewestRefusesTheNewRequest) {
  SensorRig rig;
  NetworkParams black_hole;
  black_hole.loss_rate = 1.0;
  rig.net.set_params(black_hole);
  SensorLimits limits;
  limits.max_pending_http = 2;
  limits.http_timeout = 1e6;
  limits.http_requests_per_minute = 1000;
  limits.max_flush_widen = 1;
  limits.http_drop_policy = DropPolicy::kNewest;
  auto& sensor = rig.make_sensor({128.0, 128.0, 22.0}, kFireAwayScript, limits);
  rig.pump(30.0);
  EXPECT_GT(sensor.stats().http_pending_dropped, 10u);
  // kNewest never sends past the cap: only the first 2 went on the wire.
  EXPECT_EQ(sensor.stats().http_requests, 2u);
  EXPECT_FALSE(sensor.failed());
}

TEST(OverloadSensor, ResponseQueueCapDropsAndCounts) {
  SensorRig rig;
  SensorLimits limits;
  limits.http_requests_per_minute = 0;  // every request queues a 499 reply
  limits.max_queued_responses = 2;
  // Eight requests in one timer fire flood the bounded response queue.
  auto& sensor = rig.make_sensor({128.0, 128.0, 22.0}, R"(
default {
  state_entry() { llSetTimerEvent(1.0); }
  timer() {
    integer i = 0;
    while (i < 8) {
      llHTTPRequest("http://c/r", [], "x");
      i = i + 1;
    }
  }
}
)",
                                 limits);
  rig.pump(10.0);
  EXPECT_GT(sensor.stats().http_responses_dropped, 0u);
  EXPECT_FALSE(sensor.failed());
}

TEST(OverloadSensor, ConsecutiveTimeoutsWidenTheFlushInterval) {
  SensorRig rig;
  NetworkParams black_hole;
  black_hole.loss_rate = 1.0;
  rig.net.set_params(black_hole);
  SensorLimits limits;
  limits.http_timeout = 3.0;
  auto& sensor = rig.make_sensor({128.0, 128.0, 22.0}, R"(
default {
  state_entry() { llSetTimerEvent(10.0); }
  timer() { llHTTPRequest("http://c/r", [], "x"); }
}
)",
                                 limits);
  rig.pump(120.0);
  EXPECT_GT(sensor.stats().http_timeouts, 0u);
  EXPECT_GT(sensor.stats().flushes_widened, 0u);
}

TEST(OverloadSensor, WideningDisabledWhenMaxFactorIsOne) {
  SensorRig rig;
  NetworkParams black_hole;
  black_hole.loss_rate = 1.0;
  rig.net.set_params(black_hole);
  SensorLimits limits;
  limits.http_timeout = 3.0;
  limits.max_flush_widen = 1;
  auto& sensor = rig.make_sensor({128.0, 128.0, 22.0}, R"(
default {
  state_entry() { llSetTimerEvent(10.0); }
  timer() { llHTTPRequest("http://c/r", [], "x"); }
}
)",
                                 limits);
  rig.pump(120.0);
  EXPECT_GT(sensor.stats().http_timeouts, 0u);
  EXPECT_EQ(sensor.stats().flushes_widened, 0u);
}

// ---------------------------------------------------------------------------
// Trace: SamplingDegradation windows and their serialization.
// ---------------------------------------------------------------------------

TEST(OverloadTrace, DegradationValidation) {
  Trace trace("L", 10.0);
  EXPECT_THROW(trace.add_degradation(10.0, 10.0, 2), std::invalid_argument);
  EXPECT_THROW(trace.add_degradation(20.0, 10.0, 2), std::invalid_argument);
  EXPECT_THROW(trace.add_degradation(10.0, 20.0, 1), std::invalid_argument);
  trace.add_degradation(10.0, 20.0, 2);
  EXPECT_THROW(trace.add_degradation(15.0, 25.0, 2), std::invalid_argument);
  EXPECT_THROW(trace.add_degradation(5.0, 8.0, 2), std::invalid_argument);
  trace.add_degradation(20.0, 30.0, 4);  // abutting is fine
  ASSERT_EQ(trace.degradations().size(), 2u);
}

TEST(OverloadTrace, FactorLookupAndDegradedSeconds) {
  // The factor in force for a snapshot is the one a stream consumer's
  // DegradationTracker holds when the snapshot arrives.
  Trace trace("L", 10.0);
  for (const Seconds t : {50.0, 100.0, 199.9, 200.0, 320.0}) {
    Snapshot s;
    s.time = t;
    trace.add(std::move(s));
  }
  trace.add_degradation(100.0, 200.0, 2);
  trace.add_degradation(300.0, 340.0, 4);
  MemoryTraceStream stream(trace);
  DegradationTracker rates;
  std::vector<std::uint32_t> factors;
  for (StreamEvent ev = stream.next(); ev.kind != StreamEventKind::kEnd; ev = stream.next()) {
    if (ev.kind == StreamEventKind::kRateChange) rates.set_factor(ev.time, ev.factor);
    if (ev.kind == StreamEventKind::kSnapshot) factors.push_back(rates.current_factor());
  }
  // Windows are half-open: the snapshot at 200 is back at the nominal rate.
  EXPECT_EQ(factors, (std::vector<std::uint32_t>{1, 2, 2, 1, 4}));
  EXPECT_EQ(rates.windows(), trace.degradations());
  EXPECT_DOUBLE_EQ(trace.degraded_seconds(), 140.0);
}

TEST(OverloadTrace, SerializeRoundTripsDegradations) {
  Trace trace("Isle of View", 10.0);
  for (int i = 0; i < 5; ++i) {
    Snapshot s;
    s.time = i * 10.0;
    s.fixes.push_back({AvatarId{7}, {10.0 + i, 20.0, 22.0}});
    trace.add(std::move(s));
  }
  trace.add_gap(50.0, 70.0);
  trace.add_degradation(75.0, 115.0, 2);
  trace.add_degradation(115.0, 155.0, 4);

  const auto bytes = encode_trace(trace);
  const std::string path = ::testing::TempDir() + "/overload_roundtrip.slt";
  save_trace(trace, path);
  const Trace back = load_trace(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.degradations().size(), 2u);
  EXPECT_EQ(back.degradations()[0], (SamplingDegradation{75.0, 115.0, 2}));
  EXPECT_EQ(back.degradations()[1], (SamplingDegradation{115.0, 155.0, 4}));
  // Idempotent re-encode: the windows survive bit-for-bit.
  EXPECT_EQ(crc32(encode_trace(back)), crc32(bytes));
}

// ---------------------------------------------------------------------------
// Journal: degrade frames round-trip; an open window is censored at salvage.
// ---------------------------------------------------------------------------

std::string temp_journal(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Snapshot snap_at(Seconds time) {
  Snapshot s;
  s.time = time;
  s.fixes.push_back({AvatarId{1}, {100.0, 100.0, 22.0}});
  return s;
}

TEST(OverloadJournal, DegradeWindowRoundTripsThroughSalvage) {
  const std::string path = temp_journal("overload_degrade.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("Isle of View", 10.0);
    writer.append_snapshot(snap_at(0.0));
    writer.append_snapshot(snap_at(10.0));
    writer.append_degrade_open(15.0, 2);
    writer.append_snapshot(snap_at(20.0));
    writer.append_degrade_close(15.0, 30.0, 2);
    writer.append_end(40.0);
  }
  const JournalSalvage s = salvage_journal(path);
  EXPECT_TRUE(s.clean_end);
  ASSERT_EQ(s.trace.degradations().size(), 1u);
  EXPECT_EQ(s.trace.degradations()[0], (SamplingDegradation{15.0, 30.0, 2}));
  EXPECT_EQ(s.trace.size(), 3u);
}

TEST(OverloadJournal, OpenDegradeWindowIsClosedAtCensoringBoundary) {
  const std::string path = temp_journal("overload_degrade_open.sltj");
  {
    TraceJournalWriter writer(path, 100.0);
    writer.begin("Isle of View", 10.0);
    writer.append_snapshot(snap_at(0.0));
    writer.append_snapshot(snap_at(10.0));
    writer.append_degrade_open(15.0, 2);
    // Killed here: no close, no end.
  }
  const JournalSalvage s = salvage_journal(path);
  EXPECT_FALSE(s.clean_end);
  // Coverage is only claimable to last snapshot + interval = 20; the open
  // degrade window is closed there and the rest of the planned run censored.
  ASSERT_EQ(s.trace.degradations().size(), 1u);
  EXPECT_EQ(s.trace.degradations()[0], (SamplingDegradation{15.0, 20.0, 2}));
  ASSERT_FALSE(s.trace.gaps().empty());
  EXPECT_EQ(s.trace.gaps().back(), (CoverageGap{20.0, 100.0}));
}

// ---------------------------------------------------------------------------
// Analysis: zone densities are rate-corrected by the degradation factor.
// ---------------------------------------------------------------------------

TEST(OverloadAnalysis, ZoneWeightingEqualsSnapshotReplication) {
  // Weighting a degraded snapshot by its factor must be exactly equivalent
  // to having captured it `factor` times: build one trace with a factor-4
  // window and a second trace where those snapshots are literally
  // quadrupled, and demand identical zone statistics.
  Trace degraded("L", 10.0);
  Trace replicated("L", 10.0);
  const auto cell0 = snap_at(0.0);
  for (const Seconds t : {0.0, 10.0}) {
    Snapshot s = snap_at(t);
    degraded.add(s);
    replicated.add(std::move(s));
  }
  (void)cell0;
  for (const Seconds t : {60.0, 100.0}) {
    Snapshot s;
    s.time = t;
    s.fixes.push_back({AvatarId{2}, {200.0, 60.0, 22.0}});
    s.fixes.push_back({AvatarId{3}, {210.0, 70.0, 22.0}});
    degraded.add(s);
    for (int k = 0; k < 4; ++k) replicated.add(s);
  }
  degraded.add_degradation(55.0, 140.0, 4);

  const ZoneAnalysis a = analyze_trace(degraded, {}, kDefaultLandSize, 1).zones;
  const ZoneAnalysis b = analyze_trace(replicated, {}, kDefaultLandSize, 1).zones;
  EXPECT_EQ(a.mean_per_cell, b.mean_per_cell);
  EXPECT_DOUBLE_EQ(a.empty_fraction, b.empty_fraction);
  EXPECT_EQ(a.max_occupancy, b.max_occupancy);
}

// ---------------------------------------------------------------------------
// End to end: the overload scenario engages the whole ladder; the same rig
// without faults keeps every protection counter at zero; and the protected
// run is still deterministic.
// ---------------------------------------------------------------------------

ExperimentConfig overload_config(const std::string& scenario) {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = 2.0 * 3600.0;
  cfg.seed = 42;
  cfg.ranges = {};
  cfg.fault_scenario = scenario;
  // A deliberately tight in-flight budget, so the scenario's latency spike
  // inflates the queue into its bound and the snapshot class gets shed.
  // Sized just above the fault-free rig's measured high-water mark (9), so
  // the cap binds only when the 25 s spike multiplies the in-flight depth.
  cfg.testbed.network.max_in_flight = 10;
  return cfg;
}

TEST(OverloadScenario, LadderEngagesAndRecordsDegradation) {
  const ExperimentResults r = run_experiment(overload_config("overload"));
  EXPECT_GT(r.network_stats.overload_shed(), 0u);
  EXPECT_GT(r.crawler_stats.degrade_escalations, 0u);
  EXPECT_GT(r.crawler_stats.degraded_snapshots, 0u);
  EXPECT_FALSE(r.trace.degradations().empty());
  EXPECT_GT(r.trace.degraded_seconds(), 0.0);
  // The run is still deterministic under the full ladder.
  const ExperimentResults again = run_experiment(overload_config("overload"));
  EXPECT_EQ(crc32(encode_trace(r.trace)), crc32(encode_trace(again.trace)));
}

// A saved trace keeps its degradation windows: the file loads to the same
// digest and analyses like the trace in memory.
TEST(OverloadScenario, SavedTraceMatchesInMemory) {
  const Trace trace = run_experiment(overload_config("overload")).trace;
  ASSERT_FALSE(trace.degradations().empty());
  const std::string path = ::testing::TempDir() + "/overload_saved.slt";
  save_trace(trace, path);
  EXPECT_EQ(crc32(encode_trace(load_trace(path))), crc32(encode_trace(trace)));
  MemoryTraceStream stream(trace);
  EXPECT_EQ(analysis_fingerprint(analyze_stream(stream)),
            analysis_fingerprint(analyze_stream_file(path)));
  std::remove(path.c_str());
}

TEST(OverloadScenario, FaultFreeRunKeepsEveryProtectionCounterAtZero) {
  const ExperimentResults r = run_experiment(overload_config("none"));
  EXPECT_EQ(r.network_stats.overload_shed(), 0u);
  EXPECT_EQ(r.crawler_stats.degrade_escalations, 0u);
  EXPECT_EQ(r.crawler_stats.degrade_recoveries, 0u);
  EXPECT_EQ(r.crawler_stats.degraded_snapshots, 0u);
  EXPECT_TRUE(r.trace.degradations().empty());
  EXPECT_EQ(r.server_stats.logins_rejected_overload, 0u);
  EXPECT_EQ(r.server_stats.messages_shed, 0u);
}

// ---------------------------------------------------------------------------
// The full overload rig: both of the paper's instruments — the crawler and an
// in-world 2x2 sensor grid flushing to an HTTP collector — on one network
// whose in-flight queue is bounded tightly enough that the 10x surge trips
// it while a fault-free run never does. 2 h of Isle of View, seed 42.
// ---------------------------------------------------------------------------

constexpr std::size_t kRigInFlight = 16;
constexpr double kRssBudgetMib = 1024.0;
constexpr double kCoveredRecallFloor = 0.45;

// Fraction of ground-truth (snapshot, avatar) fixes the crawler captured. A
// ground-truth fix at t counts as captured when the crawler snapshot within
// half a sampling interval of t holds the avatar. `covered_only` restricts
// the count to instants outside the crawler trace's recorded gaps.
double recall_vs_truth(const Trace& measured, const Trace& truth, bool covered_only) {
  const Seconds tau = truth.sampling_interval();
  std::size_t total = 0;
  std::size_t matched = 0;
  std::size_t m = 0;
  const auto& snaps = measured.snapshots();
  for (const auto& gt : truth.snapshots()) {
    if (covered_only && !measured.covered_at(gt.time)) continue;
    while (m < snaps.size() && snaps[m].time < gt.time - tau / 2.0) ++m;
    std::unordered_set<std::uint32_t> present;
    if (m < snaps.size() && snaps[m].time < gt.time + tau / 2.0) {
      for (const auto& fix : snaps[m].fixes) present.insert(fix.id.value);
    }
    for (const auto& fix : gt.fixes) {
      ++total;
      if (present.contains(fix.id.value)) ++matched;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(matched) / static_cast<double>(total);
}

struct RigScore {
  // Overload-protection counters.
  std::uint64_t shed_session{0};
  std::uint64_t shed_snapshot{0};
  std::uint64_t deferred_sends{0};
  std::uint64_t logins_rejected_overload{0};
  std::uint64_t messages_shed{0};
  std::uint64_t degrade_escalations{0};
  std::uint64_t degrade_recoveries{0};
  std::uint64_t degraded_snapshots{0};
  std::uint64_t flushes_widened{0};
  std::uint64_t sensor_http_timeouts{0};
  std::uint64_t responses_delayed{0};
  std::uint64_t responses_dropped{0};
  std::uint64_t in_flight_peak{0};
  std::size_t degradation_windows{0};
  double degraded_seconds{0.0};
  // Control-plane integrity and fidelity.
  std::uint64_t reliable_failures{0};
  double recall{0.0};
  double covered_recall{0.0};
  std::uint32_t trace_digest{0};

  bool operator==(const RigScore&) const = default;

  [[nodiscard]] std::uint64_t protection_total() const {
    return shed_session + shed_snapshot + deferred_sends + logins_rejected_overload +
           messages_shed + degrade_escalations + degrade_recoveries + degraded_snapshots +
           flushes_widened + responses_delayed + responses_dropped + degradation_windows;
  }
};

RigScore run_overload_rig(const std::string& scenario) {
  constexpr Seconds kDuration = 2.0 * kSecondsPerHour;
  constexpr std::uint64_t kSeed = 42;
  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.seed = kSeed;
  cfg.with_ground_truth = true;
  cfg.network.max_in_flight = kRigInFlight;
  if (scenario != "none") cfg.faults = FaultSchedule::scenario(scenario, kDuration, kSeed);
  Testbed bed(cfg);

  // The sensor grid makes the snapshot-class traffic that the tight bound
  // sheds under the surge.
  HttpCollector collector(bed.network(), bed.world().land().name());
  collector.set_faults(cfg.faults);
  ObjectRuntime runtime(bed.world(), bed.network(), kSeed ^ 0x5e);
  SensorGridConfig grid_cfg;
  grid_cfg.grid_side = 2;
  SensorGridDeployment grid(runtime, bed.world().land(), collector.address(), grid_cfg);
  grid.deploy_all(0.0);
  bed.engine().add(kPriorityServer, [&](Seconds now, Seconds dt) {
    collector.tick(now, dt);
    runtime.tick(now, dt);
  });
  bed.engine().add(kPriorityMonitor, [&](Seconds now, Seconds dt) { grid.tick(now, dt); });
  bed.run_until(kDuration);

  RigScore s;
  const NetworkStats& net = bed.network().stats();
  s.shed_session = net.shed_session;
  s.shed_snapshot = net.shed_snapshot;
  s.in_flight_peak = net.in_flight_peak;
  const CircuitStats circuit = bed.client()->total_circuit_stats();
  s.deferred_sends = circuit.deferred_sends;
  s.reliable_failures = circuit.reliable_failures;
  s.logins_rejected_overload = bed.server().stats().logins_rejected_overload;
  s.messages_shed = bed.server().stats().messages_shed;
  const CrawlerStats& crawl = bed.crawler()->stats();
  s.degrade_escalations = crawl.degrade_escalations;
  s.degrade_recoveries = crawl.degrade_recoveries;
  s.degraded_snapshots = crawl.degraded_snapshots;
  // Folds in expired sensor generations: the fleet turns over on public
  // land, and the surge's counters must not vanish with it.
  const SensorObjectStats sensors = runtime.total_sensor_stats();
  s.flushes_widened = sensors.flushes_widened;
  s.sensor_http_timeouts = sensors.http_timeouts;
  s.responses_delayed = collector.stats().responses_delayed;
  s.responses_dropped = collector.stats().responses_dropped;

  const Trace truth = bed.ground_truth()->take_trace();
  const Trace crawled = bed.crawler()->take_trace();
  s.degraded_seconds = crawled.degraded_seconds();
  s.degradation_windows = crawled.degradations().size();
  s.recall = recall_vs_truth(crawled, truth, /*covered_only=*/false);
  s.covered_recall = recall_vs_truth(crawled, truth, /*covered_only=*/true);
  s.trace_digest = crc32(encode_trace(crawled));
  return s;
}

TEST(OverloadScenario, CrawlerAndSensorGridRigMeetsEveryGate) {
  const RigScore control = run_overload_rig("none");
  const RigScore overload = run_overload_rig("overload");

  // The protection layer is invisible until there is something to protect.
  EXPECT_EQ(control.protection_total(), 0u);
  // Under the surge the pressure is measured, not silent: datagrams shed,
  // degradation windows recorded on the trace, sensor flushes widened and
  // collector acks deferred.
  EXPECT_GT(overload.shed_snapshot + overload.shed_session, 0u);
  EXPECT_GT(overload.degrade_escalations, 0u);
  EXPECT_GT(overload.degraded_seconds, 0.0);
  EXPECT_GT(overload.degradation_windows, 0u);
  EXPECT_GT(overload.flushes_widened, 0u);
  EXPECT_GT(overload.responses_delayed, 0u);
  // No reliable send fails in either run.
  EXPECT_EQ(control.reliable_failures, 0u);
  EXPECT_EQ(overload.reliable_failures, 0u);
  // What the crawler claims as covered time is still honest measurement.
  EXPECT_GE(overload.covered_recall, kCoveredRecallFloor);
  // The protected run is deterministic, also across shard thread counts:
  // crawler-only shards under the same surge and bound, 1 h each.
  EXPECT_TRUE(run_overload_rig("overload") == overload);
  const LandArchetype lands[] = {LandArchetype::kIsleOfView, LandArchetype::kDanceIsland,
                                 LandArchetype::kApfelLand, LandArchetype::kIsleOfView};
  std::vector<ExperimentConfig> shards;
  for (std::size_t i = 0; i < 4; ++i) {
    ExperimentConfig cfg;
    cfg.archetype = lands[i];
    cfg.duration = 1.0 * kSecondsPerHour;
    cfg.seed = 42 + i;
    cfg.fault_scenario = "overload";
    cfg.ranges = {};
    cfg.testbed.network.max_in_flight = kRigInFlight;
    shards.push_back(cfg);
  }
  std::vector<std::uint32_t> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ShardRunOptions opt;
    opt.threads = threads;
    std::vector<std::uint32_t> digests;
    for (const auto& r : run_sharded(shards, opt)) {
      digests.push_back(crc32(encode_trace(r.trace)));
    }
    if (reference.empty()) reference = digests;
    EXPECT_EQ(digests, reference) << "thread count " << threads;
  }
  // Bounded queues bound memory (0 = no probe on this platform).
  const double rss_mib = static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
  EXPECT_LE(rss_mib, kRssBudgetMib);
}

}  // namespace
}  // namespace slmob
