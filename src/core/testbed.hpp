// Testbed: one fully wired measurement rig — engine, world, network, sim
// server, client and crawler — with the components exposed for scripting.
// This is the mid-level API; Experiment (core/experiment.hpp) adds the
// standard analysis pipeline on top.
#pragma once

#include <memory>
#include <optional>

#include "crawler/crawler.hpp"
#include "net/network.hpp"
#include "server/sim_server.hpp"
#include "world/archetypes.hpp"
#include "world/engine.hpp"
#include "world/ground_truth.hpp"
#include "world/world.hpp"

namespace slmob {

struct TestbedConfig {
  LandArchetype archetype{LandArchetype::kIsleOfView};
  std::uint64_t seed{42};
  Seconds tick_length{1.0};
  NetworkParams network;
  SimServerParams server;
  CrawlerConfig crawler;
  bool with_crawler{true};
  // Record a protocol-free ground-truth trace alongside the crawler's.
  bool with_ground_truth{false};
  Seconds ground_truth_interval{10.0};
  std::optional<CuriosityParams> curiosity;  // defaults to world's default
  // One scripted fault schedule for the whole rig: the network consumes the
  // transport kinds (blackout, burst loss, latency, partition), the server
  // the region kinds (crash, capacity flap). Empty = fault-free, and the
  // run is bit-identical to a rig without fault support.
  FaultSchedule faults;
};

// The five rig counters every run result carries (ExperimentResults,
// DurableRunResult and so ShardResult), read in one place: Testbed::stats.
struct RigStats {
  CrawlerStats crawler_stats;   // zero-initialised when the rig has no crawler
  WorldStats world_stats;
  SimServerStats server_stats;  // region admission / shed counters
  NetworkStats network_stats;
  CircuitStats circuit_stats;   // crawler client, summed across relogins
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config);

  // Runs the rig until virtual time `until` (starts the crawler on first
  // call if configured).
  void run_until(Seconds until);

  [[nodiscard]] SimEngine& engine() { return engine_; }
  [[nodiscard]] World& world() { return *world_; }
  [[nodiscard]] SimNetwork& network() { return network_; }
  [[nodiscard]] SimServer& server() { return *server_; }
  // Null when with_crawler is false.
  [[nodiscard]] Crawler* crawler() { return crawler_.get(); }
  [[nodiscard]] MetaverseClient* client() { return client_.get(); }
  [[nodiscard]] GroundTruthRecorder* ground_truth() { return ground_truth_.get(); }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }
  // Hands over the rig's trace: the crawler's when there is a crawler, else
  // the ground-truth recorder's. Throws std::logic_error when the rig has
  // neither.
  [[nodiscard]] Trace take_trace();
  // Every component's counters as they stand now.
  [[nodiscard]] RigStats stats() const;

 private:
  TestbedConfig config_;
  SimEngine engine_;
  std::unique_ptr<World> world_;
  SimNetwork network_;
  std::unique_ptr<SimServer> server_;
  std::unique_ptr<MetaverseClient> client_;
  std::unique_ptr<Crawler> crawler_;
  std::unique_ptr<GroundTruthRecorder> ground_truth_;
  bool started_{false};
};

}  // namespace slmob
