#include "core/testbed.hpp"

#include <stdexcept>

namespace slmob {

Testbed::Testbed(const TestbedConfig& config)
    : config_(config),
      engine_(config.tick_length),
      world_(make_world(config.archetype, config.seed)),
      network_(config.network, config.seed ^ 0x9e3779b97f4a7c15ULL) {
  if (config_.curiosity) world_->set_curiosity(*config_.curiosity);

  SimServerParams server_params = config_.server;
  if (!config_.faults.empty()) {
    network_.set_faults(config_.faults);
    server_params.faults = config_.faults;
  }
  server_ = std::make_unique<SimServer>(network_, *world_, server_params);

  if (!config_.faults.empty()) {
    // Flash-crowd windows scale the world's admitted arrivals. The hook only
    // exists when a schedule is installed, so fault-free rigs run the exact
    // historical tick sequence.
    engine_.add(kPriorityWorld, [this](Seconds now, Seconds /*dt*/) {
      world_->set_arrival_boost(config_.faults.flash_crowd_factor_at(now));
    });
  }
  engine_.add(kPriorityWorld,
              [this](Seconds now, Seconds dt) { world_->tick(now, dt); });
  engine_.add(kPriorityServer,
              [this](Seconds now, Seconds dt) { server_->tick(now, dt); });
  engine_.add(kPriorityNetwork,
              [this](Seconds now, Seconds dt) { network_.tick(now, dt); });

  if (config_.with_crawler) {
    client_ = std::make_unique<MetaverseClient>(network_, server_->address(), "slmob",
                                                "crawler");
    crawler_ = std::make_unique<Crawler>(*client_, config_.crawler, config_.seed ^ 0xabcd);
    engine_.add(kPriorityClient,
                [this](Seconds now, Seconds dt) { client_->tick(now, dt); });
    engine_.add(kPriorityMonitor,
                [this](Seconds now, Seconds dt) { crawler_->tick(now, dt); });
  }
  if (config_.with_ground_truth) {
    ground_truth_ =
        std::make_unique<GroundTruthRecorder>(*world_, config_.ground_truth_interval);
    engine_.add(kPriorityMonitor,
                [this](Seconds now, Seconds dt) { ground_truth_->tick(now, dt); });
  }
}

void Testbed::run_until(Seconds until) {
  if (!started_) {
    started_ = true;
    if (crawler_) crawler_->start();
  }
  engine_.run_until(until);
}

Trace Testbed::take_trace() {
  if (crawler_) return crawler_->take_trace();
  if (ground_truth_) return ground_truth_->take_trace();
  throw std::logic_error("Testbed::take_trace: no trace source configured");
}

RigStats Testbed::stats() const {
  RigStats stats;
  if (crawler_) stats.crawler_stats = crawler_->stats();
  stats.world_stats = world_->stats();
  stats.server_stats = server_->stats();
  stats.network_stats = network_.stats();
  if (client_) stats.circuit_stats = client_->total_circuit_stats();
  return stats;
}

}  // namespace slmob
