// Experiment: the one-call public API.
//
// Reproduces the paper's full methodology: run a 24 h (configurable)
// crawler measurement on a target land, then compute every metric of §3 —
// contact opportunities (CT/ICT/FT) at the Bluetooth and WiFi ranges,
// line-of-sight graph properties, zone occupation and trip statistics.
//
//   ExperimentConfig cfg;
//   cfg.archetype = LandArchetype::kDanceIsland;
//   cfg.duration = 24 * kSecondsPerHour;
//   ExperimentResults res = run_experiment(cfg);
//   res.analysis.contacts.at(kBluetoothRange).contact_times.median();
#pragma once

#include <string>
#include <vector>

#include "analysis/analysis_report.hpp"
#include "core/testbed.hpp"

namespace slmob {

// The paper's two communication ranges: Bluetooth and 802.11a WiFi.
inline constexpr double kBluetoothRange = 10.0;
inline constexpr double kWifiRange = 80.0;

struct ExperimentConfig {
  LandArchetype archetype{LandArchetype::kIsleOfView};
  Seconds duration{kSecondsPerDay};
  std::uint64_t seed{42};
  std::vector<double> ranges{kBluetoothRange, kWifiRange};
  TestbedConfig testbed;  // archetype/seed fields here are overwritten
  // Total threads for the analysis pipeline (the simulation itself stays
  // single-threaded for determinism). 0 = SLMOB_THREADS env var if set,
  // else hardware_concurrency(). Results are identical for any value.
  std::size_t analysis_threads{0};
  // Named chaos scenario (FaultSchedule::scenario): "none", "blackouts",
  // "burst-loss", "region-flaps" or "chaos". Ignored when testbed.faults is
  // already populated. Scenario randomness comes from `fault_seed`
  // (0 = derive from `seed`), so faults can vary independently of the world.
  std::string fault_scenario{"none"};
  std::uint64_t fault_seed{0};
};

struct ExperimentResults : RigStats {
  Trace trace;              // the analysed trace
  AnalysisReport analysis;  // every §3 metric of `trace`
};

// The exact TestbedConfig run_experiment builds from `config` (archetype,
// seed and fault scenario resolved). Exposed so the checkpointed runner
// (core/checkpoint.hpp) wires a bit-identical rig.
TestbedConfig make_testbed_config(const ExperimentConfig& config);

// Runs the testbed for cfg.duration, takes its trace (Testbed::take_trace:
// the crawler's, else the ground-truth recorder's), drops sitting fixes and
// computes all analyses.
ExperimentResults run_experiment(const ExperimentConfig& config);

// Runs the §3 analyses on an in-memory trace: the trace streams through one
// StreamingAnalyzer (analysis/streaming.hpp) over a MemoryTraceStream view,
// with `threads` total analysis threads (0 = SLMOB_THREADS env var, else
// hardware_concurrency()). `ranges` are deduplicated; each must be positive
// and finite (std::invalid_argument otherwise). The report is identical for every
// thread count; tests/analysis_goldens.hpp pins it for the paper's lands,
// fault scenarios and seeded synthetic traces.
AnalysisReport analyze_trace(const Trace& trace, const std::vector<double>& ranges,
                             double land_size = kDefaultLandSize, std::size_t threads = 0);

}  // namespace slmob
