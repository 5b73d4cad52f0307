#include "core/experiment.hpp"

#include <stdexcept>

#include "analysis/streaming.hpp"

namespace slmob {

TestbedConfig make_testbed_config(const ExperimentConfig& config) {
  TestbedConfig tb = config.testbed;
  tb.archetype = config.archetype;
  tb.seed = config.seed;
  if (config.analyze_ground_truth) tb.with_ground_truth = true;
  if (tb.faults.empty() && config.fault_scenario != "none") {
    const std::uint64_t fseed =
        config.fault_seed != 0 ? config.fault_seed : config.seed;
    tb.faults = FaultSchedule::scenario(config.fault_scenario, config.duration, fseed);
  }
  return tb;
}

ExperimentResults run_experiment(const ExperimentConfig& config) {
  Testbed bed(make_testbed_config(config));
  bed.run_until(config.duration);

  Trace trace;
  if (config.analyze_ground_truth) {
    trace = bed.ground_truth()->take_trace();
  } else if (bed.crawler() != nullptr) {
    trace = bed.crawler()->take_trace();
  } else if (bed.ground_truth() != nullptr) {
    trace = bed.ground_truth()->take_trace();
  } else {
    throw std::logic_error("run_experiment: no trace source configured");
  }
  trace.strip_sitting_fixes();

  ExperimentResults results;
  results.analysis = analyze_trace(trace, config.ranges, bed.world().land().size(),
                                   config.analysis_threads);
  results.trace = std::move(trace);
  results.world_stats = bed.world().stats();
  results.server_stats = bed.server().stats();
  if (bed.crawler() != nullptr) results.crawler_stats = bed.crawler()->stats();
  results.network_stats = bed.network().stats();
  if (bed.client() != nullptr) results.circuit_stats = bed.client()->total_circuit_stats();
  if (!config.analyze_ground_truth && bed.ground_truth() != nullptr) {
    results.ground_truth = bed.ground_truth()->take_trace();
  }
  return results;
}

AnalysisReport analyze_trace(const Trace& trace, const std::vector<double>& ranges,
                             double land_size, std::size_t threads) {
  StreamingOptions options;
  options.ranges = ranges;
  options.land_size = land_size;
  options.threads = threads;
  MemoryTraceStream stream(trace);
  return analyze_stream(stream, options);
}

}  // namespace slmob
