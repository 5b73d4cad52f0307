#include "core/experiment.hpp"

#include "analysis/streaming.hpp"

namespace slmob {

TestbedConfig make_testbed_config(const ExperimentConfig& config) {
  TestbedConfig tb = config.testbed;
  tb.archetype = config.archetype;
  tb.seed = config.seed;
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

  Trace trace = bed.take_trace();
  trace.strip_sitting_fixes();

  ExperimentResults results;
  static_cast<RigStats&>(results) = bed.stats();
  results.analysis = analyze_trace(trace, config.ranges, bed.world().land().size(),
                                   config.analysis_threads);
  results.trace = std::move(trace);
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
