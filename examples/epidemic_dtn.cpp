// The paper's motivating application: use the collected mobility traces to
// drive a Delay-Tolerant-Network simulation ("the study of epidemics and
// information diffusion in wireless networks", abstract).
//
// Collects a trace from the Isle Of View event (or loads one saved by
// quickstart), then races three forwarding schemes over the same contacts.
//
//   ./examples/epidemic_dtn [trace.sltj]
#include <cstdio>

#include "core/experiment.hpp"
#include "dtn/dtn_simulator.hpp"
#include "trace/serialize.hpp"

int main(int argc, char** argv) {
  using namespace slmob;

  Trace trace;
  if (argc > 1) {
    std::printf("Loading trace from %s...\n", argv[1]);
    trace = load_trace(argv[1]);
  } else {
    std::printf("Collecting a 3 h Isle Of View trace (pass a .sltj file to reuse one)...\n");
    ExperimentConfig cfg;
    cfg.archetype = LandArchetype::kIsleOfView;
    cfg.duration = 3.0 * kSecondsPerHour;
    cfg.seed = 14;
    cfg.ranges = {};  // we only need the raw trace here
    trace = run_experiment(cfg).trace;
  }
  const TraceSummary summary = trace.summary();
  std::printf("trace: %s, %zu users, %.1f concurrent, %.1f h\n\n",
              trace.land_name().c_str(), summary.unique_users, summary.avg_concurrent,
              summary.duration / kSecondsPerHour);

  std::printf("%-12s %10s %12s %12s %14s\n", "scheme", "delivery", "delay med(s)",
              "delay p90(s)", "copies/message");
  for (const RoutingScheme scheme : {RoutingScheme::kEpidemic, RoutingScheme::kTwoHopRelay,
                                     RoutingScheme::kDirectDelivery}) {
    DtnConfig cfg;
    cfg.scheme = scheme;
    cfg.range = kBluetoothRange;  // Bluetooth-class devices, as in the paper
    cfg.message_count = 400;
    cfg.seed = 99;
    const DtnResults res = simulate_dtn(trace, cfg);
    std::printf("%-12s %9.1f%% %12.0f %12.0f %14.1f\n", routing_scheme_name(scheme),
                res.delivery_ratio * 100.0,
                res.delays.empty() ? 0.0 : res.delays.median(),
                res.delays.empty() ? 0.0 : res.delays.quantile(0.9),
                res.mean_copies_per_message);
  }
  std::printf("\nNote how user churn (sessions of minutes, not days) caps delivery:\n"
              "a destination that logs out is gone, no matter the scheme.\n");
  return 0;
}
