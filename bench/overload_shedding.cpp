// overload_shedding: gates the overload-protection layer end to end.
//
// One rig carries both instruments the paper used — the external crawler and
// an in-world sensor grid flushing to an HTTP collector — on a shared
// network with deliberately tight queue bounds. The "overload" scenario (10x
// flash-crowd arrivals over the middle third, collector answering seconds
// late over a slightly wider window) is run against a fault-free control
// with the exact same bounds, and the bench enforces the contract:
//
//  * fault-free: every shed / defer / degrade counter is exactly zero — the
//    protection layer must be invisible until there is something to protect
//    against;
//  * overload: datagrams are shed (snapshot class), sampling degradation
//    windows are recorded on the trace, sensor flushes widen, the collector
//    defers acks — the pressure is measured, not silent;
//  * zero control-plane loss: no reliable send fails in either run;
//  * covered recall stays above a floor: whatever the crawler claims as
//    covered time is still honest measurement;
//  * peak RSS stays within a fixed budget (bounded queues actually bound);
//  * bit-identical traces: the overload rig twice with one seed, and a
//    4-shard crawler run at 1, 2 and 4 threads, must agree byte for byte.
//
// Writes every score to BENCH_overload.json; exits non-zero if any gate
// fails.
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "core/shards.hpp"
#include "core/testbed.hpp"
#include "net/fault_schedule.hpp"
#include "sensors/collector.hpp"
#include "sensors/deployment.hpp"
#include "sensors/object_runtime.hpp"
#include "trace/serialize.hpp"
#include "util/bytes.hpp"

namespace {

using namespace slmob;
using bench::appendf;

// Queue bounds tight enough that a 10x surge trips them while a fault-free
// run never does. The production defaults are deliberately generous; these
// are the bench's stress settings, not recommendations.
constexpr std::size_t kTightInFlight = 16;

struct RigScore {
  std::string scenario;
  // Overload-protection counters (all must be 0 fault-free).
  std::uint64_t shed_session{0};
  std::uint64_t shed_snapshot{0};
  std::uint64_t deferred_sends{0};
  std::uint64_t logins_rejected_overload{0};
  std::uint64_t messages_shed{0};
  std::uint64_t degrade_escalations{0};
  std::uint64_t degrade_recoveries{0};
  std::uint64_t degraded_snapshots{0};
  double degraded_seconds{0.0};
  std::size_t degradation_windows{0};
  std::uint64_t flushes_widened{0};
  std::uint64_t sensor_http_timeouts{0};
  std::uint64_t responses_delayed{0};
  std::uint64_t responses_dropped{0};
  std::uint64_t in_flight_peak{0};
  // Control-plane integrity.
  std::uint64_t reliable_failures{0};
  // Fidelity.
  double recall{0.0};
  double covered_recall{0.0};
  std::size_t snapshots{0};
  std::uint32_t trace_digest{0};

  bool operator==(const RigScore&) const = default;
};

// Fraction of ground-truth (snapshot, avatar) fixes the crawler captured
// (chaos_recall's scoring; covered_only restricts to time outside gaps).
double recall_vs_truth(const Trace& measured, const Trace& truth, bool covered_only) {
  const Seconds tau = truth.sampling_interval();
  std::size_t total = 0;
  std::size_t matched = 0;
  std::size_t m = 0;
  const auto& snaps = measured.snapshots();
  for (const auto& gt : truth.snapshots()) {
    if (covered_only && !measured.covered_at(gt.time)) continue;
    while (m < snaps.size() && snaps[m].time < gt.time - tau / 2.0) ++m;
    const bool have_window = m < snaps.size() && snaps[m].time < gt.time + tau / 2.0;
    std::unordered_set<std::uint32_t> present;
    if (have_window) {
      for (const auto& fix : snaps[m].fixes) present.insert(fix.id.value);
    }
    for (const auto& fix : gt.fixes) {
      ++total;
      if (present.contains(fix.id.value)) ++matched;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(matched) / static_cast<double>(total);
}

RigScore run_rig(const std::string& scenario, double hours, std::uint64_t seed) {
  const Seconds duration = hours * kSecondsPerHour;

  TestbedConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.seed = seed;
  cfg.with_ground_truth = true;
  cfg.network.max_in_flight = kTightInFlight;
  if (scenario != "none") {
    cfg.faults = FaultSchedule::scenario(scenario, duration, seed);
  }
  Testbed bed(cfg);

  // Sensor grid + collector on the same world/network (the
  // arch_sensor_vs_crawler rig), so the snapshot-class traffic that the
  // tight in-flight bound sheds under surge actually exists.
  HttpCollector collector(bed.network(), bed.world().land().name());
  collector.set_faults(cfg.faults);
  ObjectRuntime runtime(bed.world(), bed.network(), seed ^ 0x5e);
  SensorGridConfig grid_cfg;
  grid_cfg.grid_side = 2;
  SensorGridDeployment grid(runtime, bed.world().land(), collector.address(), grid_cfg);
  grid.deploy_all(0.0);
  bed.engine().add(kPriorityServer, [&](Seconds now, Seconds dt) {
    collector.tick(now, dt);
    runtime.tick(now, dt);
  });
  bed.engine().add(kPriorityMonitor, [&](Seconds now, Seconds dt) { grid.tick(now, dt); });

  bed.run_until(duration);

  RigScore s;
  s.scenario = scenario;
  const NetworkStats& net = bed.network().stats();
  s.shed_session = net.shed_session;
  s.shed_snapshot = net.shed_snapshot;
  s.in_flight_peak = net.in_flight_peak;
  const CircuitStats circ = bed.client()->total_circuit_stats();
  s.deferred_sends = circ.deferred_sends;
  s.reliable_failures = circ.reliable_failures;
  const SimServerStats& server = bed.server().stats();
  s.logins_rejected_overload = server.logins_rejected_overload;
  s.messages_shed = server.messages_shed;
  const CrawlerStats& crawl = bed.crawler()->stats();
  s.degrade_escalations = crawl.degrade_escalations;
  s.degrade_recoveries = crawl.degrade_recoveries;
  s.degraded_snapshots = crawl.degraded_snapshots;
  // total_sensor_stats folds in expired generations: on public land the
  // sensor fleet turns over every object_lifetime seconds, and the counters
  // from sensors that lived through the surge must not vanish with them.
  const SensorObjectStats sensors = runtime.total_sensor_stats();
  s.flushes_widened = sensors.flushes_widened;
  s.sensor_http_timeouts = sensors.http_timeouts;
  s.responses_delayed = collector.stats().responses_delayed;
  s.responses_dropped = collector.stats().responses_dropped;

  const Trace truth = bed.ground_truth()->take_trace();
  const Trace crawled = bed.crawler()->take_trace();
  s.degraded_seconds = crawled.degraded_seconds();
  s.degradation_windows = crawled.degradations().size();
  s.snapshots = crawled.size();
  s.recall = recall_vs_truth(crawled, truth, /*covered_only=*/false);
  s.covered_recall = recall_vs_truth(crawled, truth, /*covered_only=*/true);
  s.trace_digest = crc32(encode_trace(crawled));
  return s;
}

std::uint64_t overload_counter_total(const RigScore& s) {
  return s.shed_session + s.shed_snapshot + s.deferred_sends +
         s.logins_rejected_overload + s.messages_shed + s.degrade_escalations +
         s.degrade_recoveries + s.degraded_snapshots + s.flushes_widened +
         s.responses_delayed + s.responses_dropped +
         static_cast<std::uint64_t>(s.degradation_windows);
}

// Crawler-only shards under the overload scenario at several thread counts:
// the protection layer must not perturb cross-shard determinism.
bool sharded_bit_identical(double hours, std::uint64_t seed,
                           std::vector<std::uint32_t>& digests_out) {
  std::vector<ExperimentConfig> shards;
  const LandArchetype lands[] = {LandArchetype::kIsleOfView, LandArchetype::kDanceIsland,
                                 LandArchetype::kApfelLand, LandArchetype::kIsleOfView};
  for (std::size_t i = 0; i < 4; ++i) {
    ExperimentConfig cfg;
    cfg.archetype = lands[i];
    cfg.duration = hours * kSecondsPerHour;
    cfg.seed = seed + i;
    cfg.fault_scenario = "overload";
    cfg.ranges = {};
    cfg.testbed.network.max_in_flight = kTightInFlight;
    shards.push_back(cfg);
  }

  bool identical = true;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ShardRunOptions opt;
    opt.threads = threads;
    const auto results = run_sharded(shards, opt);
    std::vector<std::uint32_t> digests;
    digests.reserve(results.size());
    for (const auto& r : results) digests.push_back(crc32(encode_trace(r.trace)));
    if (threads == 1) {
      digests_out = digests;
    } else if (digests != digests_out) {
      identical = false;
    }
  }
  return identical;
}

void append_score(std::string& body, const RigScore& s, bool last) {
  appendf(body,
          "    {\"scenario\": \"%s\", \"shed_session\": %llu, \"shed_snapshot\": %llu, "
          "\"deferred_sends\": %llu, \"logins_rejected_overload\": %llu, "
          "\"messages_shed\": %llu, \"degrade_escalations\": %llu, "
          "\"degrade_recoveries\": %llu, \"degraded_snapshots\": %llu, "
          "\"degraded_seconds\": %.1f, \"degradation_windows\": %zu, "
          "\"flushes_widened\": %llu, \"sensor_http_timeouts\": %llu, "
          "\"responses_delayed\": %llu, \"responses_dropped\": %llu, "
          "\"in_flight_peak\": %llu, "
          "\"reliable_failures\": %llu, \"recall\": %.6f, \"covered_recall\": %.6f, "
          "\"snapshots\": %zu, \"trace_digest\": \"%08x\"}%s\n",
          s.scenario.c_str(), static_cast<unsigned long long>(s.shed_session),
          static_cast<unsigned long long>(s.shed_snapshot),
          static_cast<unsigned long long>(s.deferred_sends),
          static_cast<unsigned long long>(s.logins_rejected_overload),
          static_cast<unsigned long long>(s.messages_shed),
          static_cast<unsigned long long>(s.degrade_escalations),
          static_cast<unsigned long long>(s.degrade_recoveries),
          static_cast<unsigned long long>(s.degraded_snapshots), s.degraded_seconds,
          s.degradation_windows, static_cast<unsigned long long>(s.flushes_widened),
          static_cast<unsigned long long>(s.sensor_http_timeouts),
          static_cast<unsigned long long>(s.responses_delayed),
          static_cast<unsigned long long>(s.responses_dropped),
          static_cast<unsigned long long>(s.in_flight_peak),
          static_cast<unsigned long long>(s.reliable_failures), s.recall,
          s.covered_recall, s.snapshots, s.trace_digest, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  double hours = 6.0;
  std::uint64_t seed = 42;
  double rss_budget_mib = 1024.0;
  double recall_floor = 0.45;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hours") == 0 && i + 1 < argc) {
      hours = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--rss-budget-mib") == 0 && i + 1 < argc) {
      rss_budget_mib = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--recall-floor") == 0 && i + 1 < argc) {
      recall_floor = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      hours = 2.0;
    }
  }

  std::printf("overload_shedding: %.1f h Isle Of View, seed %llu, in-flight cap %zu\n",
              hours, static_cast<unsigned long long>(seed), kTightInFlight);

  std::fprintf(stderr, "[bench] fault-free control...\n");
  const RigScore control = run_rig("none", hours, seed);
  std::fprintf(stderr, "[bench] overload (run 1/2)...\n");
  const RigScore overload = run_rig("overload", hours, seed);
  std::fprintf(stderr, "[bench] overload (run 2/2, determinism)...\n");
  const RigScore overload2 = run_rig("overload", hours, seed);
  std::fprintf(stderr, "[bench] sharded 1/2/4 threads...\n");
  std::vector<std::uint32_t> shard_digests;
  const bool shards_identical = sharded_bit_identical(hours / 2.0, seed, shard_digests);
  const double rss = bench::peak_rss_mib();

  struct Gate {
    const char* name;
    bool pass;
  };
  const std::vector<Gate> gates = {
      {"fault-free counters all zero", overload_counter_total(control) == 0},
      {"overload sheds datagrams", overload.shed_snapshot + overload.shed_session > 0},
      {"overload records degradation windows",
       overload.degrade_escalations > 0 && overload.degraded_seconds > 0.0 &&
           overload.degradation_windows > 0},
      {"overload widens sensor flushes", overload.flushes_widened > 0},
      {"collector defers under slow window", overload.responses_delayed > 0},
      {"zero control-plane loss",
       control.reliable_failures == 0 && overload.reliable_failures == 0},
      {"covered recall above floor", overload.covered_recall >= recall_floor},
      {"peak RSS within budget", rss == 0.0 || rss <= rss_budget_mib},
      {"overload rig deterministic", overload == overload2},
      {"sharded 1/2/4 threads bit-identical", shards_identical},
  };

  std::printf("%-28s %14s %14s\n", "counter", "fault-free", "overload");
  const auto row = [](const char* name, std::uint64_t a, std::uint64_t b) {
    std::printf("%-28s %14llu %14llu\n", name, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  };
  row("shed (session)", control.shed_session, overload.shed_session);
  row("shed (snapshot)", control.shed_snapshot, overload.shed_snapshot);
  row("deferred sends", control.deferred_sends, overload.deferred_sends);
  row("logins rejected", control.logins_rejected_overload,
      overload.logins_rejected_overload);
  row("messages shed", control.messages_shed, overload.messages_shed);
  row("degrade escalations", control.degrade_escalations, overload.degrade_escalations);
  row("degraded snapshots", control.degraded_snapshots, overload.degraded_snapshots);
  row("flushes widened", control.flushes_widened, overload.flushes_widened);
  row("acks delayed", control.responses_delayed, overload.responses_delayed);
  row("in-flight peak", control.in_flight_peak, overload.in_flight_peak);
  row("reliable failures", control.reliable_failures, overload.reliable_failures);
  std::printf("degraded seconds: %.0f | recall %.4f -> %.4f | covered recall %.4f "
              "(floor %.2f) | peak RSS %.0f MiB (budget %.0f)\n",
              overload.degraded_seconds, control.recall, overload.recall,
              overload.covered_recall, recall_floor, rss, rss_budget_mib);

  bool all_pass = true;
  for (const Gate& g : gates) {
    std::printf("gate %-38s %s\n", g.name, g.pass ? "PASS" : "FAIL");
    all_pass = all_pass && g.pass;
  }

  std::string body;
  appendf(body, "{\n");
  appendf(body, "  \"hours\": %.2f,\n", hours);
  appendf(body, "  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  appendf(body, "  \"in_flight_cap\": %zu,\n", kTightInFlight);
  appendf(body, "  \"recall_floor\": %.2f,\n", recall_floor);
  appendf(body, "  \"rss_budget_mib\": %.0f,\n", rss_budget_mib);
  appendf(body, "  \"peak_rss_mib\": %.1f,\n", rss);
  appendf(body, "  \"all_gates_pass\": %s,\n", all_pass ? "true" : "false");
  appendf(body, "  \"gates\": {\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    appendf(body, "    \"%s\": %s%s\n", gates[i].name, gates[i].pass ? "true" : "false",
            i + 1 < gates.size() ? "," : "");
  }
  appendf(body, "  },\n");
  appendf(body, "  \"shard_digests\": [");
  for (std::size_t i = 0; i < shard_digests.size(); ++i) {
    appendf(body, "%s\"%08x\"", i == 0 ? "" : ", ", shard_digests[i]);
  }
  appendf(body, "],\n");
  appendf(body, "  \"runs\": [\n");
  append_score(body, control, /*last=*/false);
  append_score(body, overload, /*last=*/true);
  appendf(body, "  ]\n}");
  bench::write_bench_json("BENCH_overload.json", "overload_shedding", body);
  std::printf("wrote BENCH_overload.json (%s)\n", all_pass ? "all gates PASS" : "GATE FAILURES");
  return all_pass ? 0 : 1;
}
