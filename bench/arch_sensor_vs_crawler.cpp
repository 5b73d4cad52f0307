// Section 2 reproduction: the two monitoring architectures compared.
//
// Runs both instruments simultaneously on the same world and scores each
// against the protocol-free ground truth:
//   * sensor network  — in-world LSL objects (16-avatar sweeps, 16 KB cache,
//     HTTP rate limits, object expiry + replication);
//   * crawler         — a libsecondlife-style client sampling the minimap.
// Also demonstrates the hard failure of the sensor architecture on private
// land (Dance Island), which is why the paper built the crawler.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "sensors/collector.hpp"
#include "sensors/deployment.hpp"
#include "sensors/object_runtime.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

// Fraction of ground-truth fixes (avatar present in a 10 s bin) that the
// measured trace also contains, and the mean position error of matches.
struct Fidelity {
  double recall{0.0};
  double mean_pos_error{0.0};
};

Fidelity score(const Trace& truth, const Trace& measured) {
  Fidelity f;
  std::size_t matched = 0;
  std::size_t total = 0;
  double err = 0.0;
  std::size_t m_idx = 0;
  for (const auto& snap : truth.snapshots()) {
    // Find the measured snapshot in the same 10 s bin.
    while (m_idx + 1 < measured.snapshots().size() &&
           measured.snapshots()[m_idx + 1].time <= snap.time + 5.0) {
      ++m_idx;
    }
    const Snapshot* msnap =
        m_idx < measured.snapshots().size() &&
                std::abs(measured.snapshots()[m_idx].time - snap.time) <= 10.0
            ? &measured.snapshots()[m_idx]
            : nullptr;
    for (const auto& fix : snap.fixes) {
      ++total;
      if (msnap == nullptr) continue;
      const auto seen = std::find_if(msnap->fixes.begin(), msnap->fixes.end(),
                                     [&](const AvatarFix& m) { return m.id == fix.id; });
      if (seen != msnap->fixes.end()) {
        ++matched;
        err += seen->pos.distance2d_to(fix.pos);
      }
    }
  }
  if (total > 0) f.recall = static_cast<double>(matched) / static_cast<double>(total);
  if (matched > 0) f.mean_pos_error = err / static_cast<double>(matched);
  return f;
}

void run_land(LandArchetype archetype, const BenchOptions& options) {
  TestbedConfig cfg;
  cfg.archetype = archetype;
  cfg.seed = options.seed;
  cfg.with_ground_truth = true;
  Testbed bed(cfg);

  // Sensor architecture riding on the same world/network.
  HttpCollector collector(bed.network(), bed.world().land().name());
  ObjectRuntime runtime(bed.world(), bed.network(), options.seed ^ 0x5e);
  SensorGridConfig grid_cfg;
  grid_cfg.grid_side = 2;
  SensorGridDeployment grid(runtime, bed.world().land(), collector.address(), grid_cfg);
  const std::size_t deployed = grid.deploy_all(0.0);
  bed.engine().add(kPriorityServer,
                   [&](Seconds now, Seconds dt) { runtime.tick(now, dt); });
  bed.engine().add(kPriorityMonitor, [&](Seconds now, Seconds dt) { grid.tick(now, dt); });

  bed.run_until(options.hours * kSecondsPerHour);

  const Trace truth = bed.ground_truth()->take_trace();
  Trace crawled = bed.crawler()->take_trace();
  crawled.strip_sitting_fixes();
  const Trace sensed = collector.build_trace(10.0);

  const Fidelity crawler_f = score(truth, crawled);
  const Fidelity sensor_f = score(truth, sensed);

  std::printf("\n--- %s (%s land) ---\n", bed.world().land().name().c_str(),
              bed.world().land().access() == LandAccess::kPrivate ? "private" : "public");
  std::printf("ground truth: %zu unique users, avg conc %.1f\n",
              truth.summary().unique_users, truth.summary().avg_concurrent);
  std::printf("sensors deployed: %zu/4 (land policy), redeployments: %llu\n", deployed,
              static_cast<unsigned long long>(grid.stats().redeployments));
  std::printf("%-10s %8s %10s %10s %10s\n", "instrument", "recall", "pos-err(m)",
              "uniq-seen", "records");
  std::printf("%-10s %7.1f%% %10.2f %10zu %10zu\n", "crawler", crawler_f.recall * 100.0,
              crawler_f.mean_pos_error, crawled.summary().unique_users,
              crawled.snapshots().size());
  std::printf("%-10s %7.1f%% %10.2f %10zu %10llu\n", "sensors", sensor_f.recall * 100.0,
              sensor_f.mean_pos_error, sensed.summary().unique_users,
              static_cast<unsigned long long>(collector.stats().records));

  // Per-sensor limitation tallies.
  std::uint64_t truncated = 0;
  std::uint64_t throttled = 0;
  std::uint64_t errors = 0;
  for (const auto& obj : runtime.objects()) {
    truncated += obj->stats().detections_truncated;
    throttled += obj->stats().http_throttled;
    errors += obj->stats().script_errors;
  }
  std::printf("sensor limits hit: %llu detections lost to the 16-cap, %llu HTTP "
              "throttles, %llu script errors\n",
              static_cast<unsigned long long>(truncated),
              static_cast<unsigned long long>(throttled),
              static_cast<unsigned long long>(errors));
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::parse(argc, argv);
  if (options.hours > 6.0) options.hours = 6.0;  // this bench runs 2 rigs per land
  print_title("Architecture comparison: virtual sensors vs external crawler",
              "La & Michiardi 2008, section 2 (monitoring architectures)");
  for (const LandArchetype archetype : kAllArchetypes) run_land(archetype, options);
  std::printf("\nConclusion (matches the paper): the crawler monitors any land in\n"
              "its totality; the sensor network cannot enter private lands, loses\n"
              "detections to the 16-avatar cap in crowds, and is throttled by the\n"
              "platform's HTTP limits.\n");
  return 0;
}
