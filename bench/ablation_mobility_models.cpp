// Ablation: POI-gravity vs classical mobility models.
//
// The paper's central spatial findings — hot-spot concentration (Fig. 3)
// and short travel distances (Fig. 4a) with power-law contact dynamics
// (Fig. 1) — require POI attraction. Random Waypoint and Levy Walk, run
// through the identical measurement pipeline, fail to reproduce them.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "world/levy_walk.hpp"
#include "world/random_waypoint.hpp"

using namespace slmob;
using namespace slmob::bench;

namespace {

std::unique_ptr<World> make_variant_world(LandArchetype archetype, int model,
                                          std::uint64_t seed) {
  Land land = make_land(archetype);
  std::unique_ptr<MobilityModel> mobility;
  switch (model) {
    case 0:
      mobility = std::make_unique<PoiGravityModel>(land, make_mobility_params(archetype));
      break;
    case 1:
      mobility = std::make_unique<RandomWaypointModel>();
      break;
    default:
      mobility = std::make_unique<LevyWalkModel>();
      break;
  }
  return std::make_unique<World>(std::move(land), std::move(mobility),
                                 make_population(archetype), seed);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::parse(argc, argv);
  if (options.hours > 6.0) options.hours = 6.0;  // 3 models x 1 land
  print_title("Ablation: POI-gravity vs RandomWaypoint vs LevyWalk",
              "design choice behind the reproduction (DESIGN.md section 6)");

  const LandArchetype archetype = LandArchetype::kDanceIsland;
  const char* names[] = {"poi-gravity", "random-waypoint", "levy-walk"};

  std::printf("%-16s %10s %10s %12s %12s %12s %12s\n", "model", "empty%", "max-zone",
              "CT med r10", "ICT med r10", "len p90", "clust med");
  for (int model = 0; model < 3; ++model) {
    // Ground-truth recording (no crawler) keeps the comparison about
    // mobility, not instrumentation.
    auto world = make_variant_world(archetype, model, options.seed);
    SimEngine engine(1.0);
    GroundTruthRecorder recorder(*world, 10.0);
    engine.add(kPriorityWorld, [&](Seconds now, Seconds dt) { world->tick(now, dt); });
    engine.add(kPriorityMonitor,
               [&](Seconds now, Seconds dt) { recorder.tick(now, dt); });
    engine.run_until(options.hours * kSecondsPerHour);

    const AnalysisReport res =
        analyze_trace(recorder.take_trace(), {kBluetoothRange}, world->land().size());
    const auto& c = res.contacts.at(kBluetoothRange);
    const auto& g = res.graphs.at(kBluetoothRange);
    std::printf("%-16s %9.1f%% %10zu %12.0f %12.0f %12.0f %12.2f\n", names[model],
                res.zones.empty_fraction * 100.0, res.zones.max_occupancy,
                c.contact_times.empty() ? 0.0 : c.contact_times.median(),
                c.inter_contact_times.empty() ? 0.0 : c.inter_contact_times.median(),
                res.trips.travel_lengths.empty() ? 0.0
                                                 : res.trips.travel_lengths.quantile(0.9),
                g.clustering.empty() ? 0.0 : g.clustering.median());
  }
  std::printf("\nExpected: only poi-gravity shows the paper's signature — dense\n"
              "hot-spots (high max-zone, ~96%% empty cells), long in-POI contacts,\n"
              "short travel; RWP/Levy spread users uniformly (low max-zone) and\n"
              "their travel lengths are far larger.\n");
  return 0;
}
