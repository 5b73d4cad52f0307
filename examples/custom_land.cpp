// Building your own target land.
//
// The library is not limited to the three lands of the paper: define any
// land geometry (POIs, spawn points, policies), a population and mobility
// parameters, wire a world manually, and run the same measurement pipeline.
// Here: a virtual university campus with two lecture halls, a cafeteria and
// a quad, with lecture-length dwell times.
#include <cstdio>
#include <memory>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "trace/sessions.hpp"

int main() {
  using namespace slmob;

  // 1. Land geometry.
  Land campus("Virtual Campus");
  campus.set_access(LandAccess::kPublic);
  campus.add_poi({"lecture hall A", {70.0, 180.0, 22.0}, 12.0, 1.0});
  campus.add_poi({"lecture hall B", {180.0, 180.0, 22.0}, 12.0, 0.8});
  campus.add_poi({"cafeteria", {128.0, 80.0, 22.0}, 14.0, 0.9});
  campus.add_poi({"quad", {128.0, 140.0, 22.0}, 20.0, 0.4});
  campus.add_spawn_point({128.0, 16.0, 22.0});

  // 2. Mobility: students sit through lectures (long pauses), hop between
  // halls and the cafeteria, and return to "their" hall.
  PoiGravityParams mobility;
  mobility.p_switch_poi = 0.25;
  mobility.p_return_home = 0.5;
  mobility.pause_xm = 300.0;  // lectures are long
  mobility.pause_alpha = 1.3;
  mobility.pause_cap = 3600.0;
  mobility.idler_fraction = 0.05;
  mobility.explorer_fraction = 0.02;

  // 3. Population: ~400 students/day, 45 min median stays, campus rhythm.
  PopulationParams population;
  population.target_unique_users = 400.0;
  population.session_median = 2700.0;
  population.session_sigma = 0.6;
  population.revisit_probability = 0.5;  // students come back between classes
  population.diurnal_depth = 0.5;

  // 4. Wire the world into the standard testbed by hand.
  auto model = std::make_unique<PoiGravityModel>(campus, mobility);
  World world(std::move(campus), std::move(model), population, /*seed=*/7);

  SimEngine engine(1.0);
  GroundTruthRecorder recorder(world, 10.0);
  engine.add(kPriorityWorld, [&](Seconds now, Seconds dt) { world.tick(now, dt); });
  engine.add(kPriorityMonitor, [&](Seconds now, Seconds dt) { recorder.tick(now, dt); });

  std::printf("Simulating 6 h of campus life...\n");
  engine.run_until(6.0 * kSecondsPerHour);

  const Trace trace = recorder.take_trace();
  const AnalysisReport report = analyze_trace(trace, {10.0}, kDefaultLandSize);
  const TraceSummary& summary = report.summary;
  std::printf("students seen: %zu | avg on campus: %.1f\n", summary.unique_users,
              summary.avg_concurrent);

  const ContactAnalysis& contacts = report.contacts.at(10.0);
  std::printf("contacts at 10 m: %zu | median contact %.0f s (lecture co-attendance)\n",
              contacts.intervals.size(),
              contacts.contact_times.empty() ? 0.0 : contacts.contact_times.median());

  const ZoneAnalysis& zones = report.zones;
  std::printf("busiest 20 m cell holds %zu students; %.0f%% of campus is empty\n",
              zones.max_occupancy, zones.empty_fraction * 100.0);

  const auto sessions = extract_sessions(trace);
  std::printf("sessions: %zu (revisits make them outnumber unique students)\n",
              sessions.size());
  return 0;
}
