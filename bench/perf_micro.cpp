// Performance microbenchmarks (google-benchmark): the hot paths of the
// pipeline — wire codec, spatial index, contact extraction, graph metrics,
// LSL interpretation and world stepping.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "alloc_counter.hpp"
#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/pair_kernel.hpp"
#include "analysis/spatial_index.hpp"
#include "client/metaverse_client.hpp"
#include "lsl/interpreter.hpp"
#include "net/messages.hpp"
#include "server/sim_server.hpp"
#include "util/rng.hpp"
#include "world/archetypes.hpp"
#include "world/poi_gravity.hpp"

namespace slmob {
namespace {

Snapshot random_snapshot(std::size_t n, Rng& rng) {
  Snapshot snap;
  snap.time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    snap.fixes.push_back({AvatarId{static_cast<std::uint32_t>(i + 1)},
                          {rng.uniform(0.0, 256.0), rng.uniform(0.0, 256.0), 22.0}});
  }
  return snap;
}

void BM_EncodeCoarseLocationUpdate(benchmark::State& state) {
  CoarseLocationUpdate update;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    update.entries.push_back({i, 100, 100, 5});
  }
  const Message msg{update};
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_message(msg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeCoarseLocationUpdate)->Arg(10)->Arg(100);

void BM_DecodeCoarseLocationUpdate(benchmark::State& state) {
  CoarseLocationUpdate update;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    update.entries.push_back({i, 100, 100, 5});
  }
  const auto bytes = encode_message(Message{update});
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_message(bytes));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeCoarseLocationUpdate)->Arg(10)->Arg(100);

void BM_SpatialGridPairs(benchmark::State& state) {
  Rng rng(1);
  const Snapshot snap = random_snapshot(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<Vec3> positions;
  for (const auto& f : snap.fixes) positions.push_back(f.pos);
  for (auto _ : state) {
    const SpatialGrid grid(positions, 10.0);
    benchmark::DoNotOptimize(grid.pairs_within());
  }
}
BENCHMARK(BM_SpatialGridPairs)->Arg(50)->Arg(100)->Arg(400);

// The batched kernel on the same snapshots, reusing one kernel across
// iterations (the ProximityCache warm path). items = pairs found;
// allocs_per_run must sit at zero once the scratch is warm.
void BM_PairKernelPairs(benchmark::State& state) {
  Rng rng(1);
  const Snapshot snap = random_snapshot(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<Vec3> positions;
  for (const auto& f : snap.fixes) positions.push_back(f.pos);
  PairKernel kernel;
  kernel.run(positions, 10.0);  // warm
  const std::size_t pairs = kernel.hits().size();
  const std::size_t allocs_before = bench::allocation_count();
  for (auto _ : state) {
    kernel.run(positions, 10.0);
    benchmark::DoNotOptimize(kernel.hits().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs));
  state.counters["allocs_per_run"] =
      static_cast<double>(bench::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PairKernelPairs)->Arg(50)->Arg(100)->Arg(400);

// One enumeration at the WiFi range plus single-pass classification into
// the Bluetooth and WiFi lists — the exact ProximityCache build step.
void BM_PairKernelClassify(benchmark::State& state) {
  Rng rng(1);
  const Snapshot snap = random_snapshot(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<Vec3> positions;
  for (const auto& f : snap.fixes) positions.push_back(f.pos);
  const std::vector<double> ranges{10.0, 80.0};
  PairKernel kernel;
  std::vector<PairKernel::PairList> lists(ranges.size());
  for (auto _ : state) {
    kernel.run(positions, ranges.back());
    for (auto& l : lists) l.clear();
    kernel.classify(ranges, lists.data());
    benchmark::DoNotOptimize(lists.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PairKernelClassify)->Arg(100)->Arg(400);

void BM_ContactExtraction(benchmark::State& state) {
  // A 1 h Dance Island ground-truth trace.
  auto world = make_world(LandArchetype::kDanceIsland, 1);
  Trace trace("bench", 10.0);
  for (int t = 0; t < 3600; ++t) {
    world->tick(t, 1.0);
    if (t % 10 == 0) {
      Snapshot snap;
      snap.time = t;
      const auto& store = world->avatars();
      for (std::size_t i = 0; i < store.size(); ++i) {
        snap.fixes.push_back({store.id(i), store.pos(i)});
      }
      trace.add(std::move(snap));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze_contacts(trace, 10.0));
  }
}
BENCHMARK(BM_ContactExtraction);

// The streaming graph consumer at the 80 m WiFi range (random placement
// gives mean degree ~30 at n = 100), fed the same snapshot over and over
// with its scratch warm.
void BM_GraphMetricsPerSnapshot(benchmark::State& state) {
  Rng rng(2);
  const Snapshot snap = random_snapshot(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<Vec3> positions;
  for (const auto& f : snap.fixes) positions.push_back(f.pos);
  const auto pairs = SpatialGrid(positions, 80.0).pairs_within();
  GraphStream graphs(80.0);
  std::size_t fed = 0;
  for (auto _ : state) {
    graphs.on_snapshot(snap.fixes.size(), pairs);
    // A fresh stream now and then bounds the accumulated ECDF samples.
    if (++fed % 4096 == 0) graphs = GraphStream(80.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphMetricsPerSnapshot)->Arg(64)->Arg(100);

// The streaming contact consumer at the 80 m WiFi range with its tables
// warm, on precomputed pair lists (BM_ContactExtraction also builds the
// proximity cache). A ring of 32 snapshots of avatars random-walking 8 m
// per step, so each step continues most contacts and opens and closes a
// few.
void BM_ContactStreamPerSnapshot(benchmark::State& state) {
  Rng rng(3);
  Snapshot snap = random_snapshot(static_cast<std::size_t>(state.range(0)), rng);
  std::vector<Snapshot> ring;
  std::vector<ContactStream::PairList> pairs;
  for (int k = 0; k < 32; ++k) {
    std::vector<Vec3> positions;
    for (auto& f : snap.fixes) {
      f.pos.x = std::clamp(f.pos.x + rng.uniform(-8.0, 8.0), 0.0, 255.0);
      f.pos.y = std::clamp(f.pos.y + rng.uniform(-8.0, 8.0), 0.0, 255.0);
      positions.push_back(f.pos);
    }
    pairs.push_back(SpatialGrid(positions, 80.0).pairs_within());
    ring.push_back(snap);
  }
  const GapTracker gaps;
  ContactStream contacts(80.0, 10.0, gaps);
  std::size_t fed = 0;
  for (auto _ : state) {
    const std::size_t k = fed % ring.size();
    ring[k].time = 10.0 * static_cast<double>(fed);
    contacts.on_snapshot(ring[k], pairs[k]);
    // A fresh stream now and then bounds the accumulated intervals.
    if (++fed % 4096 == 0) contacts = ContactStream(80.0, 10.0, gaps);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ContactStreamPerSnapshot)->Arg(64)->Arg(100);

void BM_WorldTickHour(benchmark::State& state) {
  for (auto _ : state) {
    auto world = make_world(LandArchetype::kIsleOfView, 3);
    for (int t = 0; t < 3600; ++t) world->tick(t, 1.0);
    benchmark::DoNotOptimize(world->concurrent());
  }
}
BENCHMARK(BM_WorldTickHour)->Unit(benchmark::kMillisecond);

// Frozen-population world at a fixed concurrency: Dance Island mobility with
// arrivals silenced and sessions stretched past the bench horizon, so every
// iteration ticks exactly n avatars.
std::unique_ptr<World> frozen_world(std::size_t n, std::uint64_t seed) {
  Land land = make_land(LandArchetype::kDanceIsland);
  land.set_capacity(n + 8);
  PopulationParams pop = make_population(LandArchetype::kDanceIsland);
  pop.target_unique_users = 1e-6;
  pop.session_median = 1e9;
  pop.session_min = 1e9;
  pop.session_cap = 2e9;
  auto model = std::make_unique<PoiGravityModel>(
      land, make_mobility_params(LandArchetype::kDanceIsland));
  auto world = std::make_unique<World>(std::move(land), std::move(model), pop, seed);
  world->debug_prefill(0.0, n);
  return world;
}

// Per-avatar cost of the SoA hot path (items = avatar-ticks), plus the
// steady-state allocation rate, counted by the operator-new override that is
// compiled into this binary only.
void BM_WorldTickSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto world = frozen_world(n, 7);
  Seconds now = 0.0;
  for (int t = 0; t < 10; ++t, now += 1.0) world->tick(now, 1.0);  // warm-up
  const std::size_t allocs_before = bench::allocation_count();
  for (auto _ : state) {
    world->tick(now, 1.0);
    now += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["allocs_per_tick"] =
      static_cast<double>(bench::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_WorldTickSteadyState)->Arg(1000)->Arg(10000);

// Warm packet-delivery path: coarse broadcast every tick to connected
// viewers, keepalives back, network delivery in between. allocs_per_tick
// must sit at zero once pools and scratch buffers are warm.
void BM_SimServerTickBroadcast(benchmark::State& state) {
  auto world = frozen_world(150, 9);
  SimNetwork net({}, 2);
  SimServerParams params;
  params.coarse_interval = 1.0;  // broadcast every tick
  SimServer server(net, *world, params);
  std::vector<std::unique_ptr<MetaverseClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<MetaverseClient>(
        net, server.address(), "bench" + std::to_string(i), "load"));
    clients.back()->login();
  }
  Seconds now = 0.0;
  for (int t = 0; t < 60; ++t, now += 1.0) {
    world->tick(now, 1.0);
    server.tick(now, 1.0);
    net.tick(now, 1.0);
    for (auto& c : clients) c->tick(now, 1.0);
  }
  const std::size_t allocs_before = bench::allocation_count();
  for (auto _ : state) {
    server.tick(now, 1.0);
    net.tick(now, 1.0);
    for (auto& c : clients) c->tick(now, 1.0);
    now += 1.0;
  }
  state.SetItemsProcessed(state.iterations() * 150);
  state.counters["allocs_per_tick"] =
      static_cast<double>(bench::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimServerTickBroadcast);

class NullHost : public lsl::LslHost {
 public:
  void ll_say(std::int64_t, const std::string&) override {}
  void ll_owner_say(const std::string&) override {}
  void ll_set_timer_event(double) override {}
  void ll_sensor_repeat(const std::string&, const std::string&, std::int64_t, double,
                        double, double) override {}
  Vec3 ll_get_pos() override { return {}; }
  double ll_get_time() override { return 0.0; }
  std::int64_t ll_get_unix_time() override { return 0; }
  double ll_frand(double max) override { return max / 2; }
  std::string ll_http_request(const std::string&, const lsl::List&,
                              const std::string&) override {
    return "k";
  }
  std::int64_t ll_get_free_memory() override { return 16384; }
  std::size_t detected_count() const override { return 0; }
  Vec3 detected_pos(std::size_t) const override { return {}; }
  std::string detected_key(std::size_t) const override { return {}; }
  std::string detected_name(std::size_t) const override { return {}; }
};

void BM_LslFibonacci(benchmark::State& state) {
  NullHost host;
  for (auto _ : state) {
    lsl::Interpreter interp(R"(
      integer fib(integer n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
      integer g;
      default { state_entry() { g = fib(15); } }
    )", host);
    interp.start();
    benchmark::DoNotOptimize(interp.global("g"));
  }
}
BENCHMARK(BM_LslFibonacci)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace slmob

BENCHMARK_MAIN();
