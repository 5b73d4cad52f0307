// Zero-allocation gates on the warm paths: once scratch buffers, pools and
// caches have grown to their working size, a steady-state pass must not
// touch the heap. Allocations are counted by the global operator-new
// override in alloc_counter.cpp, which is linked into this binary only.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/incremental_proximity.hpp"
#include "analysis/pair_kernel.hpp"
#include "client/metaverse_client.hpp"
#include "core/experiment.hpp"
#include "frozen_world.hpp"
#include "server/sim_server.hpp"
#include "trace/journal.hpp"

namespace slmob {
namespace {

using bench::allocation_count;

// A second PairKernel::run + classify pass at {10, 80} m over a 2 h Isle of
// View crawler trace, after a first pass has grown the kernel's scratch.
TEST(WarmPath, PairKernelSecondPassDoesNotAllocate) {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.ranges = {};
  cfg.analysis_threads = 1;
  const Trace trace = run_experiment(cfg).trace;
  std::vector<std::vector<Vec3>> snaps;
  for (const Snapshot& snap : trace.snapshots()) {
    std::vector<Vec3>& pos = snaps.emplace_back();
    for (const AvatarFix& fix : snap.fixes) pos.push_back(fix.pos);
  }

  const std::vector<double> ranges{kBluetoothRange, kWifiRange};
  PairKernel kernel;
  std::vector<PairKernel::PairList> lists(ranges.size());
  std::size_t pairs = 0;
  const auto pass = [&] {
    pairs = 0;
    for (const auto& pos : snaps) {
      if (pos.empty()) continue;
      kernel.run(pos, ranges.back());
      for (auto& l : lists) l.clear();
      kernel.classify(ranges, lists.data());
      pairs += lists.back().size();
    }
  };
  pass();
  const std::size_t before = allocation_count();
  pass();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_GT(pairs, 0u);
}

// StreamingAnalyzer's per-snapshot window stage — snapshot_proximity, a
// GraphKernel::measure per radius and contact_keys for both radii at
// {10, 80} m — over a 2 h Isle of View crawler trace. Once a first pass
// has grown the thread's scratch and the per-snapshot outputs, a second
// pass must not allocate.
TEST(WarmPath, WindowStageSecondPassDoesNotAllocate) {
  ExperimentConfig cfg;
  cfg.archetype = LandArchetype::kIsleOfView;
  cfg.duration = 2.0 * kSecondsPerHour;
  cfg.ranges = {};
  cfg.analysis_threads = 1;
  const Trace trace = run_experiment(cfg).trace;

  const std::vector<double> ranges{kBluetoothRange, kWifiRange};
  std::vector<Vec3> positions;
  std::vector<PairKernel::PairList> lists;
  GraphKernel graph_kernel;
  std::vector<GraphSample> samples(ranges.size());
  std::vector<ContactKeys> keys(ranges.size());
  std::size_t edges = 0;
  std::size_t contacts = 0;
  const auto pass = [&] {
    edges = 0;
    contacts = 0;
    for (const Snapshot& snap : trace.snapshots()) {
      snapshot_proximity(snap, ranges, positions, lists);
      for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
        graph_kernel.measure(snap.fixes.size(), lists[ri], samples[ri]);
      }
      contact_keys(snap, lists, keys);
      edges += lists.back().size();
      contacts += keys.back().keys.size();
    }
  };
  pass();
  const std::size_t before = allocation_count();
  pass();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_GT(edges, 0u);
  EXPECT_GT(contacts, 0u);
}

// 300 steady-state World::ticks of a 1k-avatar frozen population.
TEST(WarmPath, WorldTickDoesNotAllocate) {
  auto world = frozen_world(1000, 42);
  Seconds now = 0.0;
  for (int t = 0; t < 10; ++t, now += 1.0) world->tick(now, 1.0);
  const std::size_t before = allocation_count();
  for (int t = 0; t < 300; ++t, now += 1.0) world->tick(now, 1.0);
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(world->concurrent(), 1000u);
}

// The packet path: a frozen world of 150 avatars, 4 connected viewers
// receiving the coarse feed and streaming keepalives back. After the login
// handshakes and a warm-up, 300 ticks of server, network and clients must
// not allocate.
TEST(WarmPath, PacketPathDoesNotAllocate) {
  auto world = frozen_world(150, 42);
  SimNetwork net({}, 43);
  SimServerParams params;
  params.coarse_interval = 1.0;  // a coarse broadcast on every tick
  SimServer server(net, *world, params);
  std::vector<std::unique_ptr<MetaverseClient>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<MetaverseClient>(net, server.address(),
                                                        "viewer" + std::to_string(i), "load"));
    clients.back()->login();
  }
  const auto packet_tick = [&](Seconds t) {
    server.tick(t, 1.0);
    net.tick(t, 1.0);
    for (auto& c : clients) c->tick(t, 1.0);
  };
  Seconds now = 0.0;
  for (; now < 120.0; now += 1.0) {
    world->tick(now, 1.0);
    packet_tick(now);
  }
  for (const auto& c : clients) ASSERT_TRUE(c->connected());

  const std::size_t coarse_before = server.stats().coarse_updates_sent;
  std::size_t packet_allocs = 0;
  for (int t = 0; t < 300; ++t, now += 1.0) {
    world->tick(now, 1.0);
    const std::size_t before = allocation_count();
    packet_tick(now);
    packet_allocs += allocation_count() - before;
  }
  EXPECT_EQ(packet_allocs, 0u);
  EXPECT_GT(server.stats().coarse_updates_sent, coarse_before);
}

// A journal writer's second pass of snapshot, gap and degradation appends,
// after the first has grown its frame buffer, must not allocate.
TEST(WarmPath, JournalAppendDoesNotAllocate) {
  const std::string path = ::testing::TempDir() + "/warm_path_journal.sltj";
  TraceJournalWriter writer(path, 1000.0);
  writer.begin("land", 10.0);
  Snapshot snap;
  for (std::uint32_t i = 0; i < 100; ++i) {
    snap.fixes.push_back({AvatarId{i}, {1.0 * i, 2.0 * i, 22.0}});
  }
  const auto pass = [&](Seconds t0) {
    snap.time = t0;
    writer.append_snapshot(snap);
    writer.append_gap_open(t0 + 10.0);
    writer.append_gap_close(t0 + 10.0, t0 + 20.0);
    writer.append_degrade_open(t0 + 20.0, 2);
    writer.append_degrade_close(t0 + 20.0, t0 + 40.0, 2);
  };
  pass(0.0);
  const std::size_t before = allocation_count();
  pass(100.0);
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_GT(writer.offset(), kJournalHeaderBytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slmob
