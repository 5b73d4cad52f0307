// FaultSchedule: deterministic, scripted fault injection for the whole
// measurement rig.
//
// The paper's two architectures are defined by how they fail: sensor objects
// expire and throttle, and the crawler gets logged out and must re-login,
// leaving holes in the trace (La & Michiardi §2 blame libsecondlife
// instabilities for interrupted long traces). A FaultSchedule scripts those
// outages as explicit time windows — transport blackouts, loss bursts,
// latency spikes, one-way partitions, region crashes and capacity flaps —
// so a chaos run is exactly reproducible from its seed and every component
// (SimNetwork, SimServer) degrades on the same clock.
//
// The schedule itself is pure data: components query it with the current
// virtual time. An empty schedule is free — fault-free runs take the exact
// code paths (and RNG draws) they always did.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace slmob {

using NodeId = std::uint32_t;

enum class FaultKind : std::uint8_t {
  // Transport faults (consumed by SimNetwork):
  kBlackout,           // every datagram sent during the window is dropped
  kBurstLoss,          // additional i.i.d. loss at rate `magnitude`
  kLatencySpike,       // `magnitude` seconds added to each delivery
  kPartitionInbound,   // datagrams TO `node` are dropped (one-way partition)
  kPartitionOutbound,  // datagrams FROM `node` are dropped
  // Server faults (consumed by SimServer):
  kRegionCrash,        // sessions dropped, logins refused until the window ends
  kCapacityFlap,       // admission capacity scaled by `magnitude` in [0,1]
  // Collector faults (consumed by HttpCollector):
  kCollectorCrash,     // the web collector is down: requests vanish, no ack
  kCollectorSlow,      // responses delayed by `magnitude` seconds (saturated web
                       // server); sensors keep their requests pending longer
  // Load faults (consumed by World via Testbed):
  kFlashCrowd,         // arrival rate multiplied by `magnitude` (event surge)
  // Process faults (consumed by the run supervisor, core/supervisor.hpp;
  // invisible to network/server/collector — an unsupervised run ignores
  // them entirely):
  kShardCrash,         // the shard's process dies when it reaches `start`
  kShardStall,         // the shard wedges at `start` until the watchdog kills it
  kCheckpointTear,     // the shard's newest `magnitude` checkpoint generations
                       // (1 or 2) are torn on disk at `start`
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

// One scheduled fault: active over [start, end).
struct FaultWindow {
  FaultKind kind{FaultKind::kBlackout};
  Seconds start{0.0};
  Seconds end{0.0};
  // kBurstLoss: loss rate in [0,1]; kLatencySpike: added seconds;
  // kCapacityFlap: capacity factor in [0,1]; kCheckpointTear: generations
  // torn. Ignored otherwise.
  double magnitude{1.0};
  // Partition target; a partition window without a node drops everything in
  // the given direction (equivalent to a blackout).
  std::optional<NodeId> node;

  FaultWindow() = default;
  FaultWindow(FaultKind k, Seconds s, Seconds e, double m = 1.0,
              std::optional<NodeId> n = std::nullopt)
      : kind(k), start(s), end(e), magnitude(m), node(n) {}

  [[nodiscard]] bool active_at(Seconds t) const { return t >= start && t < end; }
};

class FaultSchedule {
 public:
  FaultSchedule() = default;

  // Appends a window; throws std::invalid_argument on end <= start, a
  // negative start, or an out-of-range magnitude for the kind.
  void add(FaultWindow window);

  [[nodiscard]] bool empty() const { return windows_.empty(); }
  [[nodiscard]] const std::vector<FaultWindow>& windows() const { return windows_; }

  // --- Transport queries (SimNetwork::send) ---------------------------------
  // True when a blackout or a matching partition window covers `t`.
  [[nodiscard]] bool drops_datagram(Seconds t, NodeId from, NodeId to) const;
  // Combined burst-loss probability at `t` (independent windows compose as
  // 1 - prod(1 - p)); 0 outside every burst window.
  [[nodiscard]] double extra_loss_at(Seconds t) const;
  // Summed latency-spike seconds at `t`.
  [[nodiscard]] Seconds extra_latency_at(Seconds t) const;

  // --- Server queries (SimServer::tick / handle_login) ----------------------
  [[nodiscard]] bool region_down_at(Seconds t) const;
  // Smallest active capacity factor at `t`; 1.0 when no flap is active.
  [[nodiscard]] double capacity_factor_at(Seconds t) const;

  // --- Collector queries (HttpCollector) ------------------------------------
  // True while a kCollectorCrash window covers `t`: the collector neither
  // records nor acknowledges, so sensors see a 408 and must retry.
  [[nodiscard]] bool collector_down_at(Seconds t) const;
  // Summed kCollectorSlow delay seconds at `t`; 0 outside every window.
  [[nodiscard]] Seconds collector_delay_at(Seconds t) const;

  // --- Load queries (World, via Testbed) ------------------------------------
  // Largest active kFlashCrowd arrival multiplier at `t`; 1.0 when no surge
  // window is active.
  [[nodiscard]] double flash_crowd_factor_at(Seconds t) const;

  // --- Supervisor queries (core/supervisor.hpp) -----------------------------
  // Shard-process fault windows (kShardCrash, kShardStall, kCheckpointTear)
  // merged in start order. Each fires at most once per run: the supervisor injects the fault
  // when the shard first reaches `start` and never re-arms it after the
  // restart, mirroring a real crash that does not recur on replay.
  [[nodiscard]] std::vector<FaultWindow> shard_faults() const;

  // Windows of the given kind, in start order (used by tests to
  // cross-check recorded coverage gaps against the script).
  [[nodiscard]] std::vector<FaultWindow> windows_of(FaultKind kind) const;

  // --- Named chaos scenarios ------------------------------------------------
  // Deterministic scenario builders over a run of `duration` seconds:
  //   "blackouts"        two 10-minute transport blackouts at 1/3 and 2/3 of the run
  //   "burst-loss"       seeded ~heavy-loss bursts (60-180 s at 60-95 % loss)
  //   "region-flaps"     seeded region crashes (30-120 s down) + capacity flaps
  //   "collector-crash"  two collector outages at 1/4 and 5/8 of the run
  //   "overload"         flash-crowd avatar surge (10x arrivals over the middle
  //                      third) riding a slow collector — the load-spike
  //                      scenario gated by OverloadScenario.* (test_overload)
  //   "chaos"            all the transport/server faults mixed, seeded
  //   "shard-chaos"      chaos + scripted shard crashes (30/55/80 % of the
  //                      run) and one shard stall (45 %) — only meaningful
  //                      under the run supervisor
  // Throws std::invalid_argument for an unknown name. The same (name,
  // duration, seed) triple always yields the same schedule.
  static FaultSchedule scenario(const std::string& name, Seconds duration,
                                std::uint64_t seed);
  static const std::vector<std::string>& scenario_names();

 private:
  std::vector<FaultWindow> windows_;
};

}  // namespace slmob
