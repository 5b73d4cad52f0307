#include "net/fault_schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace slmob {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kBurstLoss: return "burst-loss";
    case FaultKind::kLatencySpike: return "latency-spike";
    case FaultKind::kPartitionInbound: return "partition-inbound";
    case FaultKind::kPartitionOutbound: return "partition-outbound";
    case FaultKind::kRegionCrash: return "region-crash";
    case FaultKind::kCapacityFlap: return "capacity-flap";
    case FaultKind::kCollectorCrash: return "collector-crash";
    case FaultKind::kCollectorSlow: return "collector-slow";
    case FaultKind::kFlashCrowd: return "flash-crowd";
    case FaultKind::kShardCrash: return "shard-crash";
    case FaultKind::kShardStall: return "shard-stall";
    case FaultKind::kCheckpointTear: return "checkpoint-tear";
  }
  return "unknown";
}

void FaultSchedule::add(FaultWindow window) {
  if (window.start < 0.0 || window.end <= window.start) {
    throw std::invalid_argument("FaultSchedule::add: window must have 0 <= start < end");
  }
  if ((window.kind == FaultKind::kBurstLoss || window.kind == FaultKind::kCapacityFlap) &&
      (window.magnitude < 0.0 || window.magnitude > 1.0)) {
    throw std::invalid_argument("FaultSchedule::add: magnitude must be in [0,1]");
  }
  if ((window.kind == FaultKind::kLatencySpike || window.kind == FaultKind::kCollectorSlow) &&
      window.magnitude < 0.0) {
    throw std::invalid_argument("FaultSchedule::add: latency spike must be >= 0");
  }
  if (window.kind == FaultKind::kFlashCrowd && window.magnitude < 1.0) {
    throw std::invalid_argument("FaultSchedule::add: flash-crowd factor must be >= 1");
  }
  windows_.push_back(window);
}

bool FaultSchedule::drops_datagram(Seconds t, NodeId from, NodeId to) const {
  for (const auto& w : windows_) {
    if (!w.active_at(t)) continue;
    switch (w.kind) {
      case FaultKind::kBlackout:
        return true;
      case FaultKind::kPartitionInbound:
        if (!w.node || *w.node == to) return true;
        break;
      case FaultKind::kPartitionOutbound:
        if (!w.node || *w.node == from) return true;
        break;
      default:
        break;
    }
  }
  return false;
}

double FaultSchedule::extra_loss_at(Seconds t) const {
  double pass = 1.0;
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kBurstLoss && w.active_at(t)) pass *= 1.0 - w.magnitude;
  }
  return 1.0 - pass;
}

Seconds FaultSchedule::extra_latency_at(Seconds t) const {
  Seconds extra = 0.0;
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kLatencySpike && w.active_at(t)) extra += w.magnitude;
  }
  return extra;
}

bool FaultSchedule::region_down_at(Seconds t) const {
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kRegionCrash && w.active_at(t)) return true;
  }
  return false;
}

double FaultSchedule::capacity_factor_at(Seconds t) const {
  double factor = 1.0;
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kCapacityFlap && w.active_at(t)) {
      factor = std::min(factor, w.magnitude);
    }
  }
  return factor;
}

bool FaultSchedule::collector_down_at(Seconds t) const {
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kCollectorCrash && w.active_at(t)) return true;
  }
  return false;
}

Seconds FaultSchedule::collector_delay_at(Seconds t) const {
  Seconds extra = 0.0;
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kCollectorSlow && w.active_at(t)) extra += w.magnitude;
  }
  return extra;
}

double FaultSchedule::flash_crowd_factor_at(Seconds t) const {
  double factor = 1.0;
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kFlashCrowd && w.active_at(t)) {
      factor = std::max(factor, w.magnitude);
    }
  }
  return factor;
}

std::vector<FaultWindow> FaultSchedule::shard_faults() const {
  std::vector<FaultWindow> out;
  for (const auto& w : windows_) {
    if (w.kind == FaultKind::kShardCrash || w.kind == FaultKind::kShardStall ||
        w.kind == FaultKind::kCheckpointTear) {
      out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FaultWindow& a, const FaultWindow& b) { return a.start < b.start; });
  return out;
}

std::vector<FaultWindow> FaultSchedule::windows_of(FaultKind kind) const {
  std::vector<FaultWindow> out;
  for (const auto& w : windows_) {
    if (w.kind == kind) out.push_back(w);
  }
  std::sort(out.begin(), out.end(),
            [](const FaultWindow& a, const FaultWindow& b) { return a.start < b.start; });
  return out;
}

namespace {

// Scripted pair of 10-minute transport blackouts at 1/3 and 2/3 of the run
// (the ISSUE's canonical scenario). Short runs shrink the outage so the
// schedule stays valid down to a few minutes of virtual time.
void add_blackouts(FaultSchedule& s, Seconds duration) {
  const Seconds outage = std::min(600.0, duration / 6.0);
  if (outage <= 0.0) return;
  s.add({FaultKind::kBlackout, duration / 3.0, duration / 3.0 + outage, 1.0, {}});
  s.add({FaultKind::kBlackout, 2.0 * duration / 3.0, 2.0 * duration / 3.0 + outage, 1.0, {}});
}

// Seeded loss bursts: on average one per 40 minutes, 60-180 s long, at
// 60-95 % loss, with a 60 s latency spike riding the first burst.
void add_bursts(FaultSchedule& s, Seconds duration, Rng& rng) {
  Seconds t = rng.exponential(1200.0);
  bool first = true;
  while (t < duration) {
    const Seconds len = rng.uniform(60.0, 180.0);
    const double rate = rng.uniform(0.6, 0.95);
    const Seconds end = std::min(t + len, duration);
    if (end > t) {
      s.add({FaultKind::kBurstLoss, t, end, rate, {}});
      if (first) {
        s.add({FaultKind::kLatencySpike, t, std::min(t + 60.0, duration), 1.5, {}});
        first = false;
      }
    }
    t = end + rng.exponential(2400.0);
  }
}

// Seeded region instability: crashes (30-120 s down) on average one per
// hour, plus one long half-capacity flap over the middle of the run.
void add_region_flaps(FaultSchedule& s, Seconds duration, Rng& rng) {
  Seconds t = rng.exponential(1800.0);
  while (t < duration) {
    const Seconds down = rng.uniform(30.0, 120.0);
    const Seconds end = std::min(t + down, duration);
    if (end > t) s.add({FaultKind::kRegionCrash, t, end, 1.0, {}});
    t = end + rng.exponential(3600.0);
  }
  const Seconds flap_len = duration / 4.0;
  if (flap_len > 0.0) {
    s.add({FaultKind::kCapacityFlap, duration * 0.375, duration * 0.375 + flap_len, 0.5, {}});
  }
}

// Scripted pair of collector outages (the paper's external web server going
// away) at 1/4 and 5/8 of the run, up to 5 minutes each. Sensors keep
// sweeping; flushes time out (408) and are retried until the collector is
// back, exercising the at-least-once-with-dedup path.
// Scripted shard-process faults for supervised runs: three crashes and one
// stall spread across the run. No RNG — appended after the seeded builders
// so the transport/server windows of "chaos" are byte-identical with and
// without the shard faults.
void add_shard_faults(FaultSchedule& s, Seconds duration) {
  for (const double frac : {0.30, 0.55, 0.80}) {
    s.add({FaultKind::kShardCrash, duration * frac, duration * frac + 1.0, 1.0, {}});
  }
  s.add({FaultKind::kShardStall, duration * 0.45, duration * 0.45 + 1.0, 1.0, {}});
}

void add_collector_crashes(FaultSchedule& s, Seconds duration) {
  const Seconds outage = std::min(300.0, duration / 8.0);
  if (outage <= 0.0) return;
  s.add({FaultKind::kCollectorCrash, duration * 0.25, duration * 0.25 + outage, 1.0, {}});
  s.add({FaultKind::kCollectorCrash, duration * 0.625, duration * 0.625 + outage, 1.0, {}});
}

// Load-spike scenario: a 10x flash crowd over the middle third of the run
// while the collector answers slowly — the two pressures the paper's rig met
// at Isle of View-class events. Scripted without RNG so the window edges are
// exact fractions of the duration (bench gates key off them).
void add_overload(FaultSchedule& s, Seconds duration) {
  const Seconds surge_start = duration / 3.0;
  const Seconds surge_end = 2.0 * duration / 3.0;
  if (surge_end <= surge_start) return;
  s.add({FaultKind::kFlashCrowd, surge_start, surge_end, 10.0, {}});
  // Saturation inflates queueing delay: every delivery in the surge window
  // carries extra seconds, so the in-flight population grows with load
  // (depth ~ rate x delay) and a bounded in-flight queue starts shedding its
  // snapshot class — the congestion face of the same overload the flash
  // crowd models. 25 s is bufferbloat territory, deliberately: the rig's
  // steady send rate is low, and the point of the scenario is to drive the
  // queue into its bound, not to simulate a mildly busy evening.
  s.add({FaultKind::kLatencySpike, surge_start, surge_end, 25.0, {}});
  // The slow collector starts slightly before the crowd and lingers after it:
  // a saturated web server does not recover the instant arrivals drop. The
  // 12 s delay deliberately exceeds the sensors' 10 s HTTP timeout, so
  // in-window flushes time out (and widen) instead of merely arriving late.
  const Seconds slow_start = std::max(0.0, surge_start - duration / 12.0);
  const Seconds slow_end = std::min(duration, surge_end + duration / 12.0);
  s.add({FaultKind::kCollectorSlow, slow_start, slow_end, 12.0, {}});
}

}  // namespace

FaultSchedule FaultSchedule::scenario(const std::string& name, Seconds duration,
                                      std::uint64_t seed) {
  if (duration <= 0.0) {
    throw std::invalid_argument("FaultSchedule::scenario: duration must be > 0");
  }
  FaultSchedule s;
  Rng rng(seed ^ 0xfa017c4ed5ca1eULL);
  if (name == "none") {
    return s;
  }
  if (name == "blackouts") {
    add_blackouts(s, duration);
    return s;
  }
  if (name == "burst-loss") {
    add_bursts(s, duration, rng);
    return s;
  }
  if (name == "region-flaps") {
    add_region_flaps(s, duration, rng);
    return s;
  }
  if (name == "collector-crash") {
    add_collector_crashes(s, duration);
    return s;
  }
  if (name == "overload") {
    add_overload(s, duration);
    return s;
  }
  if (name == "chaos") {
    add_blackouts(s, duration);
    add_bursts(s, duration, rng);
    add_region_flaps(s, duration, rng);
    return s;
  }
  if (name == "shard-chaos") {
    add_blackouts(s, duration);
    add_bursts(s, duration, rng);
    add_region_flaps(s, duration, rng);
    add_shard_faults(s, duration);
    return s;
  }
  throw std::invalid_argument("FaultSchedule::scenario: unknown scenario '" + name + "'");
}

const std::vector<std::string>& FaultSchedule::scenario_names() {
  static const std::vector<std::string> names{"none",         "blackouts",
                                              "burst-loss",   "region-flaps",
                                              "collector-crash", "overload",
                                              "chaos",        "shard-chaos"};
  return names;
}

}  // namespace slmob
