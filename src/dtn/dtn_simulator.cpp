#include "dtn/dtn_simulator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "analysis/incremental_proximity.hpp"
#include "util/rng.hpp"

namespace slmob {

const char* routing_scheme_name(RoutingScheme scheme) {
  switch (scheme) {
    case RoutingScheme::kDirectDelivery:
      return "direct";
    case RoutingScheme::kTwoHopRelay:
      return "two-hop";
    case RoutingScheme::kEpidemic:
      return "epidemic";
  }
  return "?";
}

namespace {

struct Message {
  std::uint32_t id;
  std::uint32_t src;
  std::uint32_t dst;
  Seconds created;
  Seconds expires;
};

}  // namespace

DtnResults simulate_dtn(const Trace& trace, const DtnConfig& config) {
  if (trace.empty()) throw std::invalid_argument("simulate_dtn: empty trace");
  if (config.creation_window <= 0.0 || config.creation_window > 1.0) {
    throw std::invalid_argument("simulate_dtn: creation_window must be in (0,1]");
  }
  // Checked up front, so a bad range fails on any trace, not only on one
  // where some snapshot holds a pair.
  const std::vector<double> ranges = proximity_ranges({config.range});
  DtnResults results;
  results.scheme = config.scheme;
  Rng rng(config.seed);

  const auto& snaps = trace.snapshots();
  const Seconds t0 = snaps.front().time;
  const Seconds t1 = snaps.back().time;
  const Seconds window_end = t0 + (t1 - t0) * config.creation_window;

  // Plan message creations: pick creation snapshots uniformly within the
  // window, then src/dst among users present in that snapshot.
  std::vector<std::size_t> creation_snapshots;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (snaps[i].time <= window_end && snaps[i].fixes.size() >= 2) {
      creation_snapshots.push_back(i);
    }
  }
  if (creation_snapshots.empty()) {
    throw std::invalid_argument("simulate_dtn: no usable creation snapshots");
  }

  std::map<std::size_t, std::vector<Message>> creations;  // snapshot -> messages
  std::vector<DtnMessageOutcome> outcomes(config.message_count);
  for (std::uint32_t m = 0; m < config.message_count; ++m) {
    const std::size_t snap_idx = creation_snapshots[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(creation_snapshots.size()) - 1))];
    const auto& fixes = snaps[snap_idx].fixes;
    const auto pick = [&] {
      return fixes[static_cast<std::size_t>(
                       rng.uniform_int(0, static_cast<std::int64_t>(fixes.size()) - 1))]
          .id.value;
    };
    const std::uint32_t src = pick();
    std::uint32_t dst = pick();
    for (int attempt = 0; attempt < 16 && dst == src; ++attempt) dst = pick();
    if (dst == src) continue;  // degenerate snapshot; message dropped
    Message msg{m, src, dst, snaps[snap_idx].time, snaps[snap_idx].time + config.ttl};
    creations[snap_idx].push_back(msg);
    outcomes[m] = {src, dst, msg.created, -1.0, 1};
    ++results.messages_created;
  }

  // buffers[node] = message ids carried. relays_allowed: for two-hop, only
  // the source spreads copies.
  std::map<std::uint32_t, std::set<std::uint32_t>> buffers;
  std::vector<Message> messages(config.message_count,
                                Message{0, 0, 0, 0.0, -1.0});  // by id; expires<0 = unused
  std::vector<char> delivered(config.message_count, 0);

  const auto transfer = [&](std::uint32_t from, std::uint32_t to, Seconds now) {
    auto from_it = buffers.find(from);
    if (from_it == buffers.end()) return;
    // Copy out ids first: we mutate buffers[to].
    const std::vector<std::uint32_t> carried(from_it->second.begin(),
                                             from_it->second.end());
    for (const std::uint32_t id : carried) {
      const Message& msg = messages[id];
      if (delivered[id] || msg.expires < 0.0 || now > msg.expires) continue;
      if (to == msg.dst) {
        delivered[id] = 1;
        outcomes[id].delivered = now;
        continue;
      }
      switch (config.scheme) {
        case RoutingScheme::kDirectDelivery:
          break;  // only delivery above
        case RoutingScheme::kTwoHopRelay:
          if (from == msg.src && buffers[to].insert(id).second) ++outcomes[id].copies;
          break;
        case RoutingScheme::kEpidemic:
          if (buffers[to].insert(id).second) ++outcomes[id].copies;
          break;
      }
    }
  };

  std::vector<Vec3> positions;
  std::vector<PairKernel::PairList> pairs;
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    const Snapshot& snap = snaps[s];
    // Inject messages created at this snapshot.
    if (const auto it = creations.find(s); it != creations.end()) {
      for (const Message& msg : it->second) {
        messages[msg.id] = msg;
        buffers[msg.src].insert(msg.id);
      }
    }
    if (snap.fixes.size() < 2) continue;
    snapshot_proximity(snap, ranges, positions, pairs);
    for (const auto& [i, j] : pairs[0]) {
      const std::uint32_t a = snap.fixes[i].id.value;
      const std::uint32_t b = snap.fixes[j].id.value;
      transfer(a, b, snap.time);
      transfer(b, a, snap.time);
    }
  }

  double copies_total = 0.0;
  EcdfAccumulator delays;
  for (std::uint32_t m = 0; m < config.message_count; ++m) {
    if (messages[m].expires < 0.0) continue;  // never created
    if (delivered[m]) {
      ++results.messages_delivered;
      delays.add(outcomes[m].delay());
    }
    copies_total += static_cast<double>(outcomes[m].copies);
  }
  results.delays = delays.finish();
  if (results.messages_created > 0) {
    results.delivery_ratio = static_cast<double>(results.messages_delivered) /
                             static_cast<double>(results.messages_created);
    results.mean_copies_per_message =
        copies_total / static_cast<double>(results.messages_created);
  }
  results.outcomes = std::move(outcomes);
  return results;
}

}  // namespace slmob
