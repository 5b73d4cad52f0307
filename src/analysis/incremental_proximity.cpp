#include "analysis/incremental_proximity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace slmob {

IncrementalProximity::IncrementalProximity(std::vector<double> ranges,
                                           double churn_threshold)
    : ranges_(std::move(ranges)), churn_threshold_(churn_threshold) {
  std::sort(ranges_.begin(), ranges_.end());
  ranges_.erase(std::unique(ranges_.begin(), ranges_.end()), ranges_.end());
  for (const double r : ranges_) {
    if (!(r > 0.0) || !std::isfinite(r)) {
      throw std::invalid_argument("IncrementalProximity: ranges must be positive and finite");
    }
  }
  if (!ranges_.empty()) cell_ = ranges_.back();
  lists_.resize(ranges_.size());
}

std::size_t IncrementalProximity::range_index(double range) const {
  const auto it = std::lower_bound(ranges_.begin(), ranges_.end(), range);
  if (it == ranges_.end() || *it != range) {
    throw std::invalid_argument("IncrementalProximity: range was not requested at construction");
  }
  return static_cast<std::size_t>(it - ranges_.begin());
}

std::uint64_t IncrementalProximity::pack(std::int32_t cx, std::int32_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
}

std::int32_t IncrementalProximity::cell_of(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_));
}

void IncrementalProximity::advance(const Snapshot& snapshot) {
  const auto& fixes = snapshot.fixes;
  const std::size_t n = fixes.size();

  positions_.clear();
  positions_.reserve(n);
  for (const auto& fix : fixes) positions_.push_back(fix.pos);
  if (ranges_.empty()) return;

  ++epoch_;
  fix_slot_.assign(n, kNoSlot);

  // Classify this snapshot's fixes against the persistent state.
  std::size_t matched = 0;
  std::size_t moved = 0;
  std::size_t entered = 0;
  bool duplicate_ids = false;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = slot_of_.find(fixes[i].id.value);
    if (it == slot_of_.end()) {
      ++entered;
      continue;
    }
    const std::uint32_t s = it->second;
    if (seen_epoch_[s] == epoch_) {
      duplicate_ids = true;
      break;
    }
    seen_epoch_[s] = epoch_;
    fix_slot_[i] = s;
    ++matched;
    if (!(slots_[s].pos == fixes[i].pos)) ++moved;
  }
  if (!duplicate_ids && entered > 1) {
    std::unordered_set<std::uint32_t> fresh;
    fresh.reserve(entered);
    for (std::size_t i = 0; i < n && !duplicate_ids; ++i) {
      if (fix_slot_[i] == kNoSlot && !fresh.insert(fixes[i].id.value).second) {
        duplicate_ids = true;
      }
    }
  }
  if (duplicate_ids) {
    // Two fixes sharing an id cannot live in the id-keyed slot state; answer
    // this snapshot from a one-off kernel pass and reseed on the next one.
    transient_snapshot();
    reset_state();
    ++rebuilds_;
    return;
  }

  const std::size_t departed = valid_ ? active_.size() - matched : 0;
  const std::size_t basis =
      std::max({n, valid_ ? active_.size() : std::size_t{0}, std::size_t{1}});
  const bool rebuild =
      !valid_ || static_cast<double>(entered + departed + moved) >
                     churn_threshold_ * static_cast<double>(basis);
  if (rebuild) {
    full_rebuild(snapshot);
    ++rebuilds_;
  } else {
    delta_update(snapshot);
    ++delta_updates_;
  }
  emit_lists(snapshot);
}

void IncrementalProximity::reset_state() {
  valid_ = false;
  slots_.clear();
  adj_.clear();
  free_.clear();
  slot_of_.clear();
  cells_.clear();
  active_.clear();
  seen_epoch_.clear();
  dirty_epoch_.clear();
  dirty_rank_.clear();
}

void IncrementalProximity::full_rebuild(const Snapshot& snapshot) {
  const auto& fixes = snapshot.fixes;
  const std::uint32_t n = static_cast<std::uint32_t>(fixes.size());

  reset_state();
  slots_.resize(n);
  adj_.assign(n, {});
  seen_epoch_.assign(n, epoch_);
  dirty_epoch_.assign(n, 0);
  dirty_rank_.assign(n, 0);
  active_.resize(n);
  slot_of_.reserve(n);
  cells_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Slot& s = slots_[i];
    s.id = fixes[i].id;
    s.pos = fixes[i].pos;
    s.cx = cell_of(s.pos.x);
    s.cy = cell_of(s.pos.y);
    cells_[pack(s.cx, s.cy)].push_back(i);
    slot_of_.emplace(s.id.value, i);
    fix_slot_[i] = i;
    active_[i] = i;
  }
  // Slot index == fix index after a rebuild, so the kernel's hits map
  // straight onto edges. std::sqrt of the recorded dist² is bit-identical to
  // the distance2d_to value the cell rescan on the delta path computes.
  kernel_.run(positions_, cell_);
  for (const PairKernel::Hit& h : kernel_.hits()) {
    add_edge(h.i, h.j, std::sqrt(h.d2));
  }
  valid_ = true;
}

void IncrementalProximity::add_edge(std::uint32_t a, std::uint32_t b,
                                    double distance) {
  adj_[a].push_back({b, static_cast<std::uint32_t>(adj_[b].size()), distance});
  adj_[b].push_back(
      {a, static_cast<std::uint32_t>(adj_[a].size()) - 1, distance});
}

void IncrementalProximity::remove_adjacency(std::uint32_t slot) {
  // There is at most one edge per pair and never a self-edge, so the entry
  // swapped into the vacated position can never belong to `slot` — the loop
  // only ever mutates peers' lists, and adj_[slot] stays stable under it.
  for (const Edge& e : adj_[slot]) {
    auto& peer_edges = adj_[e.peer];
    const std::uint32_t k = e.twin;
    peer_edges[k] = peer_edges.back();
    peer_edges.pop_back();
    if (k < peer_edges.size()) {
      const Edge& moved = peer_edges[k];
      adj_[moved.peer][moved.twin].twin = k;
    }
  }
  adj_[slot].clear();
}

void IncrementalProximity::remove_from_cell(std::uint32_t slot) {
  const auto it = cells_.find(pack(slots_[slot].cx, slots_[slot].cy));
  auto& list = it->second;
  for (std::size_t k = 0; k < list.size(); ++k) {
    if (list[k] == slot) {
      list[k] = list.back();
      list.pop_back();
      break;
    }
  }
  if (list.empty()) cells_.erase(it);
}

void IncrementalProximity::mark_dirty(std::uint32_t slot) {
  dirty_epoch_[slot] = epoch_;
  dirty_rank_[slot] = static_cast<std::uint32_t>(dirty_.size());
  dirty_.push_back(slot);
}

std::uint32_t IncrementalProximity::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  const std::uint32_t s = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  adj_.emplace_back();
  seen_epoch_.push_back(0);
  dirty_epoch_.push_back(0);
  dirty_rank_.push_back(0);
  return s;
}

void IncrementalProximity::delta_update(const Snapshot& snapshot) {
  const auto& fixes = snapshot.fixes;
  const std::size_t n = fixes.size();
  dirty_.clear();

  // 1. Departures: slots live last snapshot but absent from this one. Their
  // edges must go first so a freed slot reused below starts clean.
  for (const std::uint32_t s : active_) {
    if (seen_epoch_[s] == epoch_) continue;
    remove_adjacency(s);
    remove_from_cell(s);
    slot_of_.erase(slots_[s].id.value);
    free_.push_back(s);
  }

  // 2. Moves: drop stale edges, re-home the cell entry, update the position.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t s = fix_slot_[i];
    if (s == kNoSlot || slots_[s].pos == fixes[i].pos) continue;
    remove_adjacency(s);
    const std::int32_t cx = cell_of(fixes[i].pos.x);
    const std::int32_t cy = cell_of(fixes[i].pos.y);
    if (cx != slots_[s].cx || cy != slots_[s].cy) {
      remove_from_cell(s);
      slots_[s].cx = cx;
      slots_[s].cy = cy;
      cells_[pack(cx, cy)].push_back(s);
    }
    slots_[s].pos = fixes[i].pos;
    mark_dirty(s);
  }

  // 3. Arrivals.
  for (std::size_t i = 0; i < n; ++i) {
    if (fix_slot_[i] != kNoSlot) continue;
    const std::uint32_t s = alloc_slot();
    Slot& slot = slots_[s];
    slot.id = fixes[i].id;
    slot.pos = fixes[i].pos;
    slot.cx = cell_of(slot.pos.x);
    slot.cy = cell_of(slot.pos.y);
    cells_[pack(slot.cx, slot.cy)].push_back(s);
    slot_of_.emplace(slot.id.value, s);
    seen_epoch_[s] = epoch_;
    fix_slot_[i] = s;
    mark_dirty(s);
  }

  // 4. Rescan: every dirty slot re-derives its edges from the 3x3 cell
  // block. A dirty-dirty pair would be found twice; the rank check keeps
  // only the discovery from the earlier-marked slot.
  for (const std::uint32_t s : dirty_) {
    const Slot& a = slots_[s];
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        const auto it = cells_.find(pack(a.cx + dx, a.cy + dy));
        if (it == cells_.end()) continue;
        for (const std::uint32_t t : it->second) {
          if (t == s) continue;
          if (dirty_epoch_[t] == epoch_ && dirty_rank_[t] < dirty_rank_[s]) continue;
          const double d = a.pos.distance2d_to(slots_[t].pos);
          if (d <= cell_) add_edge(s, t, d);
        }
      }
    }
  }

  active_.resize(n);
  for (std::size_t i = 0; i < n; ++i) active_[i] = fix_slot_[i];
}

void IncrementalProximity::emit_lists(const Snapshot& snapshot) {
  const std::size_t n = snapshot.fixes.size();
  for (auto& list : lists_) list.clear();
  if (n == 0) return;
  fix_of_slot_.resize(slots_.size());
  for (std::size_t i = 0; i < n; ++i) {
    fix_of_slot_[fix_slot_[i]] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t fi = static_cast<std::uint32_t>(i);
    for (const Edge& e : adj_[fix_slot_[i]]) {
      const std::uint32_t fj = fix_of_slot_[e.peer];
      if (fj <= fi) continue;
      for (std::size_t ri = 0; ri < ranges_.size(); ++ri) {
        if (e.distance <= ranges_[ri]) lists_[ri].emplace_back(fi, fj);
      }
    }
  }
}

void IncrementalProximity::transient_snapshot() {
  // One kernel pass over the raw fix list; handles duplicate ids because it
  // never keys by id. positions_ was already filled by advance().
  for (auto& list : lists_) list.clear();
  kernel_.run(positions_, cell_);
  kernel_.classify(ranges_, lists_.data());
}

}  // namespace slmob
