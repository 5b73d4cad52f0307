#include "trace/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/stream.hpp"

namespace slmob {

std::optional<Vec3> Snapshot::find(AvatarId id) const {
  for (const auto& fix : fixes) {
    if (fix.id == id) return fix.pos;
  }
  return std::nullopt;
}

void Trace::add(Snapshot snapshot) {
  if (!snapshots_.empty() && snapshot.time < snapshots_.back().time) {
    throw std::invalid_argument("Trace::add: snapshots must be time-ordered");
  }
  snapshots_.push_back(std::move(snapshot));
}

void Trace::add_gap(Seconds start, Seconds end) {
  if (!(start < end)) {
    throw std::invalid_argument("Trace::add_gap: gap must have start < end");
  }
  if (!gaps_.empty() && start < gaps_.back().end) {
    throw std::invalid_argument("Trace::add_gap: gaps must be ordered and disjoint");
  }
  gaps_.push_back({start, end});
}

void Trace::add_degradation(Seconds start, Seconds end, std::uint32_t factor) {
  if (!(start < end)) {
    throw std::invalid_argument("Trace::add_degradation: window must have start < end");
  }
  if (factor < 2) {
    throw std::invalid_argument("Trace::add_degradation: factor must be >= 2");
  }
  if (!degradations_.empty() && start < degradations_.back().end) {
    throw std::invalid_argument(
        "Trace::add_degradation: windows must be ordered and disjoint");
  }
  degradations_.push_back({start, end, factor});
}

std::uint32_t Trace::degradation_factor_at(Seconds t) const {
  for (const auto& d : degradations_) {
    if (d.contains(t)) return d.factor;
    if (d.start > t) break;  // windows are ordered
  }
  return 1;
}

Seconds Trace::degraded_seconds() const {
  Seconds total = 0.0;
  for (const auto& d : degradations_) total += d.length();
  return total;
}

bool Trace::covered_at(Seconds t) const {
  for (const auto& gap : gaps_) {
    if (gap.contains(t)) return false;
    if (gap.start > t) break;  // gaps are ordered
  }
  return true;
}

bool Trace::spans_gap(Seconds t0, Seconds t1) const {
  for (const auto& gap : gaps_) {
    if (gap.start < t1 && gap.end > t0) return true;
    if (gap.start >= t1) break;
  }
  return false;
}

Seconds Trace::gap_seconds() const {
  Seconds total = 0.0;
  for (const auto& gap : gaps_) total += gap.length();
  return total;
}

TraceSummary Trace::summary() const {
  MemoryTraceStream stream(*this);
  return summarize(stream);
}

Trace Trace::slice(Seconds t0, Seconds t1) const {
  Trace out(land_name_, sampling_interval_);
  for (const auto& snap : snapshots_) {
    if (snap.time >= t0 && snap.time < t1) out.add(snap);
  }
  for (const auto& gap : gaps_) {
    const Seconds start = std::max(gap.start, t0);
    const Seconds end = std::min(gap.end, t1);
    if (start < end) out.add_gap(start, end);
  }
  for (const auto& d : degradations_) {
    const Seconds start = std::max(d.start, t0);
    const Seconds end = std::min(d.end, t1);
    if (start < end) out.add_degradation(start, end, d.factor);
  }
  return out;
}

std::size_t Trace::strip_sitting_fixes() {
  std::size_t dropped = 0;
  for (auto& snap : snapshots_) {
    const auto is_origin = [](const AvatarFix& f) {
      return f.pos.x == 0.0 && f.pos.y == 0.0 && f.pos.z == 0.0;
    };
    const auto before = snap.fixes.size();
    snap.fixes.erase(std::remove_if(snap.fixes.begin(), snap.fixes.end(), is_origin),
                     snap.fixes.end());
    dropped += before - snap.fixes.size();
  }
  return dropped;
}

}  // namespace slmob
