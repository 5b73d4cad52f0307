#include "trace/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/stream.hpp"

namespace slmob {

void Trace::add(Snapshot snapshot) {
  if (!snapshots_.empty() && snapshot.time < snapshots_.back().time) {
    throw std::invalid_argument("Trace::add: snapshots must be time-ordered");
  }
  snapshots_.push_back(std::move(snapshot));
}

TraceSummary Trace::summary() const {
  MemoryTraceStream stream(*this);
  return summarize(stream);
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

// ---------------------------------------------------------------------------
// GapTracker

bool GapTracker::admits(const CoverageGap& gap) const {
  return gap.start < gap.end && (gaps_.empty() || gap.start >= gaps_.back().end);
}

void GapTracker::add(Seconds start, Seconds end) {
  if (!admits({start, end})) {
    throw std::invalid_argument("GapTracker::add: gaps must be non-empty, ordered and disjoint");
  }
  gaps_.push_back({start, end});
}

bool GapTracker::covered_at(Seconds t) const {
  for (const auto& gap : gaps_) {
    if (gap.contains(t)) return false;
    if (gap.start > t) break;  // gaps are ordered
  }
  return true;
}

bool GapTracker::spans_gap(Seconds t0, Seconds t1) const {
  for (const auto& gap : gaps_) {
    if (gap.start < t1 && gap.end > t0) return true;
    if (gap.start >= t1) break;
  }
  return false;
}

Seconds GapTracker::next_gap_start(Seconds t) const {
  for (const auto& gap : gaps_) {
    if (gap.end > t) return gap.start;
  }
  return t;
}

Seconds GapTracker::gap_seconds() const {
  Seconds total = 0.0;
  for (const auto& gap : gaps_) total += gap.length();
  return total;
}

// ---------------------------------------------------------------------------
// DegradationWindows

bool DegradationWindows::admits(const SamplingDegradation& window) const {
  return window.start < window.end && window.factor >= 2 &&
         (windows_.empty() || window.start >= windows_.back().end);
}

void DegradationWindows::add(const SamplingDegradation& window) {
  if (!admits(window)) {
    throw std::invalid_argument(
        "DegradationWindows::add: windows must be non-empty, ordered, disjoint and have "
        "factor >= 2");
  }
  windows_.push_back(window);
}

Seconds DegradationWindows::degraded_seconds() const {
  Seconds total = 0.0;
  for (const auto& w : windows_) total += w.length();
  return total;
}

}  // namespace slmob
