// Mobility traces.
//
// A Trace is what the crawler produces and what every analysis consumes: a
// time-ordered sequence of snapshots, each listing the position of every
// avatar seen on the target land at that instant. This mirrors the paper's
// methodology (snapshot every tau = 10 s of all users on the land).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"
#include "util/vec3.hpp"

namespace slmob {

// One avatar position fix inside a snapshot.
struct AvatarFix {
  AvatarId id;
  Vec3 pos;
};

// All avatars observed on the land at one instant.
struct Snapshot {
  Seconds time{0.0};
  std::vector<AvatarFix> fixes;
};

// A half-open interval [start, end) during which the crawler could not
// observe the land (disconnected, mid-relogin, or feeding on stale data).
// Analyses must treat these as censoring boundaries: nothing may be inferred
// about presence, contacts or positions inside a gap.
struct CoverageGap {
  Seconds start{0.0};
  Seconds end{0.0};

  [[nodiscard]] Seconds length() const { return end - start; }
  [[nodiscard]] bool contains(Seconds t) const { return t >= start && t < end; }
  friend bool operator==(const CoverageGap&, const CoverageGap&) = default;
};

// A half-open interval [start, end) during which the crawler deliberately
// sampled slower than the nominal interval (overload protection halved the
// snapshot rate instead of dropping data). Unlike a CoverageGap the land WAS
// observed — just at `factor` times the nominal interval — so analyses must
// rate-correct time-weighted quantities rather than censor the window.
struct SamplingDegradation {
  Seconds start{0.0};
  Seconds end{0.0};
  // Effective-interval multiplier (2 = half rate, 4 = quarter rate). Always
  // an integer >= 2; stored as u32 on the wire.
  std::uint32_t factor{2};

  [[nodiscard]] Seconds length() const { return end - start; }
  [[nodiscard]] bool contains(Seconds t) const { return t >= start && t < end; }
  friend bool operator==(const SamplingDegradation&, const SamplingDegradation&) = default;
};

// The end of a gap or window still open: an opening record asks admits()
// with it, since only its start is known yet.
inline constexpr Seconds kOpenEnd = std::numeric_limits<Seconds>::infinity();

// A trace's coverage gaps, recorded in order: the one implementation of
// the gap predicates and of the gap validity rule. A Trace keeps its gaps
// in one; a streaming consumer fills one from the gaps seen so far, which by
// the stream ordering contract (trace/stream.hpp) answers exactly as the
// finished trace's would.
class GapTracker {
 public:
  // Whether `gap` may follow the recorded gaps: it is well-formed
  // (start < end) and starts at or after the last one's end.
  [[nodiscard]] bool admits(const CoverageGap& gap) const;
  // Records the gap [start, end); throws std::invalid_argument unless
  // admits() it.
  void add(Seconds start, Seconds end);

  [[nodiscard]] bool any() const { return !gaps_.empty(); }
  [[nodiscard]] const std::vector<CoverageGap>& gaps() const { return gaps_; }
  // True iff `t` does not fall inside any recorded gap.
  [[nodiscard]] bool covered_at(Seconds t) const;
  // True iff the open interval (t0, t1) intersects any gap — i.e. an
  // observation stretching from t0 to t1 would bridge uncovered time.
  [[nodiscard]] bool spans_gap(Seconds t0, Seconds t1) const;
  // Start of the first gap ending after covered instant `t` (t itself when
  // no such gap exists); the truncation point for observations running at t.
  [[nodiscard]] Seconds next_gap_start(Seconds t) const;
  // Total uncovered time.
  [[nodiscard]] Seconds gap_seconds() const;

 private:
  std::vector<CoverageGap> gaps_;  // ordered, non-overlapping
};

// A trace's sampling-degradation windows, recorded in order: the one window
// validity rule. A Trace and a DegradationTracker (trace/stream.hpp) keep
// their windows in one.
class DegradationWindows {
 public:
  // Whether `window` may follow the recorded windows: it is well-formed
  // (start < end, factor >= 2) and starts at or after the last one's end.
  [[nodiscard]] bool admits(const SamplingDegradation& window) const;
  // Records `window`; throws std::invalid_argument unless admits() it.
  void add(const SamplingDegradation& window);

  [[nodiscard]] const std::vector<SamplingDegradation>& windows() const { return windows_; }
  // Total degraded time.
  [[nodiscard]] Seconds degraded_seconds() const;

 private:
  std::vector<SamplingDegradation> windows_;  // ordered, non-overlapping
};

struct TraceSummary {
  std::size_t unique_users{0};
  double avg_concurrent{0.0};
  std::size_t max_concurrent{0};
  Seconds duration{0.0};
  std::size_t snapshot_count{0};
  std::size_t gap_count{0};
  Seconds gap_seconds{0.0};
  std::size_t degradation_count{0};
  Seconds degraded_seconds{0.0};
};

class Trace {
 public:
  Trace() = default;
  Trace(std::string land_name, Seconds sampling_interval)
      : land_name_(std::move(land_name)), sampling_interval_(sampling_interval) {}

  // Appends a snapshot; snapshots must arrive in non-decreasing time order
  // (throws std::invalid_argument otherwise).
  void add(Snapshot snapshot);

  // Records a coverage gap (GapTracker::add).
  void add_gap(Seconds start, Seconds end) { gaps_.add(start, end); }

  // Records the sampling-degradation window [start, end) with the given
  // effective-interval factor (DegradationWindows::add). Degradations may
  // overlap coverage gaps: a crawler can degrade, then lose the land
  // entirely.
  void add_degradation(Seconds start, Seconds end, std::uint32_t factor) {
    degradations_.add({start, end, factor});
  }

  [[nodiscard]] const std::vector<SamplingDegradation>& degradations() const {
    return degradations_.windows();
  }
  // Total degraded time.
  [[nodiscard]] Seconds degraded_seconds() const { return degradations_.degraded_seconds(); }

  // The gap predicates, answered by the trace's GapTracker.
  [[nodiscard]] const std::vector<CoverageGap>& gaps() const { return gaps_.gaps(); }
  [[nodiscard]] bool covered_at(Seconds t) const { return gaps_.covered_at(t); }
  [[nodiscard]] bool spans_gap(Seconds t0, Seconds t1) const {
    return gaps_.spans_gap(t0, t1);
  }
  [[nodiscard]] Seconds gap_seconds() const { return gaps_.gap_seconds(); }

  [[nodiscard]] const std::string& land_name() const { return land_name_; }
  [[nodiscard]] Seconds sampling_interval() const { return sampling_interval_; }
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const { return snapshots_; }
  [[nodiscard]] bool empty() const { return snapshots_.empty(); }
  [[nodiscard]] std::size_t size() const { return snapshots_.size(); }

  // summarize() over a MemoryTraceStream of this trace (trace/stream.hpp).
  [[nodiscard]] TraceSummary summary() const;

  // Removes fixes at the origin {0,0,0}. The SL protocol reports sitting
  // avatars at the origin (a quirk the paper §3 documents); analyses must
  // not interpret those as positions. Returns the number of fixes dropped.
  std::size_t strip_sitting_fixes();

 private:
  std::string land_name_;
  Seconds sampling_interval_{10.0};
  std::vector<Snapshot> snapshots_;
  GapTracker gaps_;
  DegradationWindows degradations_;
};

}  // namespace slmob
