// Mobility traces.
//
// A Trace is what the crawler produces and what every analysis consumes: a
// time-ordered sequence of snapshots, each listing the position of every
// avatar seen on the target land at that instant. This mirrors the paper's
// methodology (snapshot every tau = 10 s of all users on the land).
#pragma once

#include <cstdint>
#include <optional>
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

  // Position of `id` in this snapshot, if present.
  [[nodiscard]] std::optional<Vec3> find(AvatarId id) const;
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

  // Records a coverage gap [start, end). Gaps must be well-formed
  // (start < end) and arrive in order, non-overlapping (throws
  // std::invalid_argument otherwise).
  void add_gap(Seconds start, Seconds end);

  // Records a sampling-degradation window [start, end) with the given
  // effective-interval factor. Windows must be well-formed (start < end,
  // factor >= 2) and arrive in order, non-overlapping (throws
  // std::invalid_argument otherwise). Degradations may overlap coverage
  // gaps: a crawler can degrade, then lose the land entirely.
  void add_degradation(Seconds start, Seconds end, std::uint32_t factor);

  [[nodiscard]] const std::vector<SamplingDegradation>& degradations() const {
    return degradations_;
  }
  // Effective-interval multiplier at `t`: the factor of the covering
  // degradation window, or 1 when sampling ran at the nominal rate.
  [[nodiscard]] std::uint32_t degradation_factor_at(Seconds t) const;
  // Total degraded time.
  [[nodiscard]] Seconds degraded_seconds() const;

  [[nodiscard]] const std::vector<CoverageGap>& gaps() const { return gaps_; }
  // True iff `t` does not fall inside any recorded gap.
  [[nodiscard]] bool covered_at(Seconds t) const;
  // True iff the open interval (t0, t1) intersects any gap — i.e. an
  // observation stretching from t0 to t1 would bridge uncovered time.
  [[nodiscard]] bool spans_gap(Seconds t0, Seconds t1) const;
  // Total uncovered time.
  [[nodiscard]] Seconds gap_seconds() const;

  [[nodiscard]] const std::string& land_name() const { return land_name_; }
  [[nodiscard]] Seconds sampling_interval() const { return sampling_interval_; }
  [[nodiscard]] const std::vector<Snapshot>& snapshots() const { return snapshots_; }
  [[nodiscard]] bool empty() const { return snapshots_.empty(); }
  [[nodiscard]] std::size_t size() const { return snapshots_.size(); }

  // summarize() over a MemoryTraceStream of this trace (trace/stream.hpp).
  [[nodiscard]] TraceSummary summary() const;

  // Returns a copy restricted to snapshots with time in [t0, t1); coverage
  // gaps are clipped to the window and carried over.
  [[nodiscard]] Trace slice(Seconds t0, Seconds t1) const;

  // Removes fixes at the origin {0,0,0}. The SL protocol reports sitting
  // avatars at the origin (a quirk the paper §3 documents); analyses must
  // not interpret those as positions. Returns the number of fixes dropped.
  std::size_t strip_sitting_fixes();

 private:
  std::string land_name_;
  Seconds sampling_interval_{10.0};
  std::vector<Snapshot> snapshots_;
  std::vector<CoverageGap> gaps_;  // ordered, non-overlapping
  std::vector<SamplingDegradation> degradations_;  // ordered, non-overlapping
};

}  // namespace slmob
