// Per-snapshot proximity pairs: the one source of "all avatar pairs within
// r" for every analysis.
//
// The paper samples every avatar of a region every tau = 10 s, and a region
// holds at most ~100 avatars, so each snapshot's question is small and
// independent of the previous one. snapshot_proximity answers it from
// scratch: one PairKernel pass at the largest radius, classified into every
// smaller radius by the recorded dist² (pair_kernel.hpp). Nothing carries
// over between snapshots, so the answer is a pure function of the snapshot:
// StreamingAnalyzer computes a whole window of snapshots in parallel and
// gets the same pairs, bit for bit, at any thread count. Duplicate avatar
// ids need no special case, since the kernel never keys by id.
//
// IncrementalProximity is the same call behind an advance()/pairs()
// interface (the name predates the stateless design); outside the tests
// only perfbench's replay drives it (ROADMAP item 2 deletes both).
// ProximityOracle.* checks it, and therefore the function the window stage
// runs, against an O(n^2) brute force on every snapshot at several radii.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/pair_kernel.hpp"
#include "trace/trace.hpp"
#include "util/vec3.hpp"

namespace slmob {

// Sorted, deduplicated copy of `ranges`. Throws std::invalid_argument
// (message prefixed "IncrementalProximity:") unless every range is positive
// and finite.
[[nodiscard]] std::vector<double> proximity_ranges(std::vector<double> ranges);

// The proximity answer of one snapshot. `positions` receives the fixes'
// positions in fix order; `lists` is resized to ranges.size() and lists[ri]
// receives every fix-index pair (i < j) within ranges[ri], in cell-traversal
// order. `ranges` must be as proximity_ranges returns them. The scratch is a
// thread_local PairKernel, so concurrent calls on different threads are
// safe, and warm calls that reuse their output vectors do not allocate.
void snapshot_proximity(const Snapshot& snapshot, std::span<const double> ranges,
                        std::vector<Vec3>& positions,
                        std::vector<PairKernel::PairList>& lists);

class IncrementalProximity {
 public:
  using PairList = PairKernel::PairList;

  // `ranges` as for proximity_ranges (throws std::invalid_argument).
  // `churn_threshold` is inert: read only by perfbench's replay; deleted
  // with it (ROADMAP item 2).
  explicit IncrementalProximity(std::vector<double> ranges, double churn_threshold = 0.35);

  // Answers `snapshot`: afterwards positions() and pairs() describe exactly
  // it. Snapshots may come in any order.
  void advance(const Snapshot& snapshot);

  // Requested radii, ascending and deduplicated.
  [[nodiscard]] const std::vector<double>& ranges() const { return ranges_; }
  // Index into pairs() for `range`; throws std::invalid_argument when the
  // range was not requested at construction.
  [[nodiscard]] std::size_t range_index(double range) const;

  // Positions of the current snapshot's fixes, in fix order.
  [[nodiscard]] const std::vector<Vec3>& positions() const { return positions_; }
  // Pairs (i < j, fix indices) of the current snapshot within ranges()[ri].
  [[nodiscard]] const PairList& pairs(std::size_t ri) const { return lists_[ri]; }

  // Every advance answers its snapshot from scratch, so this counts
  // advances. Read only by perfbench's replay; deleted with it (ROADMAP
  // item 2).
  [[nodiscard]] std::size_t rebuilds() const { return rebuilds_; }

 private:
  std::vector<double> ranges_;
  std::vector<Vec3> positions_;
  std::vector<PairList> lists_;
  std::size_t rebuilds_{0};
};

}  // namespace slmob
