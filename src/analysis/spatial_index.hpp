// Uniform-grid spatial index for range queries over one snapshot.
//
// Contact extraction and graph construction both need "all pairs within r";
// the grid reduces that from O(n^2) distance checks to neighbours of the
// 3x3 cell block around each point. Cell size equals the query radius.
//
// Since PR 9 the storage is a cell-sorted SoA layout (PairKernel) instead of
// an unordered_map of per-cell index vectors: construction counting-sorts the
// points once, pair queries stream contiguous lanes with auto-vectorized
// dx*dx + dy*dy comparisons, and point queries scan at most three contiguous
// lane ranges. Results are bit-identical to the historical hash-grid (same
// pairs, same distances — see pair_kernel.hpp for the threshold argument);
// only the emission order changed, which no caller depends on.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/pair_kernel.hpp"
#include "util/vec3.hpp"

namespace slmob {

class SpatialGrid {
 public:
  // `radius` is the query radius the grid is built for; `positions` indexes
  // are preserved in query results. Construction cell-sorts the points; pair
  // enumeration runs lazily on the first pairs_within call (near_point-only
  // users such as World::within never pay for it).
  SpatialGrid(const std::vector<Vec3>& positions, double radius);

  // All index pairs (i < j) with planar distance <= radius.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_within() const;

  // Appends to `out` the indices within radius of an arbitrary point p
  // (which need not be one of the indexed positions); the caller clears and
  // reuses `out` across queries. Used by the simulation side — chat
  // audibility and sensor sweeps — to replace full population scans.
  void near_point(const Vec3& p, std::vector<std::uint32_t>& out) const;

 private:
  // Runs the deferred pair enumeration once. Not safe to race from multiple
  // threads on a shared grid; every current caller builds and queries its
  // grid on one worker (near_point alone never enumerates and stays safe).
  void ensure_enumerated() const;

  const std::vector<Vec3>& positions_;
  double radius_;
  mutable PairKernel kernel_;
  mutable bool enumerated_{false};
};

}  // namespace slmob
