// Batched cell-sorted proximity kernel behind IncrementalProximity's full
// rebuilds and duplicate-id snapshots.
//
// Every §3 result of the paper reduces to the same per-snapshot question —
// "which avatar pairs are within r" — and the hash-grid answer (one
// unordered_map lookup per 3x3 neighbour cell, one sqrt per candidate pair)
// dominated analysis wall-clock. The kernel answers it from a cell-sorted
// structure-of-arrays layout instead:
//
//   build      bins every point into a uniform grid of cell size r_max and
//              counting-sorts it so each cell's x[] / y[] / original-index[]
//              lanes are contiguous (CSR cell-offset table). When the
//              bounding box is compact the cell table is dense (row-major
//              (cy, cx), O(n + cells)); widely scattered inputs fall back to
//              a sorted-key table with identical cell ordering, so both
//              layouts enumerate pairs in the same sequence.
//   enumerate  walks cells in row-major order and visits every unordered
//              cell pair at Chebyshev distance <= 1 exactly once: the cell
//              against itself, its east neighbour, and the contiguous
//              three-cell run below it (one tile, not three — the CSR layout
//              makes the south-west/south/south-east lanes adjacent). Each
//              tile computes dx*dx + dy*dy over contiguous lanes into a
//              scratch row — a branch-free, comparison-only loop the
//              compiler auto-vectorizes — then collects hits with
//              d2 <= squared_radius_threshold(r_max).
//   classify   fans the recorded hits into per-radius pair lists in a single
//              pass over the computed dist² (a pair within a smaller radius
//              is necessarily within r_max).
//
// Bit-identity with the historical SpatialGrid predicate
// (std::sqrt(dx*dx + dy*dy) <= r): squared_radius_threshold(r) is the
// largest double t with fl(sqrt(t)) <= r, and a correctly-rounded sqrt is
// monotone, so {d2 : fl(sqrt(d2)) <= r} == {d2 : d2 <= t} — the kernel
// accepts exactly the pairs the grid accepted, including ties at exactly
// distance r, without taking a square root per candidate. The distances the
// callers store (std::sqrt of the recorded d2) are bit-identical too, since
// dx*dx equals (-dx)*(-dx) exactly and the summation order matches
// Vec3::distance2d_to.
//
// All state is persistent scratch: a kernel reused across snapshots stops
// allocating once it has seen the largest one (gated by bench/alloc_counter
// in bench/pair_kernel.cpp). One kernel per worker thread; instances are
// not thread-safe.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/vec3.hpp"

namespace slmob {

// Largest double t such that std::sqrt(t) <= radius. Comparing squared
// distances against this threshold is exactly equivalent to comparing
// std::sqrt of them against `radius` (sqrt is correctly rounded, hence
// monotone). `radius` must be positive and finite.
[[nodiscard]] double squared_radius_threshold(double radius);

class PairKernel {
 public:
  // One in-range pair: fix indices i < j into the positions passed to run(),
  // and their squared planar distance.
  struct Hit {
    std::uint32_t i{0};
    std::uint32_t j{0};
    double d2{0.0};
  };

  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  // build + enumerate: afterwards hits() holds every pair (i < j) with
  // planar distance <= r_max, in cell-traversal order. Throws
  // std::invalid_argument when r_max <= 0.
  void run(std::span<const Vec3> positions, double r_max);

  // Cell-sorts `positions` without enumerating pairs; near() answers point
  // queries against the built layout. run() == build() + enumerate().
  void build(std::span<const Vec3> positions, double r_max);
  void enumerate();

  [[nodiscard]] std::span<const Hit> hits() const { return hits_; }
  [[nodiscard]] std::size_t size() const { return n_; }

  // Appends each hit to lists[ri] for every ri with distance <= ranges[ri],
  // classified from the recorded dist² in one pass. `ranges` must be
  // ascending, each in (0, r_max]; `lists` must have ranges.size() entries.
  void classify(std::span<const double> ranges, PairList* lists);

  // Indices (into the built positions) within the build radius of `p`,
  // appended to `out` in cell-traversal order. Read-only: safe to call
  // concurrently once built.
  void near(const Vec3& p, std::vector<std::uint32_t>& out) const;

 private:
  void build_dense(std::span<const Vec3> positions, std::size_t cells);
  void build_sparse(std::span<const Vec3> positions);
  void enumerate_dense();
  void enumerate_sparse();
  // All pairs between lanes [a0, a1) and lanes [b0, b1) (disjoint ranges).
  void tile(std::size_t a0, std::size_t a1, std::size_t b0, std::size_t b1);
  // All pairs within lanes [s, e) of one cell.
  void tile_self(std::size_t s, std::size_t e);
  void scan_near(double px, double py, std::size_t b0, std::size_t b1,
                 std::vector<std::uint32_t>& out) const;

  [[nodiscard]] static std::uint64_t key_of(std::uint32_t gx, std::uint32_t gy) {
    return (static_cast<std::uint64_t>(gy) << 32) | gx;
  }

  std::size_t n_{0};
  double cell_{0.0};        // cell size == build radius
  double threshold2_{0.0};  // squared_radius_threshold(build radius)
  std::int64_t min_cx_{0};
  std::int64_t min_cy_{0};
  std::size_t grid_w_{0};  // dense table width/height (0 when sparse)
  std::size_t grid_h_{0};
  bool dense_{true};

  // Cell-sorted SoA lanes: xs_/ys_/idx_[k] describe the k-th point of the
  // sorted order; cell_start_ is the CSR offset table (dense: cell id
  // (cy*W + cx); sparse: index into cell_keys_).
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint32_t> idx_;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint64_t> cell_keys_;  // sparse only, ascending

  // Build scratch.
  std::vector<std::int32_t> pcx_;
  std::vector<std::int32_t> pcy_;
  std::vector<std::uint32_t> point_cell_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed_;

  // Enumeration scratch and output.
  std::vector<double> d2buf_;
  std::vector<double> range_t2_;
  std::vector<Hit> hits_;
};

}  // namespace slmob
