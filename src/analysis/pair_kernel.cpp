#include "analysis/pair_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace slmob {
namespace {

// floor(v / cell) as a signed cell coordinate. int64 so that coordinates far
// outside the usual [0, 1024) region range stay well-defined. The quotient
// is range-checked in double before the cast, which would be undefined for
// a value that does not fit (or a NaN); within +-2^53 every cell is exact
// and the spread of any two fits in int64.
std::int64_t cell_coord(double v, double cell) {
  constexpr double kMaxCell = 9007199254740992.0;  // 2^53
  const double c = std::floor(v / cell);
  if (!(c >= -kMaxCell && c <= kMaxCell)) {
    throw std::invalid_argument("PairKernel: coordinate spread too large for radius");
  }
  return static_cast<std::int64_t>(c);
}

}  // namespace

double squared_radius_threshold(double radius) {
  if (!(radius > 0.0) || !std::isfinite(radius)) {
    throw std::invalid_argument("squared_radius_threshold: radius must be positive");
  }
  constexpr double inf = std::numeric_limits<double>::infinity();
  double t = radius * radius;
  if (!std::isfinite(t)) t = std::numeric_limits<double>::max();
  // Walk up while the predicate still holds, then back down to the last
  // passing value. r*r is within a few ulps of the true boundary, so each
  // loop runs at most a handful of iterations.
  while (std::isfinite(t) && std::sqrt(t) <= radius) t = std::nextafter(t, inf);
  do {
    t = std::nextafter(t, -inf);
  } while (std::sqrt(t) > radius);
  return t;
}

void PairKernel::run(std::span<const Vec3> positions, double r_max) {
  build(positions, r_max);
  enumerate();
}

void PairKernel::build(std::span<const Vec3> positions, double r_max) {
  if (!(r_max > 0.0)) {
    throw std::invalid_argument("PairKernel: radius must be positive");
  }
  if (positions.size() > 0xffffffffull) {
    throw std::invalid_argument("PairKernel: too many positions");
  }
  n_ = positions.size();
  cell_ = r_max;
  threshold2_ = squared_radius_threshold(r_max);
  hit_count_ = 0;
  xs_.resize(n_);
  ys_.resize(n_);
  idx_.resize(n_);
  if (n_ == 0) {
    dense_ = true;
    grid_w_ = 0;
    grid_h_ = 0;
    cell_start_.assign(1, 0);
    cell_keys_.clear();
    return;
  }

  pcx_.resize(n_);
  pcy_.resize(n_);
  std::int64_t min_cx = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_cx = std::numeric_limits<std::int64_t>::min();
  std::int64_t min_cy = min_cx;
  std::int64_t max_cy = max_cx;
  for (std::size_t p = 0; p < n_; ++p) {
    const std::int64_t cx = cell_coord(positions[p].x, cell_);
    const std::int64_t cy = cell_coord(positions[p].y, cell_);
    min_cx = std::min(min_cx, cx);
    max_cx = std::max(max_cx, cx);
    min_cy = std::min(min_cy, cy);
    max_cy = std::max(max_cy, cy);
  }
  min_cx_ = min_cx;
  min_cy_ = min_cy;
  const std::uint64_t w = static_cast<std::uint64_t>(max_cx - min_cx) + 1;
  const std::uint64_t h = static_cast<std::uint64_t>(max_cy - min_cy) + 1;
  if (w > 0xffffffffull || h > 0xffffffffull) {
    throw std::invalid_argument("PairKernel: coordinate spread too large for radius");
  }
  // Re-derive biased per-point cell coordinates now that the origin is known.
  for (std::size_t p = 0; p < n_; ++p) {
    pcx_[p] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(cell_coord(positions[p].x, cell_) - min_cx));
    pcy_[p] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(cell_coord(positions[p].y, cell_) - min_cy));
  }

  // A dense row-major cell table is O(n + cells) to build and lookup-free to
  // walk, but only pays off while the bounding box stays compact; scattered
  // inputs (a few avatars teleported across a huge span) fall back to a
  // sorted-key table. Both lay cells out in ascending (cy, cx) order.
  const std::uint64_t limit = std::max<std::uint64_t>(4 * static_cast<std::uint64_t>(n_), 64);
  dense_ = w <= limit && h <= limit && w * h <= limit;
  if (dense_) {
    grid_w_ = static_cast<std::size_t>(w);
    grid_h_ = static_cast<std::size_t>(h);
    build_dense(positions, static_cast<std::size_t>(w * h));
  } else {
    grid_w_ = 0;
    grid_h_ = 0;
    build_sparse(positions);
  }
}

void PairKernel::build_dense(std::span<const Vec3> positions, std::size_t cells) {
  cell_start_.assign(cells + 1, 0);
  point_cell_.resize(n_);
  const std::size_t w = grid_w_;
  for (std::size_t p = 0; p < n_; ++p) {
    const std::size_t cid = static_cast<std::size_t>(static_cast<std::uint32_t>(pcy_[p])) * w +
                            static_cast<std::uint32_t>(pcx_[p]);
    point_cell_[p] = static_cast<std::uint32_t>(cid);
    ++cell_start_[cid + 1];
  }
  for (std::size_t c = 1; c <= cells; ++c) cell_start_[c] += cell_start_[c - 1];
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  // Placing points in ascending input order keeps each cell's lanes sorted
  // by original index — the within-cell pair order every caller sees.
  for (std::size_t p = 0; p < n_; ++p) {
    const std::uint32_t pos = cursor_[point_cell_[p]]++;
    xs_[pos] = positions[p].x;
    ys_[pos] = positions[p].y;
    idx_[pos] = static_cast<std::uint32_t>(p);
  }
  cell_keys_.clear();
}

void PairKernel::build_sparse(std::span<const Vec3> positions) {
  keyed_.resize(n_);
  for (std::size_t p = 0; p < n_; ++p) {
    keyed_[p] = {key_of(static_cast<std::uint32_t>(pcx_[p]),
                        static_cast<std::uint32_t>(pcy_[p])),
                 static_cast<std::uint32_t>(p)};
  }
  // Ties (same cell) sort by original index, matching the dense layout.
  std::sort(keyed_.begin(), keyed_.end());
  cell_keys_.clear();
  cell_start_.clear();
  for (std::size_t k = 0; k < n_; ++k) {
    if (k == 0 || keyed_[k].first != keyed_[k - 1].first) {
      cell_keys_.push_back(keyed_[k].first);
      cell_start_.push_back(static_cast<std::uint32_t>(k));
    }
    const std::uint32_t p = keyed_[k].second;
    xs_[k] = positions[p].x;
    ys_[k] = positions[p].y;
    idx_[k] = p;
  }
  cell_start_.push_back(static_cast<std::uint32_t>(n_));
}

void PairKernel::enumerate() {
  hit_count_ = 0;
  if (n_ < 2) return;
  if (dense_) {
    enumerate_dense();
  } else {
    enumerate_sparse();
  }
}

void PairKernel::enumerate_dense() {
  const std::size_t w = grid_w_;
  const std::size_t h = grid_h_;
  for (std::size_t gy = 0; gy < h; ++gy) {
    const std::size_t row = gy * w;
    for (std::size_t gx = 0; gx < w; ++gx) {
      const std::size_t c = row + gx;
      const std::size_t s = cell_start_[c];
      const std::size_t e = cell_start_[c + 1];
      if (s == e) continue;
      tile_self(s, e);
      // Half stencil: every unordered cell pair at Chebyshev distance <= 1
      // is visited exactly once — the east neighbour, plus the south-west /
      // south / south-east cells, whose lanes are contiguous in the CSR
      // layout and therefore form a single tile.
      if (gx + 1 < w) tile(s, e, cell_start_[c + 1], cell_start_[c + 2]);
      if (gy + 1 < h) {
        const std::size_t lo = row + w + (gx > 0 ? gx - 1 : 0);
        const std::size_t hi = row + w + (gx + 1 < w ? gx + 1 : w - 1);
        tile(s, e, cell_start_[lo], cell_start_[hi + 1]);
      }
    }
  }
}

void PairKernel::enumerate_sparse() {
  const std::size_t cells = cell_keys_.size();
  for (std::size_t ci = 0; ci < cells; ++ci) {
    const std::uint64_t key = cell_keys_[ci];
    const std::size_t s = cell_start_[ci];
    const std::size_t e = cell_start_[ci + 1];
    tile_self(s, e);
    const auto gx = static_cast<std::uint32_t>(key & 0xffffffffu);
    const auto gy = static_cast<std::uint32_t>(key >> 32);
    // The east neighbour's key is key + 1, and no other key can sort between
    // them, so it is present iff it is the immediate successor.
    if (gx != 0xffffffffu && ci + 1 < cells && cell_keys_[ci + 1] == key + 1) {
      tile(s, e, cell_start_[ci + 1], cell_start_[ci + 2]);
    }
    // South-west .. south-east have consecutive keys on row gy + 1; the
    // present subset is contiguous in cell_keys_, hence one tile.
    if (gy != 0xffffffffu) {
      const std::uint64_t klo = key_of(gx > 0 ? gx - 1 : 0, gy + 1);
      const std::uint64_t khi = key_of(gx != 0xffffffffu ? gx + 1 : gx, gy + 1);
      const auto first = cell_keys_.begin() + static_cast<std::ptrdiff_t>(ci + 1);
      const auto lo = std::lower_bound(first, cell_keys_.end(), klo);
      const auto hi = std::upper_bound(lo, cell_keys_.end(), khi);
      if (lo != hi) {
        const auto lo_ci = static_cast<std::size_t>(lo - cell_keys_.begin());
        const auto hi_ci = static_cast<std::size_t>(hi - cell_keys_.begin());
        tile(s, e, cell_start_[lo_ci], cell_start_[hi_ci]);
      }
    }
  }
}

// Makes room for `candidates` more hits past hit_count_: tile and tile_self
// write every candidate there and keep the ones within range by advancing
// hit_count_, so the buffer must hold all of them.
void PairKernel::reserve_hits(std::size_t candidates) {
  const std::size_t need = hit_count_ + candidates;
  // slmob-lint: allow(alloc-free) -- hits_ keeps its size across runs; warm calls never allocate (gated)
  if (hits_.size() < need) hits_.resize(std::max(need, 2 * hits_.size()));
}

// slmob:alloc-free -- pair enumeration inner loop; gated by the WarmPath ctest
void PairKernel::tile(std::size_t a0, std::size_t a1, std::size_t b0, std::size_t b1) {
  const std::size_t m = b1 - b0;
  if (m == 0) return;
  reserve_hits((a1 - a0) * m);
  const double* bx = xs_.data() + b0;
  const double* by = ys_.data() + b0;
  const std::uint32_t* bi = idx_.data() + b0;
  Hit* out = hits_.data();
  std::size_t count = hit_count_;
  for (std::size_t a = a0; a < a1; ++a) {
    const double ax = xs_[a];
    const double ay = ys_[a];
    const std::uint32_t ia = idx_[a];
    // Every candidate is written at the tail; only those within range
    // advance the count, so no branch depends on the distance.
    for (std::size_t k = 0; k < m; ++k) {
      const double dx = ax - bx[k];
      const double dy = ay - by[k];
      const double d2 = dx * dx + dy * dy;
      out[count] = {std::min(ia, bi[k]), std::max(ia, bi[k]), d2};
      count += static_cast<std::size_t>(d2 <= threshold2_);
    }
  }
  hit_count_ = count;
}

// slmob:alloc-free -- same-cell enumeration; gated by the WarmPath ctest
void PairKernel::tile_self(std::size_t s, std::size_t e) {
  if (e - s < 2) return;
  reserve_hits((e - s) * (e - s - 1) / 2);
  Hit* out = hits_.data();
  std::size_t count = hit_count_;
  for (std::size_t a = s; a + 1 < e; ++a) {
    const double ax = xs_[a];
    const double ay = ys_[a];
    const std::uint32_t ia = idx_[a];
    // Within a cell the lanes are sorted by original index: i < j already.
    for (std::size_t b = a + 1; b < e; ++b) {
      const double dx = ax - xs_[b];
      const double dy = ay - ys_[b];
      const double d2 = dx * dx + dy * dy;
      out[count] = {ia, idx_[b], d2};
      count += static_cast<std::size_t>(d2 <= threshold2_);
    }
  }
  hit_count_ = count;
}

// slmob:alloc-free -- multi-radius hit classification; gated by the WarmPath ctest
void PairKernel::classify(std::span<const double> ranges, PairList* lists) {
  const std::span<const Hit> hits = this->hits();
  for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
    const double t2 = squared_radius_threshold(ranges[ri]);
    PairList& list = lists[ri];
    const std::size_t base = list.size();
    // slmob-lint: allow(alloc-free) -- caller-owned lists are reused by snapshot_proximity; warm calls never allocate (gated)
    list.resize(base + hits.size());
    // As in tile: every hit is written, those within range are kept.
    auto* out = list.data() + base;
    std::size_t count = 0;
    for (const Hit& h : hits) {
      out[count] = {h.i, h.j};
      count += static_cast<std::size_t>(h.d2 <= t2);
    }
    // slmob-lint: allow(alloc-free) -- shrinks the list to the kept hits; never allocates
    list.resize(base + count);
  }
}

void PairKernel::scan_near(double px, double py, std::size_t b0, std::size_t b1,
                           std::vector<std::uint32_t>& out) const {
  for (std::size_t k = b0; k < b1; ++k) {
    const double dx = px - xs_[k];
    const double dy = py - ys_[k];
    if (dx * dx + dy * dy <= threshold2_) out.push_back(idx_[k]);
  }
}

void PairKernel::near(const Vec3& p, std::vector<std::uint32_t>& out) const {
  if (n_ == 0) return;
  const std::int64_t cx = cell_coord(p.x, cell_) - min_cx_;
  const std::int64_t cy = cell_coord(p.y, cell_) - min_cy_;
  if (dense_) {
    const auto w = static_cast<std::int64_t>(grid_w_);
    const auto h = static_cast<std::int64_t>(grid_h_);
    for (std::int64_t gy = cy - 1; gy <= cy + 1; ++gy) {
      if (gy < 0 || gy >= h) continue;
      std::int64_t lo = cx - 1;
      std::int64_t hi = cx + 1;
      if (hi < 0 || lo >= w) continue;
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min<std::int64_t>(hi, w - 1);
      const std::size_t base = static_cast<std::size_t>(gy) * grid_w_;
      scan_near(p.x, p.y, cell_start_[base + static_cast<std::size_t>(lo)],
                cell_start_[base + static_cast<std::size_t>(hi) + 1], out);
    }
  } else {
    constexpr std::int64_t kMax = 0xffffffffll;
    for (std::int64_t gy = cy - 1; gy <= cy + 1; ++gy) {
      if (gy < 0 || gy > kMax) continue;
      std::int64_t lo = cx - 1;
      std::int64_t hi = cx + 1;
      if (hi < 0 || lo > kMax) continue;
      lo = std::max<std::int64_t>(lo, 0);
      hi = std::min<std::int64_t>(hi, kMax);
      const std::uint64_t klo = key_of(static_cast<std::uint32_t>(lo),
                                       static_cast<std::uint32_t>(gy));
      const std::uint64_t khi = key_of(static_cast<std::uint32_t>(hi),
                                       static_cast<std::uint32_t>(gy));
      const auto it_lo = std::lower_bound(cell_keys_.begin(), cell_keys_.end(), klo);
      const auto it_hi = std::upper_bound(it_lo, cell_keys_.end(), khi);
      if (it_lo != it_hi) {
        const auto lo_ci = static_cast<std::size_t>(it_lo - cell_keys_.begin());
        const auto hi_ci = static_cast<std::size_t>(it_hi - cell_keys_.begin());
        scan_near(p.x, p.y, cell_start_[lo_ci], cell_start_[hi_ci], out);
      }
    }
  }
}

}  // namespace slmob
