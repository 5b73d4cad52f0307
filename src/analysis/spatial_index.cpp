#include "analysis/spatial_index.hpp"

#include <stdexcept>

namespace slmob {

SpatialGrid::SpatialGrid(const std::vector<Vec3>& positions, double radius)
    : positions_(positions), radius_(radius) {
  if (radius <= 0.0) throw std::invalid_argument("SpatialGrid: radius must be positive");
  kernel_.build(positions_, radius_);
}

void SpatialGrid::ensure_enumerated() const {
  if (!enumerated_) {
    kernel_.enumerate();
    enumerated_ = true;
  }
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> SpatialGrid::pairs_within() const {
  ensure_enumerated();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(kernel_.hits().size());
  for (const PairKernel::Hit& h : kernel_.hits()) out.emplace_back(h.i, h.j);
  return out;
}

void SpatialGrid::near_point(const Vec3& p, std::vector<std::uint32_t>& out) const {
  kernel_.near(p, out);
}

}  // namespace slmob
