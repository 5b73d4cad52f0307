#include "analysis/zones.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace slmob {

ZoneStream::ZoneStream(double land_size, double cell_size) : land_size_(land_size) {
  if (land_size <= 0.0 || cell_size <= 0.0) {
    throw std::invalid_argument("ZoneStream: bad sizes");
  }
  out_.cell_size = cell_size;
  const auto side = static_cast<std::size_t>(std::ceil(land_size / cell_size));
  out_.cells_per_side = side;
  out_.mean_per_cell.assign(side * side, 0.0);
  counts_.resize(side * side);
}

void ZoneStream::on_snapshot(const std::vector<Vec3>& positions, std::uint32_t weight) {
  const std::size_t side = out_.cells_per_side;
  const double cell_size = out_.cell_size;
  std::fill(counts_.begin(), counts_.end(), 0);
  for (const Vec3& pos : positions) {
    auto cx = static_cast<std::size_t>(std::clamp(pos.x, 0.0, land_size_ - 1e-9) /
                                       cell_size);
    auto cy = static_cast<std::size_t>(std::clamp(pos.y, 0.0, land_size_ - 1e-9) /
                                       cell_size);
    cx = std::min(cx, side - 1);
    cy = std::min(cy, side - 1);
    ++counts_[cy * side + cx];
  }
  total_weight_ += weight;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    occupancy_.add(static_cast<double>(counts_[c]), weight);
    out_.mean_per_cell[c] += static_cast<double>(weight) * static_cast<double>(counts_[c]);
    out_.max_occupancy = std::max(out_.max_occupancy, static_cast<std::size_t>(counts_[c]));
    if (counts_[c] == 0) empty_samples_ += weight;
    total_samples_ += weight;
  }
}

ZoneAnalysis ZoneStream::finish() {
  out_.occupancy = occupancy_.finish();
  if (total_samples_ > 0) {
    out_.empty_fraction =
        static_cast<double>(empty_samples_) / static_cast<double>(total_samples_);
    for (auto& m : out_.mean_per_cell) {
      m /= static_cast<double>(total_weight_);
    }
  }
  return std::move(out_);
}

}  // namespace slmob
