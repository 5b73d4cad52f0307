#include "analysis/incremental_proximity.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace slmob {

std::vector<double> proximity_ranges(std::vector<double> ranges) {
  std::sort(ranges.begin(), ranges.end());
  ranges.erase(std::unique(ranges.begin(), ranges.end()), ranges.end());
  for (const double r : ranges) {
    if (!(r > 0.0) || !std::isfinite(r)) {
      throw std::invalid_argument("IncrementalProximity: ranges must be positive and finite");
    }
  }
  return ranges;
}

void snapshot_proximity(const Snapshot& snapshot, std::span<const double> ranges,
                        std::vector<Vec3>& positions,
                        std::vector<PairKernel::PairList>& lists) {
  positions.clear();
  for (const AvatarFix& fix : snapshot.fixes) positions.push_back(fix.pos);
  lists.resize(ranges.size());
  for (auto& list : lists) list.clear();
  if (ranges.empty()) return;
  thread_local PairKernel kernel;
  kernel.run(positions, ranges.back());
  kernel.classify(ranges, lists.data());
}

IncrementalProximity::IncrementalProximity(std::vector<double> ranges,
                                           double /*churn_threshold*/)
    : ranges_(proximity_ranges(std::move(ranges))) {}

std::size_t IncrementalProximity::range_index(double range) const {
  const auto it = std::lower_bound(ranges_.begin(), ranges_.end(), range);
  if (it == ranges_.end() || *it != range) {
    throw std::invalid_argument("IncrementalProximity: range was not requested at construction");
  }
  return static_cast<std::size_t>(it - ranges_.begin());
}

void IncrementalProximity::advance(const Snapshot& snapshot) {
  snapshot_proximity(snapshot, ranges_, positions_, lists_);
  ++rebuilds_;
}

}  // namespace slmob
