// Zone occupation (Fig. 3 of the paper): divide the land into L x L cells
// (L = 20 m) and look at the distribution of per-cell user counts across
// all snapshots. Hot-spot lands show a long tail (tens of users in a cell)
// while most cells are empty.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/ecdf.hpp"
#include "trace/trace.hpp"

namespace slmob {

// Rate correction: a snapshot taken inside a SamplingDegradation window
// stands for `factor` nominal sampling intervals of observation, so it
// contributes with integer weight = factor to every time-weighted quantity
// (occupancy samples, empty fraction, per-cell means). Traces without
// degradation windows weight every snapshot 1.
struct ZoneAnalysis {
  double cell_size{20.0};
  std::size_t cells_per_side{0};
  Ecdf occupancy;                 // one sample per (cell, snapshot-weight)
  double empty_fraction{0.0};     // weighted fraction of cell samples == 0
  std::size_t max_occupancy{0};
  // Time-averaged occupancy per cell, row-major (heat map of the land).
  std::vector<double> mean_per_cell;
};

// Incremental zone occupation over a snapshot stream: feed the position
// array (fix order) of every covered snapshot — empty snapshots included,
// they contribute all-zero cell samples. Zones.* checks the cell counts on
// hand-built traces; the golden fingerprints of tests/analysis_goldens.hpp
// pin the aggregate.
class ZoneStream {
 public:
  // Throws std::invalid_argument on non-positive sizes.
  explicit ZoneStream(double land_size = 256.0, double cell_size = 20.0);

  // `weight` is the snapshot's rate-correction factor (the degradation
  // factor in force at its time; 1 at the nominal rate).
  void on_snapshot(const std::vector<Vec3>& positions, std::uint32_t weight = 1);
  [[nodiscard]] ZoneAnalysis finish();

 private:
  double land_size_;
  ZoneAnalysis out_;
  std::vector<std::uint32_t> counts_;
  std::size_t empty_samples_{0};
  std::size_t total_samples_{0};
  std::size_t total_weight_{0};
};

}  // namespace slmob
