// Empirical distributions.
//
// Every figure in the paper is a CDF or CCDF of some per-user or per-pair
// metric; Ecdf is the single representation behind all of them. The
// quantities are quantized (CT and ICT in steps of tau, integer degrees,
// diameters and cell counts), so a distribution is kept as a histogram:
// sorted runs of distinct values, each carrying the number of samples up to
// and including it. Memory grows with the number of distinct values, not
// with the number of samples, and every accessor is a binary search over
// the runs. quantile, cdf, ccdf, min, max and both series are exact: they
// equal what a sorted vector of every sample gives (EcdfOracle.* in
// tests/test_stats_ecdf.cpp checks this bitwise).
//
// Values are matched by bit pattern and ordered by value; -0.0 is a run of
// its own just before +0.0. NaN has no place in that order, so adding one
// throws std::invalid_argument.
//
// An Ecdf is immutable. Producers add samples to an EcdfAccumulator, a
// count table keyed by bit pattern, and call finish() once; only then are
// the distinct values sorted into runs. The result does not depend on the
// order of the adds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace slmob {

struct EcdfPoint {
  double x{0.0};
  double y{0.0};  // F(x) for CDF output, 1 - F(x) for CCDF output
};

// One distinct value and the number of samples <= it. A run's own count is
// its cumulative count minus the previous run's (0 before the first).
struct EcdfRun {
  double value{0.0};
  std::uint64_t cumulative{0};
};

class Ecdf {
 public:
  Ecdf() = default;
  // The distribution of `samples`. Throws std::invalid_argument on NaN.
  explicit Ecdf(const std::vector<double>& samples);

  [[nodiscard]] std::size_t size() const {
    return runs_.empty() ? 0 : static_cast<std::size_t>(runs_.back().cumulative);
  }
  [[nodiscard]] bool empty() const { return runs_.empty(); }

  // F(x) = P[X <= x].
  [[nodiscard]] double cdf(double x) const;
  // 1 - F(x) = P[X > x].
  [[nodiscard]] double ccdf(double x) const;
  // q-quantile for q in [0, 1]; q=0.5 is the median. Uses the lower
  // (inverse-CDF) convention. Throws std::logic_error when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // The runs in ascending value order.
  [[nodiscard]] std::span<const EcdfRun> runs() const { return runs_; }
  // Every sample in ascending order: the runs expanded, size() doubles.
  // For fits and tests; the accessors above never need it.
  [[nodiscard]] std::vector<double> sorted() const;

  // Evaluates the CDF on `n` points linearly spaced over [min, max].
  [[nodiscard]] std::vector<EcdfPoint> cdf_series(std::size_t n) const;
  // Evaluates the CCDF on `n` points log-spaced over [max(min, lo_floor), max],
  // matching the paper's log-x CCDF plots.
  [[nodiscard]] std::vector<EcdfPoint> ccdf_log_series(std::size_t n, double lo_floor = 1.0) const;

 private:
  friend class EcdfAccumulator;
  explicit Ecdf(std::vector<EcdfRun> runs) : runs_(std::move(runs)) {}

  std::vector<EcdfRun> runs_;
};

// Counts samples while a producer streams, and builds the Ecdf at the end.
// An open-addressing table maps each distinct bit pattern to its count, so
// an add is one hash probe and the table holds one slot per distinct value
// (kept at most half full).
class EcdfAccumulator {
 public:
  // Adds `count` samples equal to `x` (none when count is 0). Throws
  // std::invalid_argument when x is NaN.
  void add(double x, std::uint64_t count = 1);
  // The distribution of every sample added so far. Leaves the accumulator
  // empty.
  [[nodiscard]] Ecdf finish();

 private:
  struct Slot {
    std::uint64_t bits{0};
    std::uint64_t count{0};  // 0: the slot is free
  };
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  std::size_t used_{0};
};

}  // namespace slmob
