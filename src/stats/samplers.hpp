// Random-variate samplers used by the avatar population and mobility models.
//
// Each sampler is a small value type bound to no Rng; callers pass the Rng at
// draw time so one parameterisation can be shared across streams.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace slmob {

// Pareto (power-law) distribution with scale xm > 0 and shape alpha > 0:
// P[X > x] = (xm / x)^alpha for x >= xm.
class ParetoSampler {
 public:
  ParetoSampler(double xm, double alpha);
  [[nodiscard]] double sample(Rng& rng) const;
  [[nodiscard]] double xm() const { return xm_; }
  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double xm_;
  double alpha_;
};

// Pareto truncated to [xm, cap]; sampled by inversion of the truncated CDF,
// so no rejection loop is needed. Models quantities with a power-law body and
// a hard upper limit (e.g. pause times bounded by session length).
class BoundedParetoSampler {
 public:
  BoundedParetoSampler(double xm, double alpha, double cap);
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double xm_;
  double alpha_;
  double cap_;
};

// Log-normal given the median and the sigma of the underlying normal.
// Session durations in the trace are well described by a log-normal with a
// hard cap (the paper: 90% of sessions < 1 h, longest ~4 h).
class LogNormalSampler {
 public:
  LogNormalSampler(double median, double sigma);
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double mu_;
  double sigma_;
};

// Samples an index according to explicit non-negative weights.
class CategoricalSampler {
 public:
  explicit CategoricalSampler(std::vector<double> weights);
  [[nodiscard]] std::size_t sample(Rng& rng) const;
  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace slmob
