#include "stats/samplers.hpp"

#include <cmath>

namespace slmob {

ParetoSampler::ParetoSampler(double xm, double alpha) : xm_(xm), alpha_(alpha) {
  if (xm <= 0.0 || alpha <= 0.0) {
    throw std::invalid_argument("ParetoSampler: xm and alpha must be positive");
  }
}

double ParetoSampler::sample(Rng& rng) const {
  double u = 0.0;
  do {
    u = rng.uniform();
  } while (u <= 0.0);
  return xm_ / std::pow(u, 1.0 / alpha_);
}

BoundedParetoSampler::BoundedParetoSampler(double xm, double alpha, double cap)
    : xm_(xm), alpha_(alpha), cap_(cap) {
  if (xm <= 0.0 || alpha <= 0.0 || cap <= xm) {
    throw std::invalid_argument("BoundedParetoSampler: need 0 < xm < cap, alpha > 0");
  }
}

double BoundedParetoSampler::sample(Rng& rng) const {
  // Inversion: F(x) = (1 - (xm/x)^a) / (1 - (xm/cap)^a) on [xm, cap].
  const double u = rng.uniform();
  const double ha = std::pow(xm_ / cap_, alpha_);
  const double denom = 1.0 - u * (1.0 - ha);
  return xm_ / std::pow(denom, 1.0 / alpha_);
}

LogNormalSampler::LogNormalSampler(double median, double sigma)
    : mu_(std::log(median)), sigma_(sigma) {
  if (median <= 0.0 || sigma <= 0.0) {
    throw std::invalid_argument("LogNormalSampler: median and sigma must be positive");
  }
}

double LogNormalSampler::sample(Rng& rng) const {
  return std::exp(mu_ + sigma_ * rng.normal());
}

CategoricalSampler::CategoricalSampler(std::vector<double> weights) {
  if (weights.empty()) throw std::invalid_argument("CategoricalSampler: no weights");
  double total = 0.0;
  cdf_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] < 0.0) throw std::invalid_argument("CategoricalSampler: negative weight");
    total += weights[i];
    cdf_[i] = total;
  }
  if (total <= 0.0) throw std::invalid_argument("CategoricalSampler: all weights zero");
  for (auto& c : cdf_) c /= total;
}

std::size_t CategoricalSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  for (std::size_t k = 0; k < cdf_.size(); ++k) {
    if (u <= cdf_[k]) return k;
  }
  return cdf_.size() - 1;
}

}  // namespace slmob
