#include "stats/fit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "stats/samplers.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

TEST(Fit, PowerLawRecoversExponent) {
  ParetoSampler pareto(1.0, 1.8);
  Rng rng(1);
  std::vector<double> samples(50000);
  for (auto& s : samples) s = pareto.sample(rng);
  const PowerLawFit fit = fit_power_law(samples, 1.0);
  EXPECT_NEAR(fit.alpha, 1.8, 0.05);
  EXPECT_EQ(fit.n, samples.size());
}

TEST(Fit, PowerLawTooFewSamples) {
  const std::vector<double> samples{2.0};
  const PowerLawFit fit = fit_power_law(samples, 1.0);
  EXPECT_EQ(fit.alpha, 0.0);
}

TEST(Fit, ExponentialTailRecoversRate) {
  Rng rng(2);
  std::vector<double> samples(50000);
  for (auto& s : samples) s = 10.0 + rng.exponential(25.0);  // rate 0.04 above 10
  const ExponentialTailFit fit = fit_exponential_tail(samples, 10.0);
  EXPECT_NEAR(fit.rate, 1.0 / 25.0, 0.002);
}

TEST(Fit, TwoPhaseDetectsCrossover) {
  // Construct power-law head with hard exponential tail: X = min samples.
  Rng rng(3);
  BoundedParetoSampler head(5.0, 1.2, 400.0);
  std::vector<double> samples;
  samples.reserve(30000);
  for (int i = 0; i < 30000; ++i) {
    const double x = head.sample(rng);
    // Exponential censoring beyond ~150 (session-end cutoff).
    const double cutoff = 150.0 + rng.exponential(60.0);
    samples.push_back(std::min(x, cutoff));
  }
  const TwoPhaseFit fit = fit_two_phase(samples, 5.0);
  EXPECT_GT(fit.head.alpha, 0.5);
  EXPECT_GT(fit.tail.rate, 0.0);
  EXPECT_GT(fit.crossover, 20.0);
  EXPECT_LT(fit.crossover, 400.0);
  EXPECT_LT(fit.ks, 0.12);  // the combined model explains the data
}

TEST(Fit, TwoPhaseSmallSampleIsSafe) {
  const std::vector<double> samples{1.0, 2.0, 3.0};
  const TwoPhaseFit fit = fit_two_phase(samples, 1.0);
  EXPECT_EQ(fit.ks, 1.0);  // no usable fit
}

}  // namespace
}  // namespace slmob
