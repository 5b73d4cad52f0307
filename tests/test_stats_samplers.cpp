#include "stats/samplers.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace slmob {
namespace {

TEST(Samplers, ParetoRespectsScale) {
  ParetoSampler pareto(2.0, 1.5);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(pareto.sample(rng), 2.0);
}

TEST(Samplers, ParetoTailExponent) {
  // For Pareto(xm, alpha): P[X > 2*xm] = 2^-alpha.
  ParetoSampler pareto(1.0, 2.0);
  Rng rng(2);
  int above = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    if (pareto.sample(rng) > 2.0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / kN, 0.25, 0.01);
}

TEST(Samplers, ParetoRejectsBadParams) {
  EXPECT_THROW(ParetoSampler(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ParetoSampler(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ParetoSampler(-1.0, 1.0), std::invalid_argument);
}

TEST(Samplers, BoundedParetoWithinBounds) {
  BoundedParetoSampler bp(5.0, 1.2, 500.0);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const double x = bp.sample(rng);
    EXPECT_GE(x, 5.0);
    EXPECT_LE(x, 500.0);
  }
}

TEST(Samplers, BoundedParetoRejectsBadParams) {
  EXPECT_THROW(BoundedParetoSampler(5.0, 1.0, 5.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSampler(5.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoSampler(0.0, 1.0, 10.0), std::invalid_argument);
}

TEST(Samplers, LogNormalMedian) {
  LogNormalSampler ln(600.0, 1.0);
  Rng rng(4);
  int below = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (ln.sample(rng) < 600.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / kN, 0.5, 0.01);
}

TEST(Samplers, LogNormalPositive) {
  LogNormalSampler ln(10.0, 2.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(ln.sample(rng), 0.0);
}

TEST(Samplers, CategoricalMatchesWeights) {
  CategoricalSampler cat({1.0, 3.0, 0.0, 6.0});
  Rng rng(7);
  std::vector<int> counts(4, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[cat.sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(Samplers, CategoricalRejectsBadWeights) {
  EXPECT_THROW(CategoricalSampler({}), std::invalid_argument);
  EXPECT_THROW(CategoricalSampler({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(CategoricalSampler({1.0, -0.5}), std::invalid_argument);
}

// Property: the bounded Pareto truncated-CDF inversion matches the
// analytic CDF at several probe points, for a sweep of shapes.
class BoundedParetoProperty : public ::testing::TestWithParam<double> {};

TEST_P(BoundedParetoProperty, MatchesAnalyticCdf) {
  const double alpha = GetParam();
  const double xm = 2.0;
  const double cap = 200.0;
  BoundedParetoSampler bp(xm, alpha, cap);
  Rng rng(42);
  constexpr int kN = 100000;
  std::vector<double> samples(kN);
  for (auto& s : samples) s = bp.sample(rng);
  const auto analytic_cdf = [&](double x) {
    const double ha = std::pow(xm / cap, alpha);
    return (1.0 - std::pow(xm / x, alpha)) / (1.0 - ha);
  };
  for (const double probe : {3.0, 5.0, 20.0, 100.0}) {
    const auto below = static_cast<double>(
        std::count_if(samples.begin(), samples.end(), [&](double s) { return s <= probe; }));
    EXPECT_NEAR(below / kN, analytic_cdf(probe), 0.01) << "alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BoundedParetoProperty,
                         ::testing::Values(0.8, 1.05, 1.3, 1.7, 2.5));

}  // namespace
}  // namespace slmob
