#include "stats/ecdf.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace slmob {
namespace {

TEST(Ecdf, EmptyBehaviour) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.cdf(1.0), 0.0);
  EXPECT_EQ(e.ccdf(1.0), 1.0);
  EXPECT_THROW((void)e.median(), std::logic_error);
  EXPECT_THROW((void)e.min(), std::logic_error);
  EXPECT_THROW((void)e.mean(), std::logic_error);
}

TEST(Ecdf, CdfStep) {
  Ecdf e({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.ccdf(2.5), 0.5);
}

TEST(Ecdf, QuantilesLowerConvention) {
  Ecdf e({10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(e.median(), 20.0);
}

TEST(Ecdf, AddKeepsOrderIndependence) {
  Ecdf a;
  Ecdf b;
  for (const double x : {5.0, 1.0, 3.0}) a.add(x);
  for (const double x : {1.0, 3.0, 5.0}) b.add(x);
  EXPECT_DOUBLE_EQ(a.median(), b.median());
  EXPECT_DOUBLE_EQ(a.cdf(3.0), b.cdf(3.0));
}

TEST(Ecdf, MinMaxMean) {
  Ecdf e({2.0, 8.0, 5.0});
  EXPECT_DOUBLE_EQ(e.min(), 2.0);
  EXPECT_DOUBLE_EQ(e.max(), 8.0);
  EXPECT_DOUBLE_EQ(e.mean(), 5.0);
}

// Regression: mean() used to sum in insertion order, but ensure_sorted()
// reorders samples_ in place lazily — so calling median() (or any sorting
// accessor) first changed mean()'s float sum. With catastrophic
// cancellation the difference is not just ULPs: summing {1e16, -1e16, 1.0}
// in insertion order gives 1.0, in sorted order 0.0. mean() must give the
// same bits regardless of accessor call order.
TEST(Ecdf, MeanIndependentOfAccessorCallOrder) {
  const std::vector<double> adversarial{1e16, -1e16, 1.0};

  Ecdf fresh;
  for (const double x : adversarial) fresh.add(x);
  const double mean_before_sort = fresh.mean();

  Ecdf sorted_first;
  for (const double x : adversarial) sorted_first.add(x);
  (void)sorted_first.median();  // forces the lazy in-place sort
  const double mean_after_sort = sorted_first.mean();

  EXPECT_EQ(mean_before_sort, mean_after_sort);  // bitwise, not NEAR
}

TEST(Ecdf, CdfIsMonotone) {
  Rng rng(1);
  Ecdf e;
  for (int i = 0; i < 1000; ++i) e.add(rng.uniform(0.0, 100.0));
  double prev = -1.0;
  for (double x = 0.0; x <= 100.0; x += 0.5) {
    const double c = e.cdf(x);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(Ecdf, CdfSeriesSpansRange) {
  Ecdf e({1.0, 2.0, 10.0});
  const auto series = e.cdf_series(11);
  ASSERT_EQ(series.size(), 11u);
  EXPECT_DOUBLE_EQ(series.front().x, 1.0);
  EXPECT_DOUBLE_EQ(series.back().x, 10.0);
  EXPECT_DOUBLE_EQ(series.back().y, 1.0);
}

TEST(Ecdf, CcdfLogSeriesIsLogSpaced) {
  Ecdf e({1.0, 10.0, 100.0, 1000.0});
  const auto series = e.ccdf_log_series(4);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[1].x / series[0].x, series[2].x / series[1].x, 1e-9);
  for (const auto& p : series) {
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

// Property sweep: for any sample set, quantile and cdf are inverse-ish.
class EcdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfProperty, QuantileCdfConsistency) {
  Rng rng(GetParam());
  Ecdf e;
  const int n = 50 + static_cast<int>(rng.uniform_int(0, 200));
  for (int i = 0; i < n; ++i) e.add(rng.uniform(-50.0, 50.0));
  for (double q = 0.05; q < 1.0; q += 0.05) {
    const double x = e.quantile(q);
    // At least a fraction q of the samples are <= x.
    EXPECT_GE(e.cdf(x) + 1e-12, q);
    // And removing one sample's worth breaks it (tightness).
    EXPECT_LT(e.cdf(x) - 1.0 / static_cast<double>(n) - 1e-12, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace slmob
