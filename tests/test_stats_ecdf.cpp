#include "stats/ecdf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analysis/analysis_report.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

TEST(Ecdf, EmptyBehaviour) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.size(), 0u);
  EXPECT_EQ(e.cdf(1.0), 0.0);
  EXPECT_EQ(e.ccdf(1.0), 1.0);
  EXPECT_THROW((void)e.median(), std::logic_error);
  EXPECT_THROW((void)e.min(), std::logic_error);
  EXPECT_THROW((void)e.max(), std::logic_error);
  EXPECT_TRUE(e.runs().empty());
  EXPECT_TRUE(e.cdf_series(4).empty());
  EXPECT_TRUE(EcdfAccumulator().finish().empty());
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
  EcdfAccumulator a;
  EcdfAccumulator b;
  for (const double x : {5.0, 1.0, 3.0, 1.0}) a.add(x);
  b.add(1.0, 2);
  for (const double x : {3.0, 5.0}) b.add(x);
  const Ecdf ea = a.finish();
  const Ecdf eb = b.finish();
  EXPECT_EQ(ea.sorted(), eb.sorted());
  EXPECT_DOUBLE_EQ(ea.median(), eb.median());
  EXPECT_DOUBLE_EQ(ea.cdf(3.0), eb.cdf(3.0));
}

TEST(Ecdf, MinMax) {
  Ecdf e({2.0, 8.0, 5.0});
  EXPECT_DOUBLE_EQ(e.min(), 2.0);
  EXPECT_DOUBLE_EQ(e.max(), 8.0);
}

TEST(Ecdf, CdfIsMonotone) {
  Rng rng(1);
  EcdfAccumulator acc;
  for (int i = 0; i < 1000; ++i) acc.add(rng.uniform(0.0, 100.0));
  const Ecdf e = acc.finish();
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
  EcdfAccumulator acc;
  const int n = 50 + static_cast<int>(rng.uniform_int(0, 200));
  for (int i = 0; i < n; ++i) acc.add(rng.uniform(-50.0, 50.0));
  const Ecdf e = acc.finish();
  for (double q = 0.05; q < 1.0; q += 0.05) {
    const double x = e.quantile(q);
    // At least a fraction q of the samples are <= x.
    EXPECT_GE(e.cdf(x) + 1e-12, q);
    // And removing one sample's worth breaks it (tightness).
    EXPECT_LT(e.cdf(x) - 1.0 / static_cast<double>(n) - 1e-12, q);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfProperty, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Brute-force oracle: every accessor of a counted Ecdf against the same
// question asked of a plain sorted vector holding every sample, bitwise.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The sorted-vector answers, written out from the definitions.
struct Oracle {
  std::vector<double> v;  // every sample, ascending

  [[nodiscard]] double cdf(double x) const {
    const auto at = std::upper_bound(v.begin(), v.end(), x) - v.begin();
    return static_cast<double>(at) / static_cast<double>(v.size());
  }
  [[nodiscard]] double quantile(double q) const {
    if (q <= 0.0) return v.front();
    if (q >= 1.0) return v.back();
    const auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())) - 1.0);
    return v[std::min(idx, v.size() - 1)];
  }
};

// A sample set drawn the way trace quantities repeat: cell counts and
// degrees (small integers), CT/ICT (multiples of tau = 10 s), a handful of
// distinct reals, some of them added with a weight as ZoneStream does.
struct Drawn {
  Ecdf ecdf;
  Oracle oracle;
};

Drawn draw(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> reals;
  for (int k = 0; k < 4; ++k) reals.push_back(rng.uniform(-3.0, 500.0));
  EcdfAccumulator acc;
  Drawn out;
  const auto adds = rng.uniform_int(1, 400);
  for (std::int64_t i = 0; i < adds; ++i) {
    double x = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0: x = static_cast<double>(rng.uniform_int(0, 12)); break;
      case 1: x = 10.0 * static_cast<double>(rng.uniform_int(1, 40)); break;
      default: x = reals[static_cast<std::size_t>(rng.uniform_int(0, 3))]; break;
    }
    const auto weight = rng.bernoulli(0.3) ? static_cast<std::uint64_t>(rng.uniform_int(0, 6)) : 1;
    acc.add(x, weight);
    out.oracle.v.insert(out.oracle.v.end(), weight, x);
  }
  std::sort(out.oracle.v.begin(), out.oracle.v.end());
  out.ecdf = acc.finish();
  return out;
}

class EcdfOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdfOracle, RunsAreTheSortedSamplesCounted) {
  const auto [e, o] = draw(GetParam());
  ASSERT_EQ(e.size(), o.v.size());
  ASSERT_EQ(e.empty(), o.v.empty());
  if (o.v.empty()) return;
  const std::vector<double> expanded = e.sorted();
  ASSERT_EQ(expanded.size(), o.v.size());
  for (std::size_t i = 0; i < o.v.size(); ++i) ASSERT_EQ(bits(expanded[i]), bits(o.v[i])) << i;
  // One run per distinct value, strictly ascending, counts positive.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < o.v.size(); ++i) {
    if (i == 0 || o.v[i] != o.v[i - 1]) ++distinct;
  }
  const auto runs = e.runs();
  EXPECT_EQ(runs.size(), distinct);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_LT(runs[r - 1].value, runs[r].value);
    EXPECT_LT(runs[r - 1].cumulative, runs[r].cumulative);
  }
  EXPECT_EQ(bits(e.min()), bits(o.v.front()));
  EXPECT_EQ(bits(e.max()), bits(o.v.back()));
}

TEST_P(EcdfOracle, QuantileAtEveryRank) {
  const auto [e, o] = draw(GetParam());
  if (o.v.empty()) return;
  const std::size_t n = o.v.size();
  for (const double q : {0.0, 1.0, -0.5, 1.5, 0.5}) {
    EXPECT_EQ(bits(e.quantile(q)), bits(o.quantile(q))) << "q=" << q;
  }
  for (std::size_t k = 0; k <= n; ++k) {
    const double q = static_cast<double>(k) / static_cast<double>(n);
    ASSERT_EQ(bits(e.quantile(q)), bits(o.quantile(q))) << "k=" << k << " n=" << n;
  }
  EXPECT_EQ(bits(e.median()), bits(o.quantile(0.5)));
}

TEST_P(EcdfOracle, CdfAtAndBetweenEveryValue) {
  const auto [e, o] = draw(GetParam());
  if (o.v.empty()) return;
  std::vector<double> probes{-std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity(), o.v.front() - 1.0,
                             o.v.back() + 1.0};
  for (std::size_t i = 0; i < o.v.size(); ++i) {
    probes.push_back(o.v[i]);
    probes.push_back(std::nextafter(o.v[i], -1e300));
    if (i + 1 < o.v.size()) probes.push_back(0.5 * (o.v[i] + o.v[i + 1]));
  }
  for (const double x : probes) {
    ASSERT_EQ(bits(e.cdf(x)), bits(o.cdf(x))) << "x=" << x;
    ASSERT_EQ(bits(e.ccdf(x)), bits(1.0 - o.cdf(x))) << "x=" << x;
  }
}

TEST_P(EcdfOracle, SeriesMatch) {
  const auto [e, o] = draw(GetParam());
  if (o.v.empty()) return;
  for (const std::size_t n : {2u, 7u, 64u}) {
    const auto cdf = e.cdf_series(n);
    ASSERT_EQ(cdf.size(), n);
    const double lo = o.v.front();
    const double hi = o.v.back();
    for (std::size_t i = 0; i < n; ++i) {
      const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
      EXPECT_EQ(bits(cdf[i].x), bits(x));
      EXPECT_EQ(bits(cdf[i].y), bits(o.cdf(x)));
    }
    for (const double floor : {1.0, 0.5}) {
      const auto ccdf = e.ccdf_log_series(n, floor);
      ASSERT_EQ(ccdf.size(), n);
      for (const EcdfPoint& p : ccdf) EXPECT_EQ(bits(p.y), bits(1.0 - o.cdf(p.x))) << p.x;
      EXPECT_DOUBLE_EQ(ccdf.front().x, std::max(lo, floor));
    }
  }
}

TEST_P(EcdfOracle, FingerprintBytesAreEverySampleInOrder) {
  const auto [e, o] = draw(GetParam());
  ByteWriter got;
  put_ecdf(got, e);
  ByteWriter want;
  want.u64(o.v.size());
  for (const double x : o.v) want.f64(x);
  EXPECT_EQ(got.bytes(), want.bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfOracle, ::testing::Range<std::uint64_t>(1, 25));

TEST(EcdfOracle, NanIsRejected) {
  EcdfAccumulator acc;
  acc.add(1.0);
  EXPECT_THROW(acc.add(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(acc.add(-std::numeric_limits<double>::quiet_NaN(), 3), std::invalid_argument);
  EXPECT_THROW(Ecdf({2.0, std::numeric_limits<double>::quiet_NaN()}), std::invalid_argument);
  // The rejected adds left nothing behind.
  const Ecdf e = acc.finish();
  EXPECT_EQ(e.size(), 1u);
}

TEST(EcdfOracle, NegativeZeroIsItsOwnRunBeforePositiveZero) {
  EcdfAccumulator acc;
  acc.add(0.0, 2);
  acc.add(-0.0, 3);
  acc.add(1.0);
  acc.add(-1.0);
  const Ecdf e = acc.finish();
  const auto runs = e.runs();
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(bits(runs[1].value), bits(-0.0));
  EXPECT_EQ(runs[1].cumulative, 4u);
  EXPECT_EQ(bits(runs[2].value), bits(0.0));
  EXPECT_EQ(runs[2].cumulative, 6u);
  // Both zeros are <= either zero, as a sorted vector's upper_bound says.
  EXPECT_EQ(e.cdf(-0.0), 6.0 / 7.0);
  EXPECT_EQ(e.cdf(0.0), 6.0 / 7.0);
  EXPECT_EQ(bits(e.quantile(0.3)), bits(-0.0));  // sorted index 2
  EXPECT_EQ(bits(e.quantile(0.7)), bits(0.0));   // sorted index 4
  EXPECT_EQ(bits(e.min()), bits(-1.0));
  const std::vector<double> s = e.sorted();
  ASSERT_EQ(s.size(), 7u);
  EXPECT_TRUE(std::signbit(s[1]) && std::signbit(s[3]));
  EXPECT_FALSE(std::signbit(s[4]) || std::signbit(s[5]));
}

}  // namespace
}  // namespace slmob
