#include "stats/ecdf.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace slmob {
namespace {

// MurmurHash3's 64-bit finalizer: small integers and multiples of tau
// differ only in a few high bits, and every bit must reach the mask.
std::uint64_t mix(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

// An unsigned key whose order is the value order of non-NaN doubles, with
// -0.0 just below +0.0: negative values have every bit flipped, the others
// only the sign bit.
std::uint64_t order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

}  // namespace

Ecdf::Ecdf(const std::vector<double>& samples) {
  EcdfAccumulator acc;
  for (const double x : samples) acc.add(x);
  *this = acc.finish();
}

double Ecdf::cdf(double x) const {
  if (runs_.empty()) return 0.0;
  const auto it = std::upper_bound(runs_.begin(), runs_.end(), x,
                                   [](double v, const EcdfRun& r) { return v < r.value; });
  if (it == runs_.begin()) return 0.0;
  return static_cast<double>(std::prev(it)->cumulative) / static_cast<double>(size());
}

double Ecdf::ccdf(double x) const { return 1.0 - cdf(x); }

double Ecdf::quantile(double q) const {
  if (runs_.empty()) throw std::logic_error("Ecdf::quantile on empty distribution");
  if (q <= 0.0) return runs_.front().value;
  if (q >= 1.0) return runs_.back().value;
  const std::size_t n = size();
  const auto idx = std::min(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)) - 1.0), n - 1);
  // The sample at sorted index idx lies in the first run past it.
  const auto it = std::upper_bound(
      runs_.begin(), runs_.end(), std::uint64_t{idx},
      [](std::uint64_t i, const EcdfRun& r) { return i < r.cumulative; });
  return it->value;
}

double Ecdf::min() const {
  if (runs_.empty()) throw std::logic_error("Ecdf::min on empty distribution");
  return runs_.front().value;
}

double Ecdf::max() const {
  if (runs_.empty()) throw std::logic_error("Ecdf::max on empty distribution");
  return runs_.back().value;
}

std::vector<double> Ecdf::sorted() const {
  std::vector<double> out;
  out.reserve(size());
  for (const EcdfRun& r : runs_) out.resize(r.cumulative, r.value);
  return out;
}

std::vector<EcdfPoint> Ecdf::cdf_series(std::size_t n) const {
  std::vector<EcdfPoint> out;
  if (runs_.empty() || n < 2) return out;
  const double lo = min();
  const double hi = max();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
    out.push_back({x, cdf(x)});
  }
  return out;
}

std::vector<EcdfPoint> Ecdf::ccdf_log_series(std::size_t n, double lo_floor) const {
  std::vector<EcdfPoint> out;
  if (runs_.empty() || n < 2) return out;
  const double lo = std::max(min(), lo_floor);
  const double hi = std::max(max(), lo * (1.0 + 1e-9));
  const double log_lo = std::log10(lo);
  const double log_hi = std::log10(hi);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        std::pow(10.0, log_lo + (log_hi - log_lo) * static_cast<double>(i) /
                                    static_cast<double>(n - 1));
    out.push_back({x, ccdf(x)});
  }
  return out;
}

void EcdfAccumulator::add(double x, std::uint64_t count) {
  if (std::isnan(x)) throw std::invalid_argument("EcdfAccumulator::add: NaN sample");
  if (count == 0) return;
  if (2 * (used_ + 1) > slots_.size()) grow();
  const auto bits = std::bit_cast<std::uint64_t>(x);
  for (std::size_t i = mix(bits) & mask_;; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.count == 0) {
      s = {bits, count};
      ++used_;
      return;
    }
    if (s.bits == bits) {
      s.count += count;
      return;
    }
  }
}

void EcdfAccumulator::grow() {
  std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.count == 0) continue;
    std::size_t i = mix(s.bits) & mask_;
    while (slots_[i].count != 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

Ecdf EcdfAccumulator::finish() {
  std::vector<EcdfRun> runs;
  runs.reserve(used_);
  for (const Slot& s : slots_) {
    if (s.count != 0) runs.push_back({std::bit_cast<double>(s.bits), s.count});
  }
  std::sort(runs.begin(), runs.end(), [](const EcdfRun& a, const EcdfRun& b) {
    return order_key(a.value) < order_key(b.value);
  });
  std::uint64_t total = 0;
  for (EcdfRun& r : runs) r.cumulative = total += r.cumulative;
  *this = EcdfAccumulator();
  return Ecdf(std::move(runs));
}

}  // namespace slmob
