#include "analysis/analysis_report.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/bytes.hpp"

namespace slmob {
namespace {

// Bitwise double comparison: NaN == NaN, +0 != -0. The equivalence contract
// is "same bits", not "numerically close".
bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof ba);
  std::memcpy(&bb, &b, sizeof bb);
  return ba == bb;
}

std::string diff_scalar(const std::string& name, double a, double b) {
  if (bits_equal(a, b)) return {};
  std::ostringstream os;
  os.precision(17);
  os << name << ": " << a << " != " << b;
  return os.str();
}

std::string diff_count(const std::string& name, std::size_t a, std::size_t b) {
  if (a == b) return {};
  std::ostringstream os;
  os << name << ": " << a << " != " << b;
  return os.str();
}

// Walks both run lists in step, one stretch of samples at a time: `at` is
// the sorted index where the current runs of both begin to overlap.
std::string diff_ecdf(const std::string& name, const Ecdf& a, const Ecdf& b) {
  if (a.size() != b.size()) return diff_count(name + ".size", a.size(), b.size());
  const auto ra = a.runs();
  const auto rb = b.runs();
  std::size_t i = 0;
  std::size_t j = 0;
  for (std::uint64_t at = 0; at < a.size();) {
    if (!bits_equal(ra[i].value, rb[j].value)) {
      std::ostringstream os;
      os.precision(17);
      os << name << "[" << at << "]: " << ra[i].value << " != " << rb[j].value;
      return os.str();
    }
    at = std::min(ra[i].cumulative, rb[j].cumulative);
    if (ra[i].cumulative == at) ++i;
    if (rb[j].cumulative == at) ++j;
  }
  return {};
}

std::string diff_summary(const TraceSummary& a, const TraceSummary& b) {
  if (auto d = diff_count("summary.unique_users", a.unique_users, b.unique_users); !d.empty())
    return d;
  if (auto d = diff_scalar("summary.avg_concurrent", a.avg_concurrent, b.avg_concurrent);
      !d.empty())
    return d;
  if (auto d = diff_count("summary.max_concurrent", a.max_concurrent, b.max_concurrent);
      !d.empty())
    return d;
  if (auto d = diff_scalar("summary.duration", a.duration, b.duration); !d.empty()) return d;
  if (auto d = diff_count("summary.snapshot_count", a.snapshot_count, b.snapshot_count);
      !d.empty())
    return d;
  if (auto d = diff_count("summary.gap_count", a.gap_count, b.gap_count); !d.empty()) return d;
  if (auto d = diff_scalar("summary.gap_seconds", a.gap_seconds, b.gap_seconds); !d.empty())
    return d;
  if (auto d = diff_count("summary.degradation_count", a.degradation_count,
                          b.degradation_count);
      !d.empty())
    return d;
  return diff_scalar("summary.degraded_seconds", a.degraded_seconds, b.degraded_seconds);
}

std::string diff_contacts(const std::string& name, const ContactAnalysis& a,
                          const ContactAnalysis& b) {
  if (auto d = diff_scalar(name + ".range", a.range, b.range); !d.empty()) return d;
  if (a.intervals.size() != b.intervals.size())
    return diff_count(name + ".intervals.size", a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    const auto& x = a.intervals[i];
    const auto& y = b.intervals[i];
    if (x.a != y.a || x.b != y.b || !bits_equal(x.start, y.start) ||
        !bits_equal(x.end, y.end)) {
      std::ostringstream os;
      os << name << ".intervals[" << i << "] differs";
      return os.str();
    }
  }
  if (auto d = diff_ecdf(name + ".contact_times", a.contact_times, b.contact_times); !d.empty())
    return d;
  if (auto d = diff_ecdf(name + ".inter_contact_times", a.inter_contact_times,
                         b.inter_contact_times);
      !d.empty())
    return d;
  if (auto d = diff_ecdf(name + ".first_contact_times", a.first_contact_times,
                         b.first_contact_times);
      !d.empty())
    return d;
  if (auto d = diff_count(name + ".users_seen", a.users_seen, b.users_seen); !d.empty())
    return d;
  return diff_count(name + ".users_with_contact", a.users_with_contact, b.users_with_contact);
}

std::string diff_graphs(const std::string& name, const GraphMetrics& a, const GraphMetrics& b) {
  if (auto d = diff_scalar(name + ".range", a.range, b.range); !d.empty()) return d;
  if (auto d = diff_ecdf(name + ".degrees", a.degrees, b.degrees); !d.empty()) return d;
  if (auto d = diff_ecdf(name + ".diameters", a.diameters, b.diameters); !d.empty()) return d;
  if (auto d = diff_ecdf(name + ".clustering", a.clustering, b.clustering); !d.empty()) return d;
  if (auto d = diff_count(name + ".snapshots_analyzed", a.snapshots_analyzed,
                          b.snapshots_analyzed);
      !d.empty())
    return d;
  return diff_scalar(name + ".isolated_fraction", a.isolated_fraction, b.isolated_fraction);
}

std::string diff_zones(const ZoneAnalysis& a, const ZoneAnalysis& b) {
  if (auto d = diff_scalar("zones.cell_size", a.cell_size, b.cell_size); !d.empty()) return d;
  if (auto d = diff_count("zones.cells_per_side", a.cells_per_side, b.cells_per_side);
      !d.empty())
    return d;
  if (auto d = diff_ecdf("zones.occupancy", a.occupancy, b.occupancy); !d.empty()) return d;
  if (auto d = diff_scalar("zones.empty_fraction", a.empty_fraction, b.empty_fraction);
      !d.empty())
    return d;
  if (auto d = diff_count("zones.max_occupancy", a.max_occupancy, b.max_occupancy); !d.empty())
    return d;
  if (a.mean_per_cell.size() != b.mean_per_cell.size())
    return diff_count("zones.mean_per_cell.size", a.mean_per_cell.size(),
                      b.mean_per_cell.size());
  for (std::size_t i = 0; i < a.mean_per_cell.size(); ++i) {
    if (!bits_equal(a.mean_per_cell[i], b.mean_per_cell[i])) {
      std::ostringstream os;
      os << "zones.mean_per_cell[" << i << "] differs";
      return os.str();
    }
  }
  return {};
}

std::string diff_trips(const TripAnalysis& a, const TripAnalysis& b) {
  if (auto d = diff_ecdf("trips.travel_lengths", a.travel_lengths, b.travel_lengths);
      !d.empty())
    return d;
  if (auto d = diff_ecdf("trips.effective_travel_times", a.effective_travel_times,
                         b.effective_travel_times);
      !d.empty())
    return d;
  if (auto d = diff_ecdf("trips.travel_times", a.travel_times, b.travel_times); !d.empty())
    return d;
  return diff_count("trips.sessions", a.sessions, b.sessions);
}

}  // namespace

void put_ecdf(ByteWriter& w, const Ecdf& e) {
  w.u64(static_cast<std::uint64_t>(e.size()));
  std::uint64_t at = 0;
  for (const EcdfRun& r : e.runs()) {
    for (; at < r.cumulative; ++at) w.f64(r.value);
  }
}

std::string analysis_diff(const AnalysisReport& a, const AnalysisReport& b) {
  if (auto d = diff_summary(a.summary, b.summary); !d.empty()) return d;

  if (a.contacts.size() != b.contacts.size())
    return diff_count("contacts.size", a.contacts.size(), b.contacts.size());
  for (auto ia = a.contacts.begin(), ib = b.contacts.begin(); ia != a.contacts.end();
       ++ia, ++ib) {
    std::ostringstream key;
    key << "contacts[" << ia->first << "]";
    if (!bits_equal(ia->first, ib->first)) return key.str() + ": range key differs";
    if (auto d = diff_contacts(key.str(), ia->second, ib->second); !d.empty()) return d;
  }

  if (a.graphs.size() != b.graphs.size())
    return diff_count("graphs.size", a.graphs.size(), b.graphs.size());
  for (auto ia = a.graphs.begin(), ib = b.graphs.begin(); ia != a.graphs.end(); ++ia, ++ib) {
    std::ostringstream key;
    key << "graphs[" << ia->first << "]";
    if (!bits_equal(ia->first, ib->first)) return key.str() + ": range key differs";
    if (auto d = diff_graphs(key.str(), ia->second, ib->second); !d.empty()) return d;
  }

  if (auto d = diff_zones(a.zones, b.zones); !d.empty()) return d;
  return diff_trips(a.trips, b.trips);
}

std::uint32_t analysis_fingerprint(const AnalysisReport& report) {
  ByteWriter w;
  const TraceSummary& s = report.summary;
  w.u64(static_cast<std::uint64_t>(s.unique_users));
  w.f64(s.avg_concurrent);
  w.u64(static_cast<std::uint64_t>(s.max_concurrent));
  w.f64(s.duration);
  w.u64(static_cast<std::uint64_t>(s.snapshot_count));
  w.u64(static_cast<std::uint64_t>(s.gap_count));
  w.f64(s.gap_seconds);
  w.u64(static_cast<std::uint64_t>(s.degradation_count));
  w.f64(s.degraded_seconds);

  w.u64(static_cast<std::uint64_t>(report.contacts.size()));
  for (const auto& [range, c] : report.contacts) {
    w.f64(range);
    w.f64(c.range);
    w.u64(static_cast<std::uint64_t>(c.intervals.size()));
    for (const auto& iv : c.intervals) {
      w.u32(iv.a.value);
      w.u32(iv.b.value);
      w.f64(iv.start);
      w.f64(iv.end);
    }
    put_ecdf(w, c.contact_times);
    put_ecdf(w, c.inter_contact_times);
    put_ecdf(w, c.first_contact_times);
    w.u64(static_cast<std::uint64_t>(c.users_seen));
    w.u64(static_cast<std::uint64_t>(c.users_with_contact));
  }

  w.u64(static_cast<std::uint64_t>(report.graphs.size()));
  for (const auto& [range, g] : report.graphs) {
    w.f64(range);
    w.f64(g.range);
    put_ecdf(w, g.degrees);
    put_ecdf(w, g.diameters);
    put_ecdf(w, g.clustering);
    w.u64(static_cast<std::uint64_t>(g.snapshots_analyzed));
    w.f64(g.isolated_fraction);
  }

  const ZoneAnalysis& z = report.zones;
  w.f64(z.cell_size);
  w.u64(static_cast<std::uint64_t>(z.cells_per_side));
  put_ecdf(w, z.occupancy);
  w.f64(z.empty_fraction);
  w.u64(static_cast<std::uint64_t>(z.max_occupancy));
  w.u64(static_cast<std::uint64_t>(z.mean_per_cell.size()));
  for (const double m : z.mean_per_cell) w.f64(m);

  const TripAnalysis& t = report.trips;
  put_ecdf(w, t.travel_lengths);
  put_ecdf(w, t.effective_travel_times);
  put_ecdf(w, t.travel_times);
  w.u64(static_cast<std::uint64_t>(t.sessions));

  // Absent-flag bytes of the flights and relations blocks that reports
  // once carried. Every committed golden hashes them (the fingerprints in
  // tests/analysis_goldens.hpp and perfbench/spec.json), so they stay.
  w.u8(0);
  w.u8(0);

  return crc32(w.bytes());
}

}  // namespace slmob
