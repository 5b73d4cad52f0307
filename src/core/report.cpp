#include "core/report.hpp"

#include <cstdio>
#include <sstream>

#include "util/fileio.hpp"

namespace slmob {
namespace {

std::string fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

void quantile_row(std::ostringstream& os, const std::string& name, const Ecdf& dist,
                  int decimals = 0) {
  if (dist.empty()) {
    os << "| " << name << " | 0 | - | - | - | - |\n";
    return;
  }
  os << "| " << name << " | " << dist.size() << " | " << fmt(dist.quantile(0.1), decimals)
     << " | " << fmt(dist.median(), decimals) << " | " << fmt(dist.quantile(0.9), decimals)
     << " | " << fmt(dist.max(), decimals) << " |\n";
}

void series_table(std::ostringstream& os, const std::string& name, const Ecdf& dist,
                  std::size_t points) {
  if (dist.empty()) return;
  os << "\n<details><summary>" << name << " CCDF</summary>\n\n";
  os << "| x | 1 - F(x) |\n|---|---|\n";
  for (const auto& p : dist.ccdf_log_series(points, 1.0)) {
    os << "| " << fmt(p.x, 1) << " | " << fmt(p.y, 4) << " |\n";
  }
  os << "\n</details>\n";
}

}  // namespace

std::string render_report(const ExperimentResults& results, const ReportOptions& options) {
  std::ostringstream os;
  const TraceSummary& s = results.analysis.summary;

  os << "# Mobility measurement report: " << results.trace.land_name() << "\n\n";
  os << "## Trace\n\n";
  os << "| quantity | value |\n|---|---|\n";
  os << "| duration | " << fmt(s.duration / kSecondsPerHour, 2) << " h |\n";
  os << "| snapshots | " << s.snapshot_count << " (every "
     << fmt(results.trace.sampling_interval(), 0) << " s) |\n";
  os << "| unique visitors | " << s.unique_users << " |\n";
  os << "| avg concurrent | " << fmt(s.avg_concurrent) << " |\n";
  os << "| max concurrent | " << s.max_concurrent << " |\n";
  os << "| logins (world) | " << results.world_stats.total_logins << " ("
     << results.world_stats.rejected_logins << " rejected at capacity) |\n";
  if (results.crawler_stats.snapshots_taken > 0) {
    os << "| crawler re-logins | " << results.crawler_stats.relogins << " |\n";
  }

  os << "\n## Transport\n\n";
  os << "| quantity | value |\n|---|---|\n";
  os << "| datagrams sent | " << results.network_stats.sent << " ("
     << results.network_stats.lost << " lost, " << results.network_stats.fault_dropped
     << " dropped by faults) |\n";
  os << "| circuit packets | " << results.circuit_stats.packets_sent << " sent / "
     << results.circuit_stats.packets_received << " received |\n";
  os << "| retransmits | " << results.circuit_stats.retransmits << " ("
     << results.circuit_stats.rto_backoffs << " RTO backoffs, "
     << results.circuit_stats.reliable_failures << " reliable failures) |\n";
  os << "| RTT samples | " << results.circuit_stats.rtt_samples << " |\n";

  os << "\n## Overload & degradation\n\n";
  os << "| quantity | value |\n|---|---|\n";
  os << "| logins rejected (admission headroom) | "
     << results.server_stats.logins_rejected_overload << " |\n";
  os << "| messages shed (server tick budget) | " << results.server_stats.messages_shed
     << " |\n";
  os << "| datagrams shed (network backpressure) | "
     << results.network_stats.shed_session << " session / "
     << results.network_stats.shed_snapshot << " snapshot |\n";
  os << "| circuit sends deferred | " << results.circuit_stats.deferred_sends << " |\n";
  os << "| sampling degradations | " << results.crawler_stats.degrade_escalations
     << " escalations / " << results.crawler_stats.degrade_recoveries
     << " recoveries |\n";
  os << "| degraded snapshots | " << results.crawler_stats.degraded_snapshots << " ("
     << fmt(results.analysis.summary.degraded_seconds, 0) << " s at reduced rate) |\n";

  os << "\n## Contact opportunities\n\n";
  os << "| metric | n | p10 | median | p90 | max |\n|---|---|---|---|---|---|\n";
  for (const auto& [range, contacts] : results.analysis.contacts) {
    const std::string tag = " (r=" + fmt(range, 0) + "m, s)";
    quantile_row(os, "contact time" + tag, contacts.contact_times);
    quantile_row(os, "inter-contact time" + tag, contacts.inter_contact_times);
    quantile_row(os, "first contact time" + tag, contacts.first_contact_times);
  }

  os << "\n## Line-of-sight networks\n\n";
  os << "| metric | n | p10 | median | p90 | max |\n|---|---|---|---|---|---|\n";
  for (const auto& [range, graphs] : results.analysis.graphs) {
    const std::string tag = " (r=" + fmt(range, 0) + "m)";
    quantile_row(os, "node degree" + tag, graphs.degrees);
    quantile_row(os, "diameter" + tag, graphs.diameters);
    quantile_row(os, "clustering" + tag, graphs.clustering, 2);
  }
  for (const auto& [range, graphs] : results.analysis.graphs) {
    os << "- isolated users at r=" << fmt(range, 0) << "m: "
       << fmt(graphs.isolated_fraction * 100.0) << "%\n";
  }

  os << "\n## Space and trips\n\n";
  os << "- empty " << fmt(results.analysis.zones.cell_size, 0)
     << "m cells: " << fmt(results.analysis.zones.empty_fraction * 100.0) << "%\n";
  os << "- busiest cell: " << results.analysis.zones.max_occupancy << " users\n\n";
  os << "| metric | n | p10 | median | p90 | max |\n|---|---|---|---|---|---|\n";
  quantile_row(os, "travel length (m)", results.analysis.trips.travel_lengths);
  quantile_row(os, "effective travel time (s)", results.analysis.trips.effective_travel_times);
  quantile_row(os, "travel/login time (s)", results.analysis.trips.travel_times);

  if (options.include_series) {
    os << "\n## Distributions\n";
    for (const auto& [range, contacts] : results.analysis.contacts) {
      const std::string tag = " r=" + fmt(range, 0) + "m";
      series_table(os, "contact time" + tag, contacts.contact_times,
                   options.series_points);
      series_table(os, "inter-contact time" + tag, contacts.inter_contact_times,
                   options.series_points);
    }
  }
  return os.str();
}

void write_report(const ExperimentResults& results, const std::string& path,
                  const ReportOptions& options) {
  write_file_atomic(path, render_report(results, options));
}

std::string shard_stats_csv(const std::vector<ShardResult>& shards) {
  std::ostringstream os;
  os << "shard,land,seed,snapshots,relogins,coverage_gaps,"
        "packets_sent,packets_received,retransmits,duplicates_dropped,"
        "reliable_failures,rtt_samples,rto_backoffs,"
        "net_sent,net_delivered,net_lost,net_fault_dropped,net_oversize_dropped,"
        "net_shed_session,net_shed_snapshot,circuit_deferred,"
        "server_rejected_overload,server_messages_shed,"
        "degrade_escalations,degrade_recoveries,degraded_snapshots,degraded_seconds\n";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardResult& r = shards[i];
    const CircuitStats& c = r.circuit_stats;
    const NetworkStats& n = r.network_stats;
    os << i << ',' << archetype_name(r.archetype) << ',' << r.seed << ','
       << r.crawler_stats.snapshots_taken << ',' << r.crawler_stats.relogins << ','
       << r.crawler_stats.coverage_gaps << ',' << c.packets_sent << ','
       << c.packets_received << ',' << c.retransmits << ',' << c.duplicates_dropped
       << ',' << c.reliable_failures << ',' << c.rtt_samples << ',' << c.rto_backoffs
       << ',' << n.sent << ',' << n.delivered << ',' << n.lost << ','
       << n.fault_dropped << ',' << n.oversize_dropped << ',' << n.shed_session << ','
       << n.shed_snapshot << ',' << c.deferred_sends << ','
       << r.server_stats.logins_rejected_overload << ','
       << r.server_stats.messages_shed << ',' << r.crawler_stats.degrade_escalations
       << ',' << r.crawler_stats.degrade_recoveries << ','
       << r.crawler_stats.degraded_snapshots << ','
       << fmt(r.trace.degraded_seconds(), 1) << '\n';
  }
  return os.str();
}

void write_shard_stats_csv(const std::vector<ShardResult>& shards,
                           const std::string& path) {
  write_file_atomic(path, shard_stats_csv(shards));
}

}  // namespace slmob
