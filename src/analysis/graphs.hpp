// Line-of-sight network analysis (§3.2 of the paper).
//
// For each snapshot, the communication graph has one vertex per avatar and
// an edge between any two within range r. Aggregated over the measurement
// period the paper reports:
//  * node degree CCDF (one sample per avatar per snapshot),
//  * CDF of the diameter of the largest connected component (one sample per
//    snapshot),
//  * CDF of the mean Watts-Strogatz clustering coefficient (one sample per
//    snapshot: the mean over that snapshot's nodes).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "stats/ecdf.hpp"
#include "trace/trace.hpp"

namespace slmob {

struct GraphMetrics {
  double range{0.0};
  Ecdf degrees;     // per (avatar, snapshot)
  Ecdf diameters;   // per snapshot
  Ecdf clustering;  // per snapshot (mean over nodes)
  std::size_t snapshots_analyzed{0};
  double isolated_fraction{0.0};  // fraction of degree samples equal to 0
};

// Graph metrics of every covered snapshot of `trace`: IncrementalProximity
// supplies each snapshot's pairs within `range` to one GraphStream.
GraphMetrics analyze_graphs(const Trace& trace, double range);

// Incremental graph metrics over a snapshot stream: feed every covered
// snapshot with its in-range pair list, in time order. Empty snapshots are
// skipped. The result does not depend on the order of the pair list.
// GraphOracle.* (tests/test_analysis_graphs.cpp) checks every metric
// against an adjacency-matrix oracle, and the golden fingerprints of
// tests/analysis_goldens.hpp pin the aggregate.
//
// Each snapshot is rebuilt in place into a flat CSR adjacency, which gives
// the degree samples and the largest component. Up to kBitsetMaxNodes nodes,
// diameter and clustering then come from a bitset kernel: one row of
// ceil(n/64) 64-bit words per node. The diameter is a level-synchronous BFS
// from each node of the largest component, whose next frontier is the OR of
// the frontier's rows minus the seen set. popcount(row_i & row_j) counts
// the triangles on edge (i, j); summed over i's edges it is twice the
// number of links among i's neighbours. Larger snapshots fall back to BFS
// and neighbour marking over the CSR. Both paths compute the same exact
// integers and sum the clustering coefficients in node order, so they give
// bit-identical metrics. All scratch is reused across calls: zero
// allocations per snapshot once warm.
class GraphStream {
 public:
  // Largest snapshot the bitset kernel takes. Rows cost n^2/8 bytes, and a
  // trace frame can hold about 10^6 fixes, so the limit guards memory
  // against untrusted input: 1024 nodes make 16-word rows, 128 KiB in all,
  // which stays in L2 cache. Real lands hold at most a few hundred avatars.
  static constexpr std::size_t kBitsetMaxNodes = 1024;

  explicit GraphStream(double range) : range_(range) {}

  void on_snapshot(std::size_t node_count,
                   const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs);
  [[nodiscard]] GraphMetrics finish();

 private:
  [[nodiscard]] std::uint32_t nbr_begin(std::uint32_t i) const { return csr_offsets_[i]; }
  [[nodiscard]] std::uint32_t nbr_end(std::uint32_t i) const { return csr_offsets_[i + 1]; }
  void build_rows(const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
                  std::size_t words);
  [[nodiscard]] std::size_t bitset_diameter(std::size_t words);
  [[nodiscard]] double bitset_clustering_sum(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs, std::uint32_t n,
      std::size_t words);
  [[nodiscard]] std::size_t csr_diameter(std::uint32_t n);
  [[nodiscard]] double csr_clustering_sum(std::uint32_t n);

  double range_;
  Ecdf degrees_;
  Ecdf diameters_;
  Ecdf clustering_;
  std::size_t snapshots_analyzed_{0};
  std::size_t isolated_{0};
  std::size_t degree_samples_{0};
  // Per-snapshot scratch, reused across calls (sized to the largest
  // snapshot seen). CSR layout: neighbours of node i occupy
  // csr_adj_[csr_offsets_[i] .. csr_offsets_[i + 1]).
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<std::uint32_t> csr_cursor_;
  std::vector<std::uint32_t> csr_adj_;
  std::vector<std::uint32_t> comp_;     // BFS worklist of the current component
  std::vector<std::uint32_t> largest_;  // biggest component so far
  std::vector<std::int32_t> dist_;
  std::vector<char> visited_;
  std::vector<char> marked_;
  // Bitset kernel scratch: rows_ holds `words` words per node; sweep_ holds
  // the BFS frontier, next frontier, seen set and the largest component's
  // nodes, `words` words each;
  // level_ lists the frontier's nodes; twice_links_[i] is twice the number
  // of links among i's neighbours.
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> sweep_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> twice_links_;
};

}  // namespace slmob
