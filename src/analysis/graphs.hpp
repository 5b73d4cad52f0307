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

using GraphPairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// The line-of-sight metrics of one snapshot, before they enter the Ecdfs.
struct GraphSample {
  std::vector<std::uint32_t> degrees;  // per node, in node order; empty: no graph
  std::size_t diameter{0};             // of the largest connected component
  double clustering_sum{0.0};          // Watts-Strogatz coefficients summed in node order
};

// Measures one snapshot's graph into a GraphSample. measure() touches only
// this object's scratch and `out`, and its result depends only on its
// arguments, so one kernel per thread can measure many snapshots in
// parallel; the result does not depend on the order of the pair list.
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
// bit-identical metrics. All scratch is reused across calls: measure() sizes
// it, its helpers never allocate, and a warm kernel makes zero allocations
// per snapshot.
class GraphKernel {
 public:
  // Largest snapshot the bitset kernel takes. Rows cost n^2/8 bytes, and a
  // trace frame can hold about 10^6 fixes, so the limit guards memory
  // against untrusted input: 1024 nodes make 16-word rows, 128 KiB in all,
  // which stays in L2 cache. Real lands hold at most a few hundred avatars.
  static constexpr std::size_t kBitsetMaxNodes = 1024;

  // `pairs` are fix-index pairs (i < j) of a snapshot of `node_count`
  // fixes. A snapshot with no fixes leaves out.degrees empty.
  void measure(std::size_t node_count, const GraphPairList& pairs, GraphSample& out);

 private:
  [[nodiscard]] std::uint32_t nbr_begin(std::uint32_t i) const { return csr_offsets_[i]; }
  [[nodiscard]] std::uint32_t nbr_end(std::uint32_t i) const { return csr_offsets_[i + 1]; }
  void build_csr(const GraphPairList& pairs, std::uint32_t n);
  void find_largest_component(std::uint32_t n);
  void build_rows(const GraphPairList& pairs, std::size_t words);
  [[nodiscard]] std::size_t bitset_diameter(std::size_t words);
  [[nodiscard]] double bitset_clustering_sum(const GraphPairList& pairs, std::uint32_t n,
                                             std::size_t words);
  [[nodiscard]] std::size_t csr_diameter();
  [[nodiscard]] double csr_clustering_sum(std::uint32_t n);

  // Per-snapshot scratch, sized to the snapshot by measure(). CSR layout:
  // neighbours of node i occupy csr_adj_[csr_offsets_[i] .. csr_offsets_[i + 1]).
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

// Graph metrics over a snapshot stream: add() every covered snapshot's
// sample in time order. Empty snapshots are skipped. on_snapshot() is
// measure() on the stream's own kernel followed by add(); StreamingAnalyzer
// instead measures a window of snapshots in parallel and adds the samples
// in order, which gives the same metrics bit for bit.
class GraphStream {
 public:
  explicit GraphStream(double range) : range_(range) {}

  void on_snapshot(std::size_t node_count, const GraphPairList& pairs);
  void add(const GraphSample& sample);
  [[nodiscard]] GraphMetrics finish();

 private:
  double range_;
  Ecdf degrees_;
  Ecdf diameters_;
  Ecdf clustering_;
  std::size_t snapshots_analyzed_{0};
  std::size_t isolated_{0};
  std::size_t degree_samples_{0};
  GraphKernel kernel_;
  GraphSample sample_;
};

}  // namespace slmob
