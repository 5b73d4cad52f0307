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
// Up to kBitsetMaxNodes nodes, every metric comes from a bitset kernel: one
// row of ceil(n/64) 64-bit words per node. A degree is the popcount of a
// row. One level-synchronous BFS, whose next frontier is the OR of the
// frontier's rows minus the seen set, finds the largest component (a BFS
// from each node not yet reached) and the eccentricities. The diameter
// needs only a few of those: lower and upper eccentricity bounds from each
// BFS drop every node that cannot have a larger eccentricity than the
// largest one found. popcount(row_i & row_j) counts the triangles on edge
// (i, j); summed over i's edges it is twice the number of links among i's
// neighbours. Larger snapshots are rebuilt into a flat CSR adjacency and
// take BFS from every node of the largest component and neighbour
// marking. Both paths compute the same exact integers and sum the
// clustering coefficients in node order, so they give bit-identical
// metrics. All scratch is reused across calls: measure() sizes it, its
// helpers never allocate, and a warm kernel makes zero allocations per
// snapshot.
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

  // BFS runs the last measure() made for the diameter after finding the
  // largest component: on the bitset path the ones the bounds could not
  // prune, above the node limit one per node of the component.
  [[nodiscard]] std::size_t diameter_sweeps() const { return diameter_sweeps_; }

 private:
  // One BFS: its source, the source's eccentricity and the nodes reached.
  struct Sweep {
    std::uint32_t source{0};
    std::uint32_t eccentricity{0};
    std::size_t reached{0};
  };
  // Word blocks of sweep_, `words` words each.
  enum SweepBlock : std::size_t { kFrontier, kNext, kSeen, kVisited, kComponent, kSweepBlocks };

  void measure_bitset(const GraphPairList& pairs, std::uint32_t n, GraphSample& out);
  Sweep bitset_bfs(std::uint32_t src, std::size_t words, std::size_t reach);
  Sweep bitset_largest_component(std::uint32_t n, std::size_t words);
  [[nodiscard]] std::size_t bitset_diameter(std::size_t words, const Sweep& first);
  [[nodiscard]] double bitset_clustering_sum(const GraphPairList& pairs,
                                             const std::vector<std::uint32_t>& degrees,
                                             std::size_t words);

  void measure_csr(const GraphPairList& pairs, std::uint32_t n, GraphSample& out);
  [[nodiscard]] std::uint32_t nbr_begin(std::uint32_t i) const { return csr_offsets_[i]; }
  [[nodiscard]] std::uint32_t nbr_end(std::uint32_t i) const { return csr_offsets_[i + 1]; }
  void build_csr(const GraphPairList& pairs, std::uint32_t n);
  void find_largest_component(std::uint32_t n);
  [[nodiscard]] std::size_t csr_diameter();
  [[nodiscard]] double csr_clustering_sum(std::uint32_t n);

  // Per-snapshot scratch, sized to the snapshot by measure(). On both
  // paths dist_[v] is v's hop count in the last BFS that reached it.
  std::vector<std::int32_t> dist_;
  std::size_t diameter_sweeps_{0};
  // Bitset kernel: rows_ holds `words` words per node; sweep_ holds the
  // SweepBlocks (the visited block holds the diameter's candidates once
  // the component is found); level_ lists a BFS frontier's nodes;
  // upper_/lower_ are the eccentricity bounds; twice_links_[i] is twice
  // the number of links among i's neighbours.
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> sweep_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> upper_;
  std::vector<std::uint32_t> lower_;
  std::vector<std::uint32_t> twice_links_;
  // CSR layout: neighbours of node i occupy
  // csr_adj_[csr_offsets_[i] .. csr_offsets_[i + 1]).
  std::vector<std::uint32_t> csr_offsets_;
  std::vector<std::uint32_t> csr_cursor_;
  std::vector<std::uint32_t> csr_adj_;
  std::vector<std::uint32_t> comp_;     // BFS worklist of the current component
  std::vector<std::uint32_t> largest_;  // biggest component so far
  std::vector<char> visited_;
  std::vector<char> marked_;
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
  EcdfAccumulator degrees_;
  EcdfAccumulator diameters_;
  EcdfAccumulator clustering_;
  std::size_t snapshots_analyzed_{0};
  std::size_t isolated_{0};
  std::size_t degree_samples_{0};
  GraphKernel kernel_;
  GraphSample sample_;
};

}  // namespace slmob
