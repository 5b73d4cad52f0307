#include "analysis/graphs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "core/experiment.hpp"
#include "util/rng.hpp"

namespace slmob {
namespace {

Snapshot line_of_users(std::size_t n, double spacing) {
  Snapshot s;
  s.time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s.fixes.push_back(
        {AvatarId{static_cast<std::uint32_t>(i + 1)}, {static_cast<double>(i) * spacing, 0.0, 22.0}});
  }
  return s;
}

// The graph metrics of `t` at `range` as the analysis engine computes them,
// on one thread: snapshot_proximity, GraphKernel::measure, GraphStream::add.
GraphMetrics graphs_of(const Trace& t, double range) {
  return analyze_trace(t, {range}, kDefaultLandSize, 1).graphs.at(range);
}

// The metrics of one snapshot's graph, through a one-snapshot trace.
GraphMetrics one_snapshot(const Snapshot& snapshot, double range) {
  Trace t("x", 10.0);
  t.add(snapshot);
  return graphs_of(t, range);
}

std::vector<double> sorted_degrees(const GraphMetrics& m) { return m.degrees.sorted(); }

TEST(GraphStream, EmptySnapshot) {
  const GraphMetrics m = one_snapshot(Snapshot{}, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 0u);
  EXPECT_TRUE(m.degrees.empty());
  EXPECT_TRUE(m.diameters.empty());
  EXPECT_TRUE(m.clustering.empty());
}

TEST(GraphStream, PathGraphMetrics) {
  // 5 users spaced 8 m apart with r=10: a path graph P5.
  const GraphMetrics m = one_snapshot(line_of_users(5, 8.0), 10.0);
  EXPECT_EQ(sorted_degrees(m), (std::vector<double>{1, 1, 2, 2, 2}));  // 4 edges
  EXPECT_EQ(m.diameters.max(), 4.0);
  // Path graphs have zero clustering.
  EXPECT_EQ(m.clustering.max(), 0.0);
  EXPECT_EQ(m.isolated_fraction, 0.0);  // one component
}

TEST(GraphStream, CliqueMetrics) {
  // 4 users within 10 m of each other: K4.
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {3.0, 0.0, 22.0}},
             {AvatarId{3}, {0.0, 3.0, 22.0}},
             {AvatarId{4}, {3.0, 3.0, 22.0}}};
  const GraphMetrics m = one_snapshot(s, 10.0);
  EXPECT_EQ(sorted_degrees(m), (std::vector<double>{3, 3, 3, 3}));  // 6 edges
  EXPECT_EQ(m.diameters.max(), 1.0);
  EXPECT_DOUBLE_EQ(m.clustering.max(), 1.0);
}

TEST(GraphStream, DisconnectedComponents) {
  // Two pairs far apart plus an isolated user: three components.
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {5.0, 0.0, 22.0}},
             {AvatarId{3}, {200.0, 200.0, 22.0}},
             {AvatarId{4}, {205.0, 200.0, 22.0}},
             {AvatarId{5}, {100.0, 100.0, 22.0}}};
  const GraphMetrics m = one_snapshot(s, 10.0);
  EXPECT_EQ(sorted_degrees(m), (std::vector<double>{0, 1, 1, 1, 1}));
  EXPECT_EQ(m.diameters.max(), 1.0);
  EXPECT_DOUBLE_EQ(m.isolated_fraction, 1.0 / 5.0);
}

TEST(GraphStream, TrianglePlusTailClustering) {
  // Nodes 0-1-2 form a triangle; node 3 hangs off node 2 (positions chosen
  // so only 2-3 are within range).
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {6.0, 0.0, 22.0}},
             {AvatarId{3}, {3.0, 5.0, 22.0}},
             {AvatarId{4}, {3.0, 14.0, 22.0}}};
  const GraphMetrics m = one_snapshot(s, 10.0);
  ASSERT_EQ(sorted_degrees(m), (std::vector<double>{1, 2, 2, 3}));  // 4 edges
  EXPECT_EQ(m.diameters.max(), 2.0);
  // Clustering: node0=1, node1=1, node2=1/3 (3 neighbors, 1 link), node3=0.
  ASSERT_EQ(m.clustering.size(), 1u);
  EXPECT_NEAR(m.clustering.max(), (1.0 + 1.0 + 1.0 / 3.0 + 0.0) / 4.0, 1e-12);
}

TEST(GraphStream, SingletonDiameterZero) {
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {10.0, 10.0, 22.0}}};
  const GraphMetrics m = one_snapshot(s, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 1u);
  EXPECT_EQ(m.diameters.max(), 0.0);
  EXPECT_EQ(m.isolated_fraction, 1.0);
}

TEST(AnalyzeGraphs, AggregatesOverSnapshots) {
  Trace t("x", 10.0);
  t.add(line_of_users(3, 8.0));   // P3: diameter 2
  Snapshot s2 = line_of_users(2, 5.0);  // P2: diameter 1
  s2.time = 10.0;
  t.add(std::move(s2));
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 2u);
  EXPECT_EQ(m.degrees.size(), 5u);  // 3 + 2 degree samples
  EXPECT_EQ(m.diameters.size(), 2u);
  EXPECT_DOUBLE_EQ(m.diameters.max(), 2.0);
  EXPECT_DOUBLE_EQ(m.diameters.min(), 1.0);
}

TEST(AnalyzeGraphs, IsolatedFraction) {
  Trace t("x", 10.0);
  Snapshot s;
  s.time = 0.0;
  s.fixes = {{AvatarId{1}, {0.0, 0.0, 22.0}},
             {AvatarId{2}, {5.0, 0.0, 22.0}},
             {AvatarId{3}, {100.0, 100.0, 22.0}}};
  t.add(std::move(s));
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_NEAR(m.isolated_fraction, 1.0 / 3.0, 1e-12);
}

TEST(AnalyzeGraphs, EmptySnapshotsSkipped) {
  Trace t("x", 10.0);
  t.add(Snapshot{0.0, {}});
  t.add(line_of_users(2, 5.0));
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 1u);
}

TEST(AnalyzeGraphs, UncoveredSnapshotsSkipped) {
  Trace t("x", 10.0);
  t.add(line_of_users(3, 8.0));
  Snapshot s2 = line_of_users(5, 8.0);  // falls inside the coverage gap
  s2.time = 10.0;
  t.add(std::move(s2));
  Snapshot s3 = line_of_users(2, 5.0);
  s3.time = 20.0;
  t.add(std::move(s3));
  t.add_gap(5.0, 15.0);
  const GraphMetrics m = graphs_of(t, 10.0);
  EXPECT_EQ(m.snapshots_analyzed, 2u);
  EXPECT_EQ(m.degrees.size(), 5u);  // 3 + 2, nothing from the gap snapshot
}

TEST(AnalyzeGraphs, DiameterShrinksWithLargerRange) {
  // The paper's Fig 2(b)/(e): larger radio range, smaller diameter (for a
  // connected population).
  Trace t("x", 10.0);
  t.add(line_of_users(10, 9.0));
  const GraphMetrics small_r = graphs_of(t, 10.0);
  const GraphMetrics large_r = graphs_of(t, 80.0);
  EXPECT_GT(small_r.diameters.max(), large_r.diameters.max());
}

// Property: invariants over random snapshots.
class GraphProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphProperty, Invariants) {
  Rng rng(GetParam());
  Snapshot s;
  s.time = 0.0;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 80));
  for (std::size_t i = 0; i < n; ++i) {
    s.fixes.push_back({AvatarId{static_cast<std::uint32_t>(i + 1)},
                       {rng.uniform(0.0, 256.0), rng.uniform(0.0, 256.0), 22.0}});
  }
  const GraphMetrics m = one_snapshot(s, 20.0);
  // Diameter < n; mean clustering in [0,1]; one degree sample per node,
  // summing to twice the edge count; isolated fraction = zero-degree share.
  ASSERT_EQ(m.snapshots_analyzed, 1u);
  EXPECT_LT(m.diameters.max(), static_cast<double>(n));
  EXPECT_GE(m.clustering.max(), 0.0);
  EXPECT_LE(m.clustering.max(), 1.0);
  std::size_t edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (s.fixes[i].pos.distance2d_to(s.fixes[j].pos) <= 20.0) ++edges;
    }
  }
  const std::vector<double> degrees = sorted_degrees(m);
  ASSERT_EQ(degrees.size(), n);
  EXPECT_EQ(std::accumulate(degrees.begin(), degrees.end(), 0.0),
            2.0 * static_cast<double>(edges));
  const auto isolated = std::count(degrees.begin(), degrees.end(), 0.0);
  EXPECT_EQ(m.isolated_fraction, static_cast<double>(isolated) / static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Brute-force oracles for GraphStream: every metric of one snapshot
// recomputed from an adjacency matrix, straight from its definition.
using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

struct OracleMetrics {
  std::vector<double> degrees;  // sorted
  double diameter{0.0};
  double clustering{0.0};
  std::size_t isolated{0};
};

OracleMetrics graph_oracle(std::size_t n, const PairList& pairs) {
  std::vector<char> adj(n * n, 0);
  for (const auto& [i, j] : pairs) {
    adj[i * n + j] = 1;
    adj[j * n + i] = 1;
  }
  const auto edge = [&](std::size_t a, std::size_t b) { return adj[a * n + b] != 0; };
  OracleMetrics out;
  std::vector<std::size_t> degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (edge(i, j)) ++degree[i];
    }
    out.degrees.push_back(static_cast<double>(degree[i]));
    if (degree[i] == 0) ++out.isolated;
  }
  std::sort(out.degrees.begin(), out.degrees.end());

  // Components labelled from the lowest unlabelled node upwards; the first
  // one discovered wins a size tie.
  std::vector<std::size_t> label(n, n);
  std::vector<std::size_t> largest;
  for (std::size_t start = 0; start < n; ++start) {
    if (label[start] != n) continue;
    std::vector<std::size_t> members{start};
    label[start] = start;
    for (std::size_t head = 0; head < members.size(); ++head) {
      for (std::size_t v = 0; v < n; ++v) {
        if (edge(members[head], v) && label[v] == n) {
          label[v] = start;
          members.push_back(v);
        }
      }
    }
    if (members.size() > largest.size()) largest = members;
  }

  // Floyd-Warshall on the largest component.
  const std::size_t m = largest.size();
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max() / 4;
  std::vector<std::size_t> dist(m * m, kInf);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      if (a == b) {
        dist[a * m + b] = 0;
      } else if (edge(largest[a], largest[b])) {
        dist[a * m + b] = 1;
      }
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = 0; b < m; ++b) {
        dist[a * m + b] = std::min(dist[a * m + b], dist[a * m + k] + dist[k * m + b]);
      }
    }
  }
  std::size_t diameter = 0;
  for (const std::size_t d : dist) diameter = std::max(diameter, d);
  out.diameter = static_cast<double>(diameter);

  // Triangle counts: every pair of neighbours of i that is itself linked.
  // The mean keeps the production expression and node order.
  if (n == 0) return out;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = degree[i];
    if (k < 2) continue;
    std::size_t links = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (!edge(i, a)) continue;
      for (std::size_t b = a + 1; b < n; ++b) {
        if (edge(i, b) && edge(a, b)) ++links;
      }
    }
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  out.clustering = total / static_cast<double>(n);
  return out;
}

void expect_stream_matches_oracle(std::size_t n, const PairList& pairs) {
  SCOPED_TRACE("n=" + std::to_string(n) + " edges=" + std::to_string(pairs.size()));
  GraphStream stream(80.0);
  stream.on_snapshot(n, pairs);
  const GraphMetrics got = stream.finish();
  const OracleMetrics want = graph_oracle(n, pairs);
  ASSERT_EQ(got.snapshots_analyzed, 1u);
  EXPECT_EQ(got.degrees.sorted(), want.degrees);
  ASSERT_EQ(got.diameters.size(), 1u);
  EXPECT_EQ(got.diameters.min(), want.diameter);
  ASSERT_EQ(got.clustering.size(), 1u);
  EXPECT_EQ(got.clustering.min(), want.clustering);  // bit for bit
  EXPECT_EQ(got.isolated_fraction,
            static_cast<double>(want.isolated) / static_cast<double>(n));
}

// Each pair i < j linked with probability p, listed in shuffled order.
PairList random_pairs(std::size_t n, double p, Rng& rng) {
  PairList pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) pairs.emplace_back(i, j);
    }
  }
  std::shuffle(pairs.begin(), pairs.end(), rng);
  return pairs;
}

// Node labels 0..n-1 in a random order, so paths and cliques straddle words.
std::vector<std::uint32_t> shuffled_nodes(std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0u);
  std::shuffle(nodes.begin(), nodes.end(), rng);
  return nodes;
}

std::pair<std::uint32_t, std::uint32_t> ordered(std::uint32_t a, std::uint32_t b) {
  return {std::min(a, b), std::max(a, b)};
}

PairList path_over(const std::vector<std::uint32_t>& nodes) {
  PairList pairs;
  for (std::size_t k = 0; k + 1 < nodes.size(); ++k) {
    pairs.push_back(ordered(nodes[k], nodes[k + 1]));
  }
  return pairs;
}

PairList clique_over(const std::vector<std::uint32_t>& nodes) {
  PairList pairs;
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = a + 1; b < nodes.size(); ++b) {
      pairs.push_back(ordered(nodes[a], nodes[b]));
    }
  }
  return pairs;
}

TEST(GraphOracle, EmptySnapshotIsSkipped) {
  GraphStream stream(80.0);
  stream.on_snapshot(0, {});
  const GraphMetrics got = stream.finish();
  EXPECT_EQ(got.snapshots_analyzed, 0u);
  EXPECT_TRUE(got.degrees.empty());
  EXPECT_TRUE(got.diameters.empty());
  EXPECT_TRUE(got.clustering.empty());
}

TEST(GraphOracle, Singleton) { expect_stream_matches_oracle(1, {}); }

TEST(GraphOracle, Path) {
  Rng rng(11);
  expect_stream_matches_oracle(5, path_over({0, 1, 2, 3, 4}));
  expect_stream_matches_oracle(130, path_over(shuffled_nodes(130, rng)));
}

TEST(GraphOracle, Star) {
  PairList pairs;
  for (std::uint32_t leaf = 1; leaf < 100; ++leaf) pairs.emplace_back(0, leaf);
  expect_stream_matches_oracle(100, pairs);
}

TEST(GraphOracle, Clique) {
  Rng rng(12);
  const auto nodes = shuffled_nodes(70, rng);
  expect_stream_matches_oracle(70, clique_over(nodes));
  // A clique on part of the nodes, the rest isolated.
  expect_stream_matches_oracle(
      70, clique_over(std::vector<std::uint32_t>(nodes.begin(), nodes.begin() + 40)));
}

TEST(GraphOracle, TwoEqualComponentsFirstDiscoveredWins) {
  // A 5-path (diameter 4) and a 5-clique (diameter 1); whichever holds the
  // lowest node index is discovered first and sets the diameter.
  PairList path_first = path_over({0, 2, 4, 6, 8});
  const PairList clique_odd = clique_over({1, 3, 5, 7, 9});
  path_first.insert(path_first.end(), clique_odd.begin(), clique_odd.end());
  expect_stream_matches_oracle(10, path_first);
  EXPECT_EQ(graph_oracle(10, path_first).diameter, 4.0);

  PairList clique_first = clique_over({0, 2, 4, 6, 8});
  const PairList path_odd = path_over({1, 3, 5, 7, 9});
  clique_first.insert(clique_first.end(), path_odd.begin(), path_odd.end());
  expect_stream_matches_oracle(10, clique_first);
  EXPECT_EQ(graph_oracle(10, clique_first).diameter, 1.0);
}

class GraphOracleWords : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GraphOracleWords, RandomGraphsAtWordBoundaries) {
  const std::size_t n = GetParam();
  Rng rng(100 + n);
  // Sparse (many components, long paths) through dense.
  for (const double mean_degree : {1.0, 2.5, 6.0, 20.0, 0.9 * static_cast<double>(n)}) {
    for (int rep = 0; rep < 3; ++rep) {
      expect_stream_matches_oracle(
          n, random_pairs(n, mean_degree / static_cast<double>(n - 1), rng));
    }
  }
  const auto nodes = shuffled_nodes(n, rng);
  expect_stream_matches_oracle(n, path_over(nodes));
  expect_stream_matches_oracle(n, clique_over(nodes));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphOracleWords,
                         ::testing::Values(63, 64, 65, 127, 128, 129));

TEST(GraphOracle, MeasureOnSharedScratchMatchesOnSnapshot) {
  // The split path StreamingAnalyzer takes: one GraphKernel measures every
  // snapshot into a GraphSample and a second stream adds the samples. Each
  // graph of GraphOracleWords is measured right after a larger and a denser
  // graph on the same kernel, so stale scratch would show as a different
  // sample. The metrics must equal on_snapshot's bit for bit.
  Rng rng(16);
  GraphKernel kernel;
  GraphSample sample;
  GraphStream direct(80.0);
  GraphStream split(80.0);
  const std::size_t sizes[] = {63, 64, 65, 127, 128, 129};
  for (const std::size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<PairList> graphs;
    for (const double mean_degree : {1.0, 2.5, 6.0, 20.0, 0.9 * static_cast<double>(n)}) {
      graphs.push_back(random_pairs(n, mean_degree / static_cast<double>(n - 1), rng));
    }
    const auto nodes = shuffled_nodes(n, rng);
    graphs.push_back(path_over(nodes));
    graphs.push_back(clique_over(nodes));
    for (const PairList& pairs : graphs) {
      kernel.measure(n + 70, random_pairs(n + 70, 0.3, rng), sample);
      kernel.measure(n, clique_over(shuffled_nodes(n, rng)), sample);
      kernel.measure(n, pairs, sample);
      split.add(sample);
      direct.on_snapshot(n, pairs);
    }
  }
  const GraphMetrics want = direct.finish();
  const GraphMetrics got = split.finish();
  EXPECT_EQ(got.snapshots_analyzed, want.snapshots_analyzed);
  EXPECT_EQ(got.snapshots_analyzed, 6u * 7u);
  EXPECT_EQ(got.degrees.sorted(), want.degrees.sorted());
  EXPECT_EQ(got.diameters.sorted(), want.diameters.sorted());
  EXPECT_EQ(got.clustering.sorted(), want.clustering.sorted());
  EXPECT_EQ(got.isolated_fraction, want.isolated_fraction);
}

// Sparse snapshots at and just above the bitset kernel's node limit: a
// random graph on a few dozen nodes plus scattered pairs, the rest isolated.
// Above the limit the CSR loops run, checked against the same oracle.
PairList sparse_large(std::size_t n, Rng& rng) {
  const auto nodes = shuffled_nodes(n, rng);
  PairList pairs;
  for (std::size_t a = 0; a < 40; ++a) {
    for (std::size_t b = a + 1; b < 40; ++b) {
      if (rng.bernoulli(0.12)) pairs.push_back(ordered(nodes[a], nodes[b]));
    }
  }
  for (std::size_t k = 40; k + 1 < 200; k += 2) {
    pairs.push_back(ordered(nodes[k], nodes[k + 1]));
  }
  return pairs;
}

TEST(GraphOracle, AtNodeLimit) {
  Rng rng(13);
  const std::size_t n = GraphKernel::kBitsetMaxNodes;
  expect_stream_matches_oracle(n, sparse_large(n, rng));
}

TEST(GraphOracle, AboveNodeLimitFallsBackToCsr) {
  Rng rng(14);
  const std::size_t n = GraphKernel::kBitsetMaxNodes + 1;
  expect_stream_matches_oracle(n, sparse_large(n, rng));
}

TEST(GraphOracle, ScratchReusedAcrossSnapshotSizes) {
  // One stream over snapshots that grow, shrink and cross the node limit:
  // stale scratch from a larger snapshot must not leak into a smaller one.
  Rng rng(15);
  GraphStream stream(80.0);
  std::vector<double> want_degrees;
  std::vector<double> want_diameters;
  std::vector<double> want_clustering;
  const std::size_t sizes[] = {129, 3, 64, GraphKernel::kBitsetMaxNodes + 1, 65, 1, 128, 2};
  for (const std::size_t n : sizes) {
    const PairList pairs = n > 200 ? sparse_large(n, rng) : random_pairs(n, 0.3, rng);
    stream.on_snapshot(n, pairs);
    const OracleMetrics want = graph_oracle(n, pairs);
    want_degrees.insert(want_degrees.end(), want.degrees.begin(), want.degrees.end());
    want_diameters.push_back(want.diameter);
    want_clustering.push_back(want.clustering);
  }
  const GraphMetrics got = stream.finish();
  const auto sorted = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(got.degrees.sorted(), sorted(want_degrees));
  EXPECT_EQ(got.diameters.sorted(), sorted(want_diameters));
  EXPECT_EQ(got.clustering.sorted(), sorted(want_clustering));
}

// Graphs that are hard for the diameter's eccentricity bounds. In a cycle
// every node has the same eccentricity, so no bound prunes a node before
// its own BFS. The others put the lowest node, the first BFS source, where
// its eccentricity is below the diameter: lower bounds taken for upper
// bounds would stop there.
PairList cycle_over(const std::vector<std::uint32_t>& nodes) {
  PairList pairs = path_over(nodes);
  pairs.push_back(ordered(nodes.front(), nodes.back()));
  return pairs;
}

// Nodes 1..k, then 0, then k+1..n-1: node 0 sits in the middle of the list.
std::vector<std::uint32_t> zero_in_the_middle(std::size_t n, std::size_t k) {
  std::vector<std::uint32_t> nodes(n);
  std::iota(nodes.begin(), nodes.end(), 0u);
  std::rotate(nodes.begin(), nodes.begin() + 1, nodes.begin() + static_cast<std::ptrdiff_t>(k) + 1);
  return nodes;
}

// A clique on `clique` nodes with a path of `tail` more nodes hanging off
// node 0, the clique's node where the tail attaches. Diameter tail + 1.
PairList lollipop(std::size_t clique, std::size_t tail) {
  std::vector<std::uint32_t> head(clique);
  std::iota(head.begin(), head.end(), 0u);
  std::vector<std::uint32_t> stick(tail + 1);
  std::iota(stick.begin(), stick.end(), static_cast<std::uint32_t>(clique - 1));
  stick.front() = 0;
  PairList pairs = clique_over(head);
  const PairList path = path_over(stick);
  pairs.insert(pairs.end(), path.begin(), path.end());
  return pairs;
}

// Two cliques on `clique` nodes each, joined by a path of `bridge` edges
// between one node of each; node 0 is the bridge's middle node (`bridge`
// even). Diameter bridge + 2.
PairList barbell(std::size_t clique, std::size_t bridge) {
  std::vector<std::uint32_t> path = zero_in_the_middle(bridge + 1, bridge / 2);
  std::vector<std::uint32_t> left(clique);
  std::iota(left.begin(), left.end(), static_cast<std::uint32_t>(bridge));
  left.front() = path.front();
  std::vector<std::uint32_t> right(clique);
  std::iota(right.begin(), right.end(), static_cast<std::uint32_t>(bridge + clique - 1));
  right.front() = path.back();
  PairList pairs = path_over(path);
  for (const auto& side : {left, right}) {
    const PairList k = clique_over(side);
    pairs.insert(pairs.end(), k.begin(), k.end());
  }
  return pairs;
}

class GraphOracleCycles : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GraphOracleCycles, EveryNodeHasTheSameEccentricity) {
  const std::size_t n = GetParam();
  Rng rng(200 + n);
  std::vector<std::uint32_t> in_order(n);
  std::iota(in_order.begin(), in_order.end(), 0u);
  expect_stream_matches_oracle(n, cycle_over(in_order));
  expect_stream_matches_oracle(n, cycle_over(shuffled_nodes(n, rng)));
  EXPECT_EQ(graph_oracle(n, cycle_over(in_order)).diameter, static_cast<double>(n / 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, GraphOracleCycles,
                         ::testing::Values(63, 64, 65, 127, 128, 129));

TEST(GraphOracle, LollipopWithTheLowestNodeWhereTheTailAttaches) {
  for (const std::size_t tail : {1u, 2u, 45u, 70u}) {
    const PairList pairs = lollipop(20, tail);
    expect_stream_matches_oracle(20 + tail, pairs);
    EXPECT_EQ(graph_oracle(20 + tail, pairs).diameter, static_cast<double>(tail + 1));
  }
}

TEST(GraphOracle, BarbellWithTheLowestNodeMidBridge) {
  for (const std::size_t bridge : {2u, 10u, 40u, 100u}) {
    const PairList pairs = barbell(15, bridge);
    expect_stream_matches_oracle(bridge + 2 * 15 - 1, pairs);
    EXPECT_EQ(graph_oracle(bridge + 2 * 15 - 1, pairs).diameter,
              static_cast<double>(bridge + 2));
  }
}

TEST(GraphOracle, PathWithTheLowestNodeInTheMiddle) {
  for (const std::size_t n : {5u, 64u, 65u, 129u, 130u}) {
    for (const std::size_t k : {n / 2, n / 3}) {
      expect_stream_matches_oracle(n, path_over(zero_in_the_middle(n, k)));
    }
  }
}

TEST(GraphOracle, BoundsSkipMostEccentricitySweeps) {
  // The bounds do their work: on these graphs the diameter takes a few BFS
  // besides the component search, not one per node. A cycle is the worst
  // case, where every other node needs its own.
  GraphKernel kernel;
  GraphSample sample;
  const auto sweeps = [&](std::size_t n, const PairList& pairs) {
    kernel.measure(n, pairs, sample);
    return kernel.diameter_sweeps();
  };
  EXPECT_LE(sweeps(129, path_over(zero_in_the_middle(129, 64))), 2u);
  EXPECT_LE(sweeps(130, path_over(zero_in_the_middle(130, 43))), 4u);
  EXPECT_LE(sweeps(90, lollipop(20, 70)), 4u);
  EXPECT_LE(sweeps(129, barbell(15, 100)), 4u);
  PairList star;
  for (std::uint32_t leaf = 1; leaf < 100; ++leaf) star.emplace_back(0, leaf);
  EXPECT_LE(sweeps(100, star), 2u);
  std::vector<std::uint32_t> in_order(65);
  std::iota(in_order.begin(), in_order.end(), 0u);
  EXPECT_EQ(sweeps(65, cycle_over(in_order)), 64u);
  // Above the node limit the CSR loops run one BFS per component node.
  const std::size_t n = GraphKernel::kBitsetMaxNodes + 1;
  EXPECT_EQ(sweeps(n, path_over(zero_in_the_middle(n, n / 2))), n);
}

}  // namespace
}  // namespace slmob
