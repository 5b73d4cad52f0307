#include "analysis/graphs.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>

#include "analysis/proximity_cache.hpp"
#include "analysis/spatial_index.hpp"
#include "util/thread_pool.hpp"

namespace slmob {

LosGraph::LosGraph(const Snapshot& snapshot, double range) {
  adj_.resize(snapshot.fixes.size());
  std::vector<Vec3> positions;
  positions.reserve(snapshot.fixes.size());
  for (const auto& fix : snapshot.fixes) positions.push_back(fix.pos);
  if (positions.empty()) return;
  const SpatialGrid grid(positions, range);
  add_pairs(grid.pairs_within());
  sort_adjacency();
}

LosGraph::LosGraph(std::size_t node_count,
                   const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  adj_.resize(node_count);
  add_pairs(pairs);
  sort_adjacency();
}

void LosGraph::add_pairs(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  for (const auto& [i, j] : pairs) {
    adj_[i].push_back(j);
    adj_[j].push_back(i);
  }
}

void LosGraph::sort_adjacency() {
  for (auto& n : adj_) std::sort(n.begin(), n.end());
}

std::size_t LosGraph::edge_count() const {
  std::size_t total = 0;
  for (const auto& n : adj_) total += n.size();
  return total / 2;
}

std::vector<std::vector<std::uint32_t>> LosGraph::components() const {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<char> visited(adj_.size(), 0);
  for (std::uint32_t start = 0; start < adj_.size(); ++start) {
    if (visited[start]) continue;
    std::vector<std::uint32_t> comp;
    std::deque<std::uint32_t> queue{start};
    visited[start] = 1;
    while (!queue.empty()) {
      const std::uint32_t u = queue.front();
      queue.pop_front();
      comp.push_back(u);
      for (const std::uint32_t v : adj_[u]) {
        if (!visited[v]) {
          visited[v] = 1;
          queue.push_back(v);
        }
      }
    }
    out.push_back(std::move(comp));
  }
  return out;
}

std::size_t LosGraph::eccentricity(std::uint32_t start) const {
  std::vector<std::int32_t> dist(adj_.size(), -1);
  std::deque<std::uint32_t> queue{start};
  dist[start] = 0;
  std::size_t ecc = 0;
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    ecc = std::max(ecc, static_cast<std::size_t>(dist[u]));
    for (const std::uint32_t v : adj_[u]) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return ecc;
}

std::size_t LosGraph::largest_component_diameter() const {
  const auto comps = components();
  if (comps.empty()) return 0;
  const auto largest = std::max_element(
      comps.begin(), comps.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  if (largest->size() < 2) return 0;
  // One BFS per component node, sharing the distance array and a flat queue
  // across sweeps; only the component's entries need resetting in between.
  std::vector<std::int32_t> dist(adj_.size(), -1);
  std::vector<std::uint32_t> queue;
  queue.reserve(largest->size());
  std::size_t diameter = 0;
  for (const std::uint32_t src : *largest) {
    for (const std::uint32_t u : *largest) dist[u] = -1;
    queue.clear();
    queue.push_back(src);
    dist[src] = 0;
    std::size_t ecc = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      ecc = std::max(ecc, static_cast<std::size_t>(dist[u]));
      for (const std::uint32_t v : adj_[u]) {
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          queue.push_back(v);
        }
      }
    }
    diameter = std::max(diameter, ecc);
  }
  return diameter;
}

double LosGraph::clustering(std::size_t i) const {
  const auto& nbrs = adj_.at(i);
  const std::size_t k = nbrs.size();
  if (k < 2) return 0.0;
  std::size_t links = 0;
  for (std::size_t a = 0; a < k; ++a) {
    const auto& na = adj_[nbrs[a]];
    for (std::size_t b = a + 1; b < k; ++b) {
      if (std::binary_search(na.begin(), na.end(), nbrs[b])) ++links;
    }
  }
  return 2.0 * static_cast<double>(links) / (static_cast<double>(k) * static_cast<double>(k - 1));
}

double LosGraph::mean_clustering() const {
  if (adj_.empty()) return 0.0;
  // Neighbour-mark triangle counting: for node i, flag N(i), then walk each
  // neighbour's adjacency counting flagged entries. O(sum_a deg(a)^2) array
  // probes instead of O(k^2 log k) binary searches per node, with the exact
  // same integer link counts (so the summed doubles are bit-identical to
  // summing clustering(i)).
  std::vector<char> marked(adj_.size(), 0);
  double total = 0.0;
  for (std::size_t i = 0; i < adj_.size(); ++i) {
    const auto& nbrs = adj_[i];
    const std::size_t k = nbrs.size();
    if (k < 2) continue;
    for (const std::uint32_t a : nbrs) marked[a] = 1;
    std::size_t links = 0;
    for (const std::uint32_t a : nbrs) {
      for (const std::uint32_t b : adj_[a]) {
        if (b > a && marked[b]) ++links;
      }
    }
    for (const std::uint32_t a : nbrs) marked[a] = 0;
    total +=
        2.0 * static_cast<double>(links) / (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return total / static_cast<double>(adj_.size());
}

namespace {

// Partial aggregate over one contiguous chunk of snapshots. Counts are kept
// raw so chunk merging can recompute the isolated fraction exactly.
struct GraphChunk {
  Ecdf degrees;
  Ecdf diameters;
  Ecdf clustering;
  std::size_t snapshots_analyzed{0};
  std::size_t isolated{0};
  std::size_t degree_samples{0};
};

// Aggregates metrics of one snapshot graph into a chunk.
void accumulate(GraphChunk& chunk, const LosGraph& graph) {
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    const std::size_t deg = graph.degree(i);
    chunk.degrees.add(static_cast<double>(deg));
    ++chunk.degree_samples;
    if (deg == 0) ++chunk.isolated;
  }
  chunk.diameters.add(static_cast<double>(graph.largest_component_diameter()));
  chunk.clustering.add(graph.mean_clustering());
  ++chunk.snapshots_analyzed;
}

GraphMetrics finalize(std::vector<GraphChunk> chunks, double range) {
  GraphMetrics out;
  out.range = range;
  std::size_t isolated = 0;
  std::size_t degree_samples = 0;
  for (auto& chunk : chunks) {
    out.degrees.merge(chunk.degrees);
    out.diameters.merge(chunk.diameters);
    out.clustering.merge(chunk.clustering);
    out.snapshots_analyzed += chunk.snapshots_analyzed;
    isolated += chunk.isolated;
    degree_samples += chunk.degree_samples;
  }
  out.isolated_fraction =
      degree_samples == 0 ? 0.0
                          : static_cast<double>(isolated) / static_cast<double>(degree_samples);
  return out;
}

}  // namespace

GraphMetrics analyze_graphs(const Trace& trace, double range, std::size_t stride) {
  if (stride == 0) throw std::invalid_argument("analyze_graphs: stride must be >= 1");
  GraphChunk chunk;
  const auto& snaps = trace.snapshots();
  const bool gap_aware = !trace.gaps().empty();
  for (std::size_t s = 0; s < snaps.size(); s += stride) {
    const auto& snap = snaps[s];
    if (snap.fixes.empty()) continue;
    // Snapshots inside a coverage gap carry no valid observation.
    if (gap_aware && !trace.covered_at(snap.time)) continue;
    accumulate(chunk, LosGraph(snap, range));
  }
  std::vector<GraphChunk> chunks;
  chunks.push_back(std::move(chunk));
  return finalize(std::move(chunks), range);
}

GraphMetrics analyze_graphs(const Trace& trace, const ProximityCache& cache,
                            double range, std::size_t stride, ThreadPool* pool) {
  if (stride == 0) throw std::invalid_argument("analyze_graphs: stride must be >= 1");
  const auto& snaps = trace.snapshots();
  const bool gap_aware = !trace.gaps().empty();
  std::vector<std::size_t> indices;
  indices.reserve(snaps.size() / stride + 1);
  for (std::size_t s = 0; s < snaps.size(); s += stride) {
    if (snaps[s].fixes.empty()) continue;
    if (gap_aware && !trace.covered_at(snaps[s].time)) continue;
    indices.push_back(s);
  }

  const auto analyze_index = [&](std::size_t s) {
    return LosGraph(snaps[s].fixes.size(), cache.pairs(s, range));
  };

  // Contiguous chunks of the index list; merged in chunk order, the ECDF
  // sample sequences concatenate to exactly the sequential snapshot order,
  // whatever the chunk count or scheduling.
  std::size_t n_chunks = 1;
  if (pool != nullptr && pool->concurrency() > 1 && indices.size() > 1) {
    n_chunks = std::min(indices.size(), pool->concurrency() * 4);
  }
  const std::size_t per_chunk = (indices.size() + n_chunks - 1) / std::max<std::size_t>(n_chunks, 1);

  const auto build_chunk = [&](std::size_t c) {
    GraphChunk chunk;
    const std::size_t lo = c * per_chunk;
    const std::size_t hi = std::min(indices.size(), lo + per_chunk);
    for (std::size_t k = lo; k < hi; ++k) {
      accumulate(chunk, analyze_index(indices[k]));
    }
    return chunk;
  };

  std::vector<GraphChunk> chunks;
  if (n_chunks > 1) {
    chunks = parallel_map<GraphChunk>(*pool, n_chunks, build_chunk);
  } else {
    chunks.push_back(build_chunk(0));
  }
  return finalize(std::move(chunks), range);
}

namespace {

constexpr std::size_t kWordBits = 64;

constexpr std::uint64_t bit(std::size_t node) {
  return std::uint64_t{1} << (node % kWordBits);
}

}  // namespace

void GraphStream::on_snapshot(
    std::size_t node_count,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  if (node_count == 0) return;  // batch skips empty snapshots
  const auto n = static_cast<std::uint32_t>(node_count);

  // CSR adjacency by counting sort: degree pass, prefix sum, scatter.
  csr_offsets_.assign(n + 1, 0);
  for (const auto& [i, j] : pairs) {
    ++csr_offsets_[i + 1];
    ++csr_offsets_[j + 1];
  }
  for (std::uint32_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
  csr_cursor_.assign(csr_offsets_.begin(), csr_offsets_.end() - 1);
  csr_adj_.resize(pairs.size() * 2);
  for (const auto& [i, j] : pairs) {
    csr_adj_[csr_cursor_[i]++] = j;
    csr_adj_[csr_cursor_[j]++] = i;
  }

  // Degree samples, in node order like the batch loop.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t deg = nbr_end(i) - nbr_begin(i);
    degrees_.add(static_cast<double>(deg));
    ++degree_samples_;
    if (deg == 0) ++isolated_;
  }

  // Largest connected component (first one wins a size tie, matching
  // LosGraph::components + max_element on discovery order). comp_ doubles
  // as the BFS queue: a component is exactly what the BFS visits.
  visited_.assign(n, 0);
  largest_.clear();
  for (std::uint32_t start = 0; start < n; ++start) {
    if (visited_[start]) continue;
    comp_.clear();
    comp_.push_back(start);
    visited_[start] = 1;
    for (std::size_t head = 0; head < comp_.size(); ++head) {
      const std::uint32_t u = comp_[head];
      for (std::uint32_t e = nbr_begin(u); e < nbr_end(u); ++e) {
        const std::uint32_t v = csr_adj_[e];
        if (!visited_[v]) {
          visited_[v] = 1;
          comp_.push_back(v);
        }
      }
    }
    if (comp_.size() > largest_.size()) std::swap(largest_, comp_);
  }

  // Diameter and clustering: the bitset kernel up to the node limit, the
  // CSR loops above it. Both give the same integers, so the same samples.
  std::size_t diameter = 0;
  double total = 0.0;
  if (node_count <= kBitsetMaxNodes) {
    const std::size_t words = (node_count + kWordBits - 1) / kWordBits;
    rows_.assign(node_count * words, 0);
    sweep_.assign(4 * words, 0);
    twice_links_.assign(n, 0);
    level_.resize(n);
    build_rows(pairs, words);
    diameter = bitset_diameter(words);
    total = bitset_clustering_sum(pairs, n, words);
  } else {
    diameter = csr_diameter(n);
    total = csr_clustering_sum(n);
  }
  diameters_.add(static_cast<double>(diameter));
  clustering_.add(total / static_cast<double>(n));
  ++snapshots_analyzed_;
}

// slmob:alloc-free -- sets bits in rows_, which on_snapshot sized for this snapshot
void GraphStream::build_rows(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs, std::size_t words) {
  for (const auto& [i, j] : pairs) {
    rows_[i * words + j / kWordBits] |= bit(j);
    rows_[j * words + i / kWordBits] |= bit(i);
  }
}

// Level-synchronous BFS from every node of the largest component: the next
// frontier is the OR of the frontier nodes' rows minus the seen set. A sweep
// stops once it has reached the whole component, so its level count is the
// source's eccentricity. Each level first lists the frontier's nodes, so the
// OR over their rows runs word by word in a register.
// slmob:alloc-free -- word arithmetic over rows_/sweep_/level_, sized by on_snapshot
std::size_t GraphStream::bitset_diameter(std::size_t words) {
  if (largest_.size() < 2) return 0;
  std::uint64_t* frontier = sweep_.data();
  std::uint64_t* next = frontier + words;
  std::uint64_t* seen = next + words;
  std::uint64_t* component = seen + words;
  const std::uint64_t* rows = rows_.data();
  std::uint32_t* level = level_.data();
  for (const std::uint32_t u : largest_) component[u / kWordBits] |= bit(u);
  std::size_t diameter = 0;
  for (const std::uint32_t src : largest_) {
    std::fill_n(frontier, words, 0);
    std::fill_n(seen, words, 0);
    frontier[src / kWordBits] = bit(src);
    seen[src / kWordBits] = bit(src);
    std::size_t ecc = 0;
    for (bool done = false; !done;) {
      std::size_t width = 0;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = frontier[w]; bits != 0; bits &= bits - 1) {
          const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
          level[width++] = static_cast<std::uint32_t>(w * kWordBits + lane);
        }
      }
      done = true;
      for (std::size_t x = 0; x < words; ++x) {
        std::uint64_t acc = 0;
        for (std::size_t f = 0; f < width; ++f) acc |= rows[level[f] * words + x];
        next[x] = acc & ~seen[x];
        seen[x] |= next[x];
        done &= seen[x] == component[x];
      }
      ++ecc;
      std::swap(frontier, next);
    }
    diameter = std::max(diameter, ecc);
  }
  return diameter;
}

// Sum over nodes of the Watts-Strogatz coefficient. popcount(row_i & row_j)
// counts the triangles on edge (i, j), and summed over i's edges it counts
// each link between two neighbours of i twice.
// slmob:alloc-free -- popcounts over rows_/twice_links_, sized by on_snapshot
double GraphStream::bitset_clustering_sum(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs, std::uint32_t n,
    std::size_t words) {
  const std::uint64_t* rows = rows_.data();
  for (const auto& [i, j] : pairs) {
    const std::uint64_t* row_i = rows + i * words;
    const std::uint64_t* row_j = rows + j * words;
    std::uint32_t common = 0;
    for (std::size_t x = 0; x < words; ++x) {
      common += static_cast<std::uint32_t>(std::popcount(row_i[x] & row_j[x]));
    }
    twice_links_[i] += common;
    twice_links_[j] += common;
  }
  double total = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t k = nbr_end(i) - nbr_begin(i);
    if (k < 2) continue;
    const std::size_t links = twice_links_[i] / 2;
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return total;
}

// Diameter above the node limit: BFS from every node of the largest
// component, resetting only that component's distances between sweeps.
std::size_t GraphStream::csr_diameter(std::uint32_t n) {
  std::size_t diameter = 0;
  if (largest_.size() >= 2) {
    dist_.assign(n, -1);
    for (const std::uint32_t src : largest_) {
      for (const std::uint32_t u : largest_) dist_[u] = -1;
      comp_.clear();
      comp_.push_back(src);
      dist_[src] = 0;
      std::size_t ecc = 0;
      for (std::size_t head = 0; head < comp_.size(); ++head) {
        const std::uint32_t u = comp_[head];
        ecc = std::max(ecc, static_cast<std::size_t>(dist_[u]));
        for (std::uint32_t e = nbr_begin(u); e < nbr_end(u); ++e) {
          const std::uint32_t v = csr_adj_[e];
          if (dist_[v] < 0) {
            dist_[v] = dist_[u] + 1;
            comp_.push_back(v);
          }
        }
      }
      diameter = std::max(diameter, ecc);
    }
  }
  return diameter;
}

// Clustering sum above the node limit by neighbour marking, same integer
// link counts (and so the same floating-point sum) as
// LosGraph::mean_clustering.
double GraphStream::csr_clustering_sum(std::uint32_t n) {
  marked_.assign(n, 0);
  double total = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t k = nbr_end(i) - nbr_begin(i);
    if (k < 2) continue;
    for (std::uint32_t e = nbr_begin(i); e < nbr_end(i); ++e) marked_[csr_adj_[e]] = 1;
    std::size_t links = 0;
    for (std::uint32_t e = nbr_begin(i); e < nbr_end(i); ++e) {
      const std::uint32_t a = csr_adj_[e];
      for (std::uint32_t f = nbr_begin(a); f < nbr_end(a); ++f) {
        const std::uint32_t b = csr_adj_[f];
        if (b > a && marked_[b]) ++links;
      }
    }
    for (std::uint32_t e = nbr_begin(i); e < nbr_end(i); ++e) marked_[csr_adj_[e]] = 0;
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return total;
}

GraphMetrics GraphStream::finish() {
  GraphMetrics out;
  out.range = range_;
  out.degrees = std::move(degrees_);
  out.diameters = std::move(diameters_);
  out.clustering = std::move(clustering_);
  out.snapshots_analyzed = snapshots_analyzed_;
  out.isolated_fraction =
      degree_samples_ == 0
          ? 0.0
          : static_cast<double>(isolated_) / static_cast<double>(degree_samples_);
  return out;
}

}  // namespace slmob
