#include "analysis/graphs.hpp"

#include <algorithm>
#include <bit>

namespace slmob {

namespace {

constexpr std::size_t kWordBits = 64;
constexpr std::uint32_t kUnbounded = ~std::uint32_t{0};

// Set bits of a word. std::popcount is a libgcc call at the baseline x86-64
// ISA the build targets (no -mpopcnt); this count inlines to a dozen
// integer instructions and ran the 80 m graph kernel ~20 % faster.
constexpr std::uint32_t popcount(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

constexpr std::uint64_t bit(std::size_t node) {
  return std::uint64_t{1} << (node % kWordBits);
}

}  // namespace

void GraphStream::on_snapshot(std::size_t node_count, const GraphPairList& pairs) {
  kernel_.measure(node_count, pairs, sample_);
  add(sample_);
}

void GraphStream::add(const GraphSample& sample) {
  if (sample.degrees.empty()) return;  // an empty snapshot has no graph
  for (const std::uint32_t deg : sample.degrees) {
    degrees_.add(static_cast<double>(deg));
    ++degree_samples_;
    if (deg == 0) ++isolated_;
  }
  diameters_.add(static_cast<double>(sample.diameter));
  clustering_.add(sample.clustering_sum / static_cast<double>(sample.degrees.size()));
  ++snapshots_analyzed_;
}

void GraphKernel::measure(std::size_t node_count, const GraphPairList& pairs,
                          GraphSample& out) {
  out.degrees.resize(node_count);
  out.diameter = 0;
  out.clustering_sum = 0.0;
  diameter_sweeps_ = 0;
  if (node_count == 0) return;
  const auto n = static_cast<std::uint32_t>(node_count);
  if (node_count <= kBitsetMaxNodes) {
    measure_bitset(pairs, n, out);
  } else {
    measure_csr(pairs, n, out);
  }
}

void GraphKernel::measure_bitset(const GraphPairList& pairs, std::uint32_t n,
                                 GraphSample& out) {
  const std::size_t words = (n + kWordBits - 1) / kWordBits;
  rows_.assign(n * words, 0);
  sweep_.assign(kSweepBlocks * words, 0);
  level_.resize(n);
  dist_.resize(n);
  upper_.assign(n, kUnbounded);
  lower_.assign(n, 0);
  twice_links_.assign(n, 0);
  for (const auto& [i, j] : pairs) {
    rows_[i * words + j / kWordBits] |= bit(j);
    rows_[j * words + i / kWordBits] |= bit(i);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t degree = 0;
    for (std::size_t x = 0; x < words; ++x) {
      degree += popcount(rows_[i * words + x]);
    }
    out.degrees[i] = degree;
  }
  const Sweep largest = bitset_largest_component(n, words);
  out.diameter = bitset_diameter(words, largest);
  out.clustering_sum = bitset_clustering_sum(pairs, out.degrees, words);
}

void GraphKernel::measure_csr(const GraphPairList& pairs, std::uint32_t n, GraphSample& out) {
  csr_offsets_.assign(n + 1, 0);
  csr_cursor_.resize(n);
  csr_adj_.resize(pairs.size() * 2);
  build_csr(pairs, n);
  for (std::uint32_t i = 0; i < n; ++i) out.degrees[i] = nbr_end(i) - nbr_begin(i);
  visited_.assign(n, 0);
  comp_.reserve(n);
  largest_.reserve(n);
  find_largest_component(n);
  dist_.assign(n, -1);
  marked_.assign(n, 0);
  out.diameter = csr_diameter();
  out.clustering_sum = csr_clustering_sum(n);
}

// Level-synchronous BFS from `src`: the next frontier is the OR of the
// frontier nodes' rows minus the seen set. Each level first lists the
// frontier's nodes, writing their hop count to dist_, so the OR over
// their rows runs word by word in a register. Stops once `reach` nodes are
// seen or the frontier empties; the seen set is left in its sweep block.
// slmob:alloc-free -- word arithmetic over rows_/sweep_/level_/dist_, sized by measure
GraphKernel::Sweep GraphKernel::bitset_bfs(std::uint32_t src, std::size_t words,
                                           std::size_t reach) {
  std::uint64_t* frontier = sweep_.data() + kFrontier * words;
  std::uint64_t* next = sweep_.data() + kNext * words;
  std::uint64_t* seen = sweep_.data() + kSeen * words;
  const std::uint64_t* rows = rows_.data();
  std::uint32_t* level = level_.data();
  std::fill_n(frontier, words, 0);
  std::fill_n(seen, words, 0);
  frontier[src / kWordBits] = bit(src);
  seen[src / kWordBits] = bit(src);
  Sweep sweep{src, 0, 1};
  for (;;) {
    std::size_t width = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = frontier[w]; bits != 0; bits &= bits - 1) {
        const auto node = static_cast<std::uint32_t>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
        level[width++] = node;
        dist_[node] = static_cast<std::int32_t>(sweep.eccentricity);
      }
    }
    if (sweep.reached == reach) return sweep;
    std::size_t grown = 0;
    for (std::size_t x = 0; x < words; ++x) {
      std::uint64_t acc = 0;
      for (std::size_t f = 0; f < width; ++f) acc |= rows[level[f] * words + x];
      next[x] = acc & ~seen[x];
      seen[x] |= next[x];
      grown += popcount(next[x]);
    }
    if (grown == 0) return sweep;
    sweep.reached += grown;
    ++sweep.eccentricity;
    std::swap(frontier, next);
  }
}

// Largest connected component: a BFS from each node no earlier BFS reached,
// in ascending order, so the lowest start node wins a size tie. It stops
// once the nodes left cannot form a larger component. The winner's node
// set is left in the kComponent block, and its BFS's hop counts stay in
// dist_, since later BFS only write the nodes of their own components.
// slmob:alloc-free -- word arithmetic over sweep_, sized by measure
GraphKernel::Sweep GraphKernel::bitset_largest_component(std::uint32_t n, std::size_t words) {
  std::uint64_t* visited = sweep_.data() + kVisited * words;
  std::uint64_t* component = sweep_.data() + kComponent * words;
  const std::uint64_t* seen = sweep_.data() + kSeen * words;
  // Padding bits past node n - 1 count as visited.
  if (n % kWordBits != 0) visited[words - 1] = ~std::uint64_t{0} << (n % kWordBits);
  Sweep largest;
  std::size_t unvisited = n;
  for (std::size_t w = 0; w < words && unvisited > largest.reached; ++w) {
    while (visited[w] != ~std::uint64_t{0} && unvisited > largest.reached) {
      const auto start = static_cast<std::uint32_t>(
          w * kWordBits + static_cast<std::size_t>(std::countr_one(visited[w])));
      const Sweep sweep = bitset_bfs(start, words, unvisited);
      for (std::size_t x = 0; x < words; ++x) visited[x] |= seen[x];
      unvisited -= sweep.reached;
      if (sweep.reached > largest.reached) {
        largest = sweep;
        std::copy_n(seen, words, component);
      }
    }
  }
  return largest;
}

// Exact diameter of the largest component from eccentricity bounds (Takes
// and Kosters, "Determining the diameter of small world networks", CIKM
// 2011). A BFS from v gives its eccentricity e(v) and the distance d(v, w)
// to every w, which bound w's eccentricity: max(d, e(v) - d) <= e(w) <=
// e(v) + d. The best lower bound on the diameter is the largest e(v) seen.
// A candidate whose upper bound is no larger cannot raise it and is
// dropped; once no candidate is left, that bound is the diameter. The next
// source alternates between the candidate of largest upper bound (likely
// far out) and the one of smallest lower bound (central: its small
// eccentricity tightens many upper bounds). The component search's BFS
// from the component's lowest node is the first source.
// slmob:alloc-free -- bounds in upper_/lower_, candidates in sweep_, sized by measure
std::size_t GraphKernel::bitset_diameter(std::size_t words, const Sweep& first) {
  if (first.reached < 2) return 0;
  std::uint64_t* candidates = sweep_.data() + kVisited * words;
  std::copy_n(sweep_.data() + kComponent * words, words, candidates);
  std::uint32_t diameter = 0;
  Sweep sweep = first;
  for (bool far = true;; far = !far) {
    const std::uint32_t e = sweep.eccentricity;
    diameter = std::max(diameter, e);
    std::uint32_t farthest = kUnbounded;
    std::uint32_t central = kUnbounded;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = candidates[w]; bits != 0; bits &= bits - 1) {
        const auto v = static_cast<std::uint32_t>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
        const auto d = static_cast<std::uint32_t>(dist_[v]);
        upper_[v] = std::min(upper_[v], e + d);
        lower_[v] = std::max(lower_[v], std::max(d, e - d));
        if (upper_[v] <= diameter) {
          candidates[w] &= ~bit(v);
          continue;
        }
        if (farthest == kUnbounded || upper_[v] > upper_[farthest]) farthest = v;
        if (central == kUnbounded || lower_[v] < lower_[central]) central = v;
      }
    }
    if (farthest == kUnbounded) return diameter;
    const std::uint32_t source = far ? farthest : central;
    // A source leaves the candidates whatever its bounds say, so the loop
    // runs at most one BFS per node.
    candidates[source / kWordBits] &= ~bit(source);
    sweep = bitset_bfs(source, words, first.reached);
    ++diameter_sweeps_;
  }
}

// Sum over nodes of the Watts-Strogatz coefficient. popcount(row_i & row_j)
// counts the triangles on edge (i, j), and summed over i's edges it counts
// each link between two neighbours of i twice.
// slmob:alloc-free -- popcounts over rows_/twice_links_, sized by measure
double GraphKernel::bitset_clustering_sum(const GraphPairList& pairs,
                                          const std::vector<std::uint32_t>& degrees,
                                          std::size_t words) {
  const std::uint64_t* rows = rows_.data();
  for (const auto& [i, j] : pairs) {
    const std::uint64_t* row_i = rows + i * words;
    const std::uint64_t* row_j = rows + j * words;
    std::uint32_t common = 0;
    for (std::size_t x = 0; x < words; ++x) {
      common += popcount(row_i[x] & row_j[x]);
    }
    twice_links_[i] += common;
    twice_links_[j] += common;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    const std::size_t k = degrees[i];
    if (k < 2) continue;
    const std::size_t links = twice_links_[i] / 2;
    total += 2.0 * static_cast<double>(links) /
             (static_cast<double>(k) * static_cast<double>(k - 1));
  }
  return total;
}

// CSR adjacency by counting sort: degree pass, prefix sum, scatter.
// slmob:alloc-free -- fills csr_offsets_/csr_cursor_/csr_adj_, which measure sized for this snapshot
void GraphKernel::build_csr(const GraphPairList& pairs, std::uint32_t n) {
  for (const auto& [i, j] : pairs) {
    ++csr_offsets_[i + 1];
    ++csr_offsets_[j + 1];
  }
  for (std::uint32_t i = 0; i < n; ++i) csr_offsets_[i + 1] += csr_offsets_[i];
  std::copy(csr_offsets_.begin(), csr_offsets_.end() - 1, csr_cursor_.begin());
  for (const auto& [i, j] : pairs) {
    csr_adj_[csr_cursor_[i]++] = j;
    csr_adj_[csr_cursor_[j]++] = i;
  }
}

// Largest connected component (the first discovered, by lowest start node,
// wins a size tie). comp_ doubles as the BFS queue: a component is exactly
// what the BFS visits.
// slmob:alloc-free -- comp_/largest_ hold at most n nodes, and measure reserved n for both
void GraphKernel::find_largest_component(std::uint32_t n) {
  largest_.clear();
  for (std::uint32_t start = 0; start < n; ++start) {
    if (visited_[start]) continue;
    comp_.clear();
    // slmob-lint: allow(alloc-free) -- capacity n reserved by measure
    comp_.push_back(start);
    visited_[start] = 1;
    for (std::size_t head = 0; head < comp_.size(); ++head) {
      const std::uint32_t u = comp_[head];
      for (std::uint32_t e = nbr_begin(u); e < nbr_end(u); ++e) {
        const std::uint32_t v = csr_adj_[e];
        if (!visited_[v]) {
          visited_[v] = 1;
          // slmob-lint: allow(alloc-free) -- capacity n reserved by measure
          comp_.push_back(v);
        }
      }
    }
    if (comp_.size() > largest_.size()) std::swap(largest_, comp_);
  }
}

// Diameter above the node limit: BFS from every node of the largest
// component, resetting only that component's distances between sweeps.
// slmob:alloc-free -- dist_ sized by measure; comp_ holds at most n nodes, n reserved by measure
std::size_t GraphKernel::csr_diameter() {
  if (largest_.size() < 2) return 0;
  std::size_t diameter = 0;
  diameter_sweeps_ = largest_.size();
  for (const std::uint32_t src : largest_) {
    for (const std::uint32_t u : largest_) dist_[u] = -1;
    comp_.clear();
    // slmob-lint: allow(alloc-free) -- capacity n reserved by measure
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
          // slmob-lint: allow(alloc-free) -- capacity n reserved by measure
          comp_.push_back(v);
        }
      }
    }
    diameter = std::max(diameter, ecc);
  }
  return diameter;
}

// Clustering sum above the node limit by neighbour marking: the same integer
// link counts, and so the same floating-point sum, as the bitset kernel.
// slmob:alloc-free -- neighbour marks in marked_, cleared by measure
double GraphKernel::csr_clustering_sum(std::uint32_t n) {
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
  out.degrees = degrees_.finish();
  out.diameters = diameters_.finish();
  out.clustering = clustering_.finish();
  out.snapshots_analyzed = snapshots_analyzed_;
  out.isolated_fraction =
      degree_samples_ == 0
          ? 0.0
          : static_cast<double>(isolated_) / static_cast<double>(degree_samples_);
  return out;
}

}  // namespace slmob
