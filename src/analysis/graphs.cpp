#include "analysis/graphs.hpp"

#include <algorithm>
#include <bit>

namespace slmob {

namespace {

constexpr std::size_t kWordBits = 64;

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
  if (node_count == 0) return;
  const auto n = static_cast<std::uint32_t>(node_count);

  csr_offsets_.assign(n + 1, 0);
  csr_cursor_.resize(n);
  csr_adj_.resize(pairs.size() * 2);
  build_csr(pairs, n);
  for (std::uint32_t i = 0; i < n; ++i) out.degrees[i] = nbr_end(i) - nbr_begin(i);

  visited_.assign(n, 0);
  comp_.reserve(n);
  largest_.reserve(n);
  find_largest_component(n);

  // Diameter and clustering: the bitset kernel up to the node limit, the
  // CSR loops above it. Both give the same integers, so the same samples.
  if (node_count <= kBitsetMaxNodes) {
    const std::size_t words = (node_count + kWordBits - 1) / kWordBits;
    rows_.assign(node_count * words, 0);
    sweep_.assign(4 * words, 0);
    twice_links_.assign(n, 0);
    level_.resize(n);
    build_rows(pairs, words);
    out.diameter = bitset_diameter(words);
    out.clustering_sum = bitset_clustering_sum(pairs, n, words);
  } else {
    dist_.assign(n, -1);
    marked_.assign(n, 0);
    out.diameter = csr_diameter();
    out.clustering_sum = csr_clustering_sum(n);
  }
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

// slmob:alloc-free -- sets bits in rows_, which measure sized for this snapshot
void GraphKernel::build_rows(const GraphPairList& pairs, std::size_t words) {
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
// slmob:alloc-free -- word arithmetic over rows_/sweep_/level_, sized by measure
std::size_t GraphKernel::bitset_diameter(std::size_t words) {
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
// slmob:alloc-free -- popcounts over rows_/twice_links_, sized by measure
double GraphKernel::bitset_clustering_sum(const GraphPairList& pairs, std::uint32_t n,
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
// slmob:alloc-free -- dist_ sized by measure; comp_ holds at most n nodes, n reserved by measure
std::size_t GraphKernel::csr_diameter() {
  if (largest_.size() < 2) return 0;
  std::size_t diameter = 0;
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
