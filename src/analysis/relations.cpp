#include "analysis/relations.hpp"

#include <algorithm>
#include <unordered_map>

namespace slmob {
namespace {

std::uint64_t pair_key(AvatarId a, AvatarId b) {
  const auto lo = std::min(a.value, b.value);
  const auto hi = std::max(a.value, b.value);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

}  // namespace

RelationGraph::RelationGraph(const std::vector<ContactInterval>& intervals,
                             RelationGraphOptions options) {
  std::unordered_map<std::uint64_t, Relation> pairs;
  for (const auto& interval : intervals) {
    auto [it, inserted] = pairs.try_emplace(pair_key(interval.a, interval.b));
    Relation& rel = it->second;
    if (inserted) {
      rel.a = AvatarId{std::min(interval.a.value, interval.b.value)};
      rel.b = AvatarId{std::max(interval.a.value, interval.b.value)};
      rel.first_met = interval.start;
    }
    rel.first_met = std::min(rel.first_met, interval.start);
    rel.last_seen_together = std::max(rel.last_seen_together, interval.end);
    ++rel.encounters;
    rel.total_contact += interval.duration();
  }

  std::size_t acquaintances = 0;
  // slmob-lint: allow(ordered-iteration) -- relations_ is sorted canonically right after this loop; degree_ is an ordered map
  for (auto& [key, rel] : pairs) {
    if (rel.encounters >= options.min_encounters) {
      ++acquaintances;
      ++degree_[rel.a];
      ++degree_[rel.b];
      relations_.push_back(rel);
    }
  }
  if (!pairs.empty()) {
    acquaintance_fraction_ =
        static_cast<double>(acquaintances) / static_cast<double>(pairs.size());
  }
  std::sort(relations_.begin(), relations_.end(), [](const Relation& x, const Relation& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
}

std::size_t RelationGraph::degree(AvatarId user) const {
  const auto it = degree_.find(user);
  return it == degree_.end() ? 0 : it->second;
}

Ecdf RelationGraph::encounter_counts() const {
  EcdfAccumulator out;
  for (const auto& rel : relations_) out.add(static_cast<double>(rel.encounters));
  return out.finish();
}

Ecdf RelationGraph::tie_strengths() const {
  EcdfAccumulator out;
  for (const auto& rel : relations_) out.add(rel.total_contact);
  return out.finish();
}

Ecdf RelationGraph::acquaintance_degrees() const {
  EcdfAccumulator out;
  for (const auto& [user, deg] : degree_) out.add(static_cast<double>(deg));
  return out.finish();
}

std::vector<Relation> RelationGraph::strongest(std::size_t k) const {
  std::vector<Relation> sorted = relations_;
  std::sort(sorted.begin(), sorted.end(), [](const Relation& x, const Relation& y) {
    return x.total_contact > y.total_contact;
  });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

}  // namespace slmob
