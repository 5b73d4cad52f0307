// Relation ("acquaintance") graph analysis.
//
// Implements the future-work direction §5 of the paper sketches: "to build
// the network of 'relationships' among SL users. Based on the 'relation
// graph', new questions can be addressed such as the frequency and the
// strength of contact between acquaintances."
//
// The relation graph aggregates the whole measurement period: vertices are
// users, and an edge connects two users who shared at least
// `min_encounters` distinct contacts. Edges carry the paper's two proposed
// quantities:
//   * frequency — the number of distinct contact intervals of the pair;
//   * strength  — their total accumulated contact time.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/contacts.hpp"
#include "stats/ecdf.hpp"

namespace slmob {

struct Relation {
  AvatarId a;
  AvatarId b;
  std::size_t encounters{0};     // frequency of contact
  Seconds total_contact{0.0};    // strength of the tie
  Seconds first_met{0.0};
  Seconds last_seen_together{0.0};

  // Mean gap between consecutive encounters; 0 for single-encounter pairs.
  [[nodiscard]] Seconds mean_recontact_gap() const {
    if (encounters < 2) return 0.0;
    return (last_seen_together - first_met) / static_cast<double>(encounters - 1);
  }
};

struct RelationGraphOptions {
  // Pairs with fewer distinct contacts than this are chance proximity, not
  // an acquaintance.
  std::size_t min_encounters{2};
};

class RelationGraph {
 public:
  // Builds the graph from extracted contact intervals (analyze_contacts).
  RelationGraph(const std::vector<ContactInterval>& intervals,
                RelationGraphOptions options = {});

  [[nodiscard]] const std::vector<Relation>& relations() const { return relations_; }
  [[nodiscard]] std::size_t user_count() const { return degree_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return relations_.size(); }

  // Number of acquaintances of a user (0 if the user has none).
  [[nodiscard]] std::size_t degree(AvatarId user) const;

  // Distributions over edges / vertices:
  [[nodiscard]] Ecdf encounter_counts() const;   // frequency of contact
  [[nodiscard]] Ecdf tie_strengths() const;      // total contact seconds
  [[nodiscard]] Ecdf acquaintance_degrees() const;

  // Strongest ties first (by total contact time); at most `k` entries.
  [[nodiscard]] std::vector<Relation> strongest(std::size_t k) const;

  // Fraction of all pairs-with-any-contact that qualified as acquaintances
  // (repeated encounters). The paper's "are re-meetings common?" question.
  [[nodiscard]] double acquaintance_fraction() const { return acquaintance_fraction_; }

 private:
  std::vector<Relation> relations_;
  std::map<AvatarId, std::size_t> degree_;
  double acquaintance_fraction_{0.0};
};

}  // namespace slmob
