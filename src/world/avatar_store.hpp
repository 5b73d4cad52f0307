// AvatarStore: structure-of-arrays storage for the live avatar population.
//
// World::tick walks every avatar every simulated second; with std::map
// storage that walk is pointer chasing over ~200-byte nodes. The store keeps
// each hot field (position, waypoint, pause deadline, state) in its own
// contiguous array so the kinematics loop streams through memory, and the
// position array can be handed to the PairKernel without copying.
//
// Ordering contract: elements are kept sorted by ascending AvatarId — the
// exact iteration order of the std::map this replaces — so every RNG draw in
// World::tick happens in the same sequence and seeded runs stay bit-identical
// across the refactor. Insertion keeps the order (new ids are usually the
// largest, so the common case is an O(1) append); removal compacts without
// reordering.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"
#include "util/vec3.hpp"
#include "world/avatar.hpp"

namespace slmob {

class AvatarStore {
 public:
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }

  // Whole arrays, index-aligned. `positions()` is what World::within indexes.
  [[nodiscard]] const std::vector<AvatarId>& ids() const { return ids_; }
  [[nodiscard]] const std::vector<Vec3>& positions() const { return pos_; }

  // Per-field accessors (const + mutable); indices are ascending-id order.
  [[nodiscard]] AvatarId id(std::size_t i) const { return ids_[i]; }
  [[nodiscard]] const Vec3& pos(std::size_t i) const { return pos_[i]; }
  [[nodiscard]] Vec3& pos(std::size_t i) { return pos_[i]; }
  [[nodiscard]] const Vec3& waypoint(std::size_t i) const { return waypoint_[i]; }
  [[nodiscard]] Vec3& waypoint(std::size_t i) { return waypoint_[i]; }
  [[nodiscard]] const Vec3& anchor(std::size_t i) const { return anchor_[i]; }
  [[nodiscard]] double speed(std::size_t i) const { return speed_[i]; }
  [[nodiscard]] double& speed(std::size_t i) { return speed_[i]; }
  [[nodiscard]] Seconds pause_until(std::size_t i) const { return pause_until_[i]; }
  [[nodiscard]] Seconds& pause_until(std::size_t i) { return pause_until_[i]; }
  [[nodiscard]] Seconds login_time(std::size_t i) const { return login_time_[i]; }
  [[nodiscard]] Seconds logout_at(std::size_t i) const { return logout_at_[i]; }
  [[nodiscard]] Seconds last_intentional_move(std::size_t i) const { return last_move_[i]; }
  [[nodiscard]] Seconds& last_intentional_move(std::size_t i) { return last_move_[i]; }
  [[nodiscard]] double jitter_radius(std::size_t i) const { return jitter_radius_[i]; }
  [[nodiscard]] double jitter_rate(std::size_t i) const { return jitter_rate_[i]; }
  [[nodiscard]] AvatarState state(std::size_t i) const { return state_[i]; }
  [[nodiscard]] AvatarState& state(std::size_t i) { return state_[i]; }
  [[nodiscard]] AvatarKind kind(std::size_t i) const { return kind_[i]; }
  [[nodiscard]] int home_poi(std::size_t i) const { return home_poi_[i]; }
  [[nodiscard]] bool sitting(std::size_t i) const { return (flags_[i] & kFlagSitting) != 0; }
  [[nodiscard]] bool external(std::size_t i) const { return (flags_[i] & kFlagExternal) != 0; }
  [[nodiscard]] bool debug_pinned(std::size_t i) const {
    return (flags_[i] & kFlagPinned) != 0;
  }
  void set_sitting(std::size_t i, bool sitting) {
    if (sitting) {
      flags_[i] |= kFlagSitting;
    } else {
      flags_[i] &= static_cast<std::uint8_t>(~kFlagSitting);
    }
  }

  // Binary search over the sorted id array.
  [[nodiscard]] std::optional<std::size_t> index_of(AvatarId id) const;
  [[nodiscard]] bool contains(AvatarId id) const { return index_of(id).has_value(); }

  // AoS bridge for the MobilityModel interface and World::find: copies the
  // row out as an Avatar / writes a (same-id) Avatar back.
  [[nodiscard]] Avatar materialize(std::size_t i) const;
  void assign(std::size_t i, const Avatar& avatar);

  // Inserts at the id-sorted position and returns the index. The id must not
  // already be present.
  std::size_t insert(const Avatar& avatar);
  void erase(std::size_t i);

  // Order-preserving bulk removal: removes every index for which pred(i)
  // returns true. pred is called exactly once per element, in ascending
  // index order, before the element is moved — it may read any field of i.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    const std::size_t n = size();
    std::size_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (pred(i)) continue;
      if (w != i) move_row(i, w);
      ++w;
    }
    if (w != n) resize(w);
  }

 private:
  static constexpr std::uint8_t kFlagSitting = 0x01;
  static constexpr std::uint8_t kFlagExternal = 0x02;
  static constexpr std::uint8_t kFlagPinned = 0x04;

  void move_row(std::size_t from, std::size_t to);
  void resize(std::size_t n);

  std::vector<AvatarId> ids_;
  std::vector<Vec3> pos_;
  std::vector<Vec3> waypoint_;
  std::vector<Vec3> anchor_;
  std::vector<double> speed_;
  std::vector<Seconds> pause_until_;
  std::vector<Seconds> login_time_;
  std::vector<Seconds> logout_at_;
  std::vector<Seconds> last_move_;
  std::vector<double> jitter_radius_;
  std::vector<double> jitter_rate_;
  std::vector<int> current_poi_;
  std::vector<int> home_poi_;
  std::vector<AvatarState> state_;
  std::vector<AvatarKind> kind_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace slmob
