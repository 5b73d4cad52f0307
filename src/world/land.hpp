// A land (a.k.a. island, region): the 256 x 256 m unit of the metaverse the
// paper monitors. A land carries points of interest (POIs) that drive the
// POI-gravity mobility model, spawn points where avatars appear, and the
// region policy knobs the paper mentions (capacity, object permissions).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "util/vec3.hpp"

namespace slmob {

// Default region edge length in metres (Second Life convention).
constexpr double kDefaultLandSize = 256.0;

// A point of interest: a disc that attracts avatars.
struct Poi {
  std::string name;
  Vec3 center;
  double radius{8.0};   // avatars dwell within this disc
  double weight{1.0};   // relative popularity (normalised by the model)
};

// Region policies for in-world objects, modelling the restrictions §2 of the
// paper describes (private lands forbid object deployment; on public lands
// objects expire).
enum class LandAccess {
  kPublic,    // objects allowed but expire after object_lifetime
  kPrivate,   // object deployment forbidden without authorisation
  kSandbox,   // objects allowed, expire aggressively
};

class Land {
 public:
  Land(std::string name, double size = kDefaultLandSize);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double size() const { return size_; }

  void add_poi(Poi poi);
  [[nodiscard]] const std::vector<Poi>& pois() const { return pois_; }

  void add_spawn_point(Vec3 p);
  [[nodiscard]] const std::vector<Vec3>& spawn_points() const { return spawn_points_; }

  void set_access(LandAccess access) { access_ = access; }
  [[nodiscard]] LandAccess access() const { return access_; }

  // Lifetime of a deployed object on public/sandbox land, in seconds.
  void set_object_lifetime(double seconds) { object_lifetime_ = seconds; }
  [[nodiscard]] double object_lifetime() const { return object_lifetime_; }

  // Maximum concurrent avatars (the paper: "roughly 100 users per land").
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Ground altitude; avatars move on this plane.
  [[nodiscard]] double ground_z() const { return ground_z_; }

  // Clamps a point into the land's [0, size) x [0, size) square (z forced to
  // ground level). Positions must never leave the region.
  [[nodiscard]] Vec3 clamp(Vec3 p) const;
  [[nodiscard]] bool contains(const Vec3& p) const;

 private:
  std::string name_;
  double size_;
  double ground_z_{22.0};
  std::vector<Poi> pois_;
  std::vector<Vec3> spawn_points_;
  LandAccess access_{LandAccess::kPublic};
  double object_lifetime_{3600.0};
  std::size_t capacity_{100};
};

}  // namespace slmob
