// Minimal 3-D vector used for avatar positions and distances.
//
// Coordinates follow the Second Life convention: a land (region) is a
// 256 x 256 m square, x/y in [0, 256), z is altitude in metres.
#pragma once

#include <cmath>
#include <ostream>

namespace slmob {

struct Vec3 {
  double x{0.0};
  double y{0.0};
  double z{0.0};

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  constexpr bool operator==(const Vec3& o) const = default;
  // False for a NaN or infinite coordinate: no position at all.
  [[nodiscard]] bool finite() const {
    return std::isfinite(x) && std::isfinite(y) && std::isfinite(z);
  }

  [[nodiscard]] double norm() const { return std::sqrt(x * x + y * y + z * z); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y + z * z; }
  [[nodiscard]] double distance_to(const Vec3& o) const { return (*this - o).norm(); }
  // Planar (ground) distance; altitude differences are ignored. Line-of-sight
  // radio ranges in the paper are effectively planar because avatars stay at
  // ground level.
  [[nodiscard]] double distance2d_to(const Vec3& o) const {
    const double dx = x - o.x;
    const double dy = y - o.y;
    return std::sqrt(dx * dx + dy * dy);
  }
  // Unit vector pointing from *this towards `target`; zero vector if equal.
  [[nodiscard]] Vec3 direction_to(const Vec3& target) const {
    const Vec3 d = target - *this;
    const double n = d.norm();
    if (n <= 0.0) return {};
    return d / n;
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

}  // namespace slmob
