#include "trace/codec.hpp"

#include <cmath>

namespace slmob {

void put_snapshot(ByteWriter& w, const Snapshot& snapshot) {
  w.f64(snapshot.time);
  w.u32(static_cast<std::uint32_t>(snapshot.fixes.size()));
  for (const auto& fix : snapshot.fixes) {
    w.u32(fix.id.value);
    w.f32(static_cast<float>(fix.pos.x));
    w.f32(static_cast<float>(fix.pos.y));
    w.f32(static_cast<float>(fix.pos.z));
  }
}

SnapshotHead get_snapshot_head(ByteReader& r) {
  SnapshotHead head;
  head.time = r.f64();
  head.fixes = r.u32();
  if (!std::isfinite(head.time)) throw DecodeError("non-finite snapshot time");
  return head;
}

// A NaN or infinite coordinate is no position, so the record is rejected
// like a non-finite snapshot time.
void get_fixes(ByteReader& r, const SnapshotHead& head, Snapshot& out) {
  if (kFixBytes * head.fixes > r.remaining()) throw DecodeError("truncated fix block");
  out.time = head.time;
  out.fixes.clear();
  out.fixes.reserve(head.fixes);
  for (std::uint32_t i = 0; i < head.fixes; ++i) {
    AvatarFix fix;
    fix.id = AvatarId{r.u32()};
    fix.pos.x = r.f32();
    fix.pos.y = r.f32();
    fix.pos.z = r.f32();
    if (!fix.pos.finite()) throw DecodeError("non-finite fix coordinate");
    out.fixes.push_back(fix);
  }
}

}  // namespace slmob
