#include "analysis/contacts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace slmob {
namespace {

constexpr Seconds kNoCap = std::numeric_limits<double>::infinity();
constexpr Seconds kUnset = std::numeric_limits<double>::quiet_NaN();

// MurmurHash3's 64-bit finalizer: avatar ids are small, structured
// integers, so every bit must reach the masked low bits.
std::uint64_t mix(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

// ---------------------------------------------------------------------------
// The key stage.

namespace {

// contact_keys' scratch, one per thread.
struct KeyScratch {
  std::vector<std::uint64_t> by_id;     // (id << 32 | fix index), sorted
  std::vector<std::uint32_t> rank;      // per fix: the rank of its id
  std::vector<std::uint32_t> rank_id;   // per rank: the id
  std::vector<std::uint64_t> ranked;    // (lo << 32 | hi) rank pairs
  std::vector<std::uint64_t> by_hi;     // `ranked`, stably ordered by hi
  std::vector<std::uint32_t> lo_start;  // counting-sort offsets per rank
  std::vector<std::uint32_t> hi_start;
};

// Turns per-rank counts, stored one place to the right, into start offsets.
void prefix_sum(std::vector<std::uint32_t>& counts) {
  for (std::size_t k = 1; k < counts.size(); ++k) counts[k] += counts[k - 1];
}

}  // namespace

void contact_keys(const Snapshot& snapshot, std::span<const ContactStream::PairList> lists,
                  std::span<ContactKeys> out) {
  thread_local KeyScratch s;
  const auto& fixes = snapshot.fixes;
  const std::size_t n = fixes.size();

  // Rank the distinct ids once: sorting ~65 (id, fix) words is cheap, and
  // ranks in id order make (lo, hi) rank order the key order.
  s.by_id.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.by_id[i] = (std::uint64_t{fixes[i].id.value} << 32) | i;
  }
  std::sort(s.by_id.begin(), s.by_id.end());
  s.rank.resize(n);
  s.rank_id.clear();
  for (const std::uint64_t v : s.by_id) {
    const auto id = static_cast<std::uint32_t>(v >> 32);
    if (s.rank_id.empty() || s.rank_id.back() != id) s.rank_id.push_back(id);
    s.rank[static_cast<std::uint32_t>(v)] = static_cast<std::uint32_t>(s.rank_id.size() - 1);
  }
  const std::size_t ranks = s.rank_id.size();

  // The loops below go through raw pointers: the byte-wide in_contact
  // stores may alias anything, and would otherwise make the compiler reload
  // every vector's data pointer after each of them.
  const std::uint32_t* rank = s.rank.data();
  const std::uint32_t* rank_id = s.rank_id.data();
  for (std::size_t ri = 0; ri < lists.size(); ++ri) {
    const ContactStream::PairList& pairs = lists[ri];
    ContactKeys& o = out[ri];
    o.in_contact.assign(n, 0);
    s.ranked.resize(pairs.size());
    s.lo_start.assign(ranks + 1, 0);
    s.hi_start.assign(ranks + 1, 0);
    std::uint8_t* in_contact = o.in_contact.data();
    std::uint64_t* ranked = s.ranked.data();
    std::uint32_t* lo_start = s.lo_start.data();
    std::uint32_t* hi_start = s.hi_start.data();
    std::size_t m = 0;
    for (const auto& [i, j] : pairs) {
      const std::uint32_t lo = std::min(rank[i], rank[j]);
      const std::uint32_t hi = std::max(rank[i], rank[j]);
      if (lo == hi) continue;  // two fixes of one avatar id: not a contact
      in_contact[i] = 1;
      in_contact[j] = 1;
      ranked[m++] = (std::uint64_t{lo} << 32) | hi;
      ++lo_start[lo + 1];
      ++hi_start[hi + 1];
    }
    prefix_sum(s.lo_start);
    prefix_sum(s.hi_start);
    // LSD counting sort: by hi, then stably by lo, so (lo, hi) ascends.
    // The second pass writes the id keys straight into the output.
    s.by_hi.resize(m);
    o.keys.resize(m);
    std::uint64_t* by_hi = s.by_hi.data();
    std::uint64_t* keys = o.keys.data();
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint64_t v = ranked[k];
      by_hi[hi_start[v & 0xffffffffu]++] = v;
    }
    for (std::size_t k = 0; k < m; ++k) {
      const auto lo = static_cast<std::uint32_t>(by_hi[k] >> 32);
      const auto hi = static_cast<std::uint32_t>(by_hi[k] & 0xffffffffu);
      keys[lo_start[lo]++] = (std::uint64_t{rank_id[lo]} << 32) | rank_id[hi];
    }
    // Fixes sharing an id reach the same pair of ids more than once.
    o.keys.erase(std::unique(o.keys.begin(), o.keys.end()), o.keys.end());
  }
}

// ---------------------------------------------------------------------------
// ContactStream::KeyTable

std::uint32_t ContactStream::KeyTable::find(std::uint64_t key) const {
  if (size_ == 0) return kMissing;
  for (std::size_t i = mix(key) & mask_;; i = (i + 1) & mask_) {
    const Bucket& b = buckets_[i];
    if (b.index == kMissing || b.key == key) return b.index;
  }
}

std::uint32_t ContactStream::KeyTable::insert(std::uint64_t key, std::uint32_t index) {
  if (2 * (size_ + 1) > buckets_.size()) grow(size_ + 1);
  for (std::size_t i = mix(key) & mask_;; i = (i + 1) & mask_) {
    Bucket& b = buckets_[i];
    if (b.index == kMissing) {
      b = {key, index};
      ++size_;
      return kMissing;
    }
    if (b.key == key) return b.index;
  }
}

void ContactStream::KeyTable::grow(std::size_t keys) {
  std::size_t capacity = 16;
  while (capacity < 2 * keys) capacity *= 2;
  std::vector<Bucket> old(capacity);
  old.swap(buckets_);
  mask_ = capacity - 1;
  for (const Bucket& b : old) {
    if (b.index == kMissing) continue;
    std::size_t i = mix(b.key) & mask_;
    while (buckets_[i].index != kMissing) i = (i + 1) & mask_;
    buckets_[i] = b;
  }
}

// ---------------------------------------------------------------------------
// ContactStream. The censoring logic runs unconditionally against the
// tracker's gaps-so-far; on a gap-free stream every censor predicate is
// vacuously false.

ContactStream::ContactStream(double range, Seconds tau, const GapTracker& gaps)
    : tau_(tau), gaps_(&gaps) {
  out_.range = range;
}

void ContactStream::close_contact(std::uint32_t slot, Seconds end) {
  ContactInterval& interval = out_.intervals[slot];
  interval.end = end;
  out_.contact_times.add(end - interval.start);
  if (epochs_active_) interval_epochs_[slot] = censor_epoch_;
}

// Closes every contact of the previous snapshot at `end`, in key order.
void ContactStream::close_all(Seconds end) {
  for (const std::uint32_t slot : prev_slots_) close_contact(slot, end);
  prev_keys_.clear();
  prev_slots_.clear();
}

// Censors all running observations at a coverage gap starting at `cap`:
// open contacts are truncated there (never bridged), the ICT chain is cut
// (an inter-contact time spanning unobserved time would be fabricated), and
// users still waiting for a first contact restart their FT clock if they
// reappear after the gap.
void ContactStream::censor_at_gap(Seconds cap) {
  if (!epochs_active_) {
    epochs_active_ = true;
    interval_epochs_.assign(out_.intervals.size(), 0);
  }
  close_all(std::min(prev_time_ + tau_, cap));
  ++censor_epoch_;
  for (std::size_t u = 0; u < first_seen_.size(); ++u) {
    if (std::isnan(first_contact_[u])) first_seen_[u] = kUnset;
  }
}

void ContactStream::on_snapshot(const Snapshot& snap, const PairList& pairs) {
  contact_keys(snap, std::span(&pairs, 1), std::span(&pair_keys_, 1));
  on_snapshot(snap, pair_keys_);
}

void ContactStream::on_snapshot(const Snapshot& snap, const ContactKeys& keys) {
  if (have_prev_ && gaps_->spans_gap(prev_time_, snap.time)) {
    censor_at_gap(gaps_->next_gap_start(prev_time_));
  }
  const Seconds prev_end = prev_time_ + tau_;  // of a contact last seen there
  have_prev_ = true;
  prev_time_ = snap.time;
  const Seconds t = snap.time;

  // FT: one pass over the fixes.
  for (std::size_t i = 0; i < snap.fixes.size(); ++i) {
    const auto next = static_cast<std::uint32_t>(first_seen_.size());
    std::uint32_t u = users_.insert(snap.fixes[i].id.value, next);
    if (u == KeyTable::kMissing) {
      u = next;
      first_seen_.push_back(t);
      first_contact_.push_back(kUnset);
    } else if (std::isnan(first_seen_[u])) {
      first_seen_[u] = t;
    }
    if (keys.in_contact[i] != 0 && std::isnan(first_contact_[u])) first_contact_[u] = t;
  }

  // Merge-join of the previous snapshot's keys with this one's. Opens take
  // the next output slots as they are met, in key order, so out_.intervals
  // stays ordered by (start, a, b) as it grows.
  const std::vector<std::uint64_t>& cur = keys.keys;
  cur_slots_.resize(cur.size());
  const std::uint64_t* prev = prev_keys_.data();
  const std::uint32_t* prev_slot = prev_slots_.data();
  const std::size_t prev_size = prev_keys_.size();
  std::uint32_t* slot = cur_slots_.data();
  std::size_t p = 0;
  for (std::size_t c = 0; c < cur.size(); ++c) {
    const std::uint64_t key = cur[c];
    while (p < prev_size && prev[p] < key) close_contact(prev_slot[p++], prev_end);
    if (p < prev_size && prev[p] == key) {
      slot[c] = prev_slot[p++];  // continues
      continue;
    }
    slot[c] = static_cast<std::uint32_t>(out_.intervals.size());
    const auto a = AvatarId{static_cast<std::uint32_t>(key >> 32)};
    const auto b = AvatarId{static_cast<std::uint32_t>(key & 0xffffffffu)};
    out_.intervals.push_back({a, b, t, t});
    if (epochs_active_) interval_epochs_.push_back(0);
  }
  for (; p < prev_size; ++p) close_contact(prev_slot[p], prev_end);
  prev_keys_.assign(cur.begin(), cur.end());
  std::swap(prev_slots_, cur_slots_);
}

// Emits one ICT sample per consecutive pair of same-pair intervals whose
// censoring epochs match (see the header note). The intervals are in start
// order, and per pair they never overlap, so start order is the pair's
// chronological order. A stable counting pass groups the interval indices
// by the dense user index of `a`; each user's group, sorted as (b, index)
// keys, then lists every pair of that user chronologically. Sample order is
// invisible, as every consumer of an Ecdf reads it sorted.
void ContactStream::derive_inter_contact_times() {
  const auto& intervals = out_.intervals;
  if (intervals.size() < 2) return;
  std::vector<std::uint32_t> group_end(first_seen_.size() + 1, 0);
  for (const ContactInterval& iv : intervals) ++group_end[users_.find(iv.a.value) + 1];
  for (std::size_t u = 1; u < group_end.size(); ++u) group_end[u] += group_end[u - 1];
  // Placing each index at group_end[u]++ moves group_end[u] from the start
  // of group u to its end, so each group then runs from the previous
  // group's end (0 for the first) to its own.
  std::vector<std::uint32_t> by_user(intervals.size());
  for (std::uint32_t i = 0; i < intervals.size(); ++i) {
    by_user[group_end[users_.find(intervals[i].a.value)]++] = i;
  }
  std::vector<std::uint64_t> group;  // (b << 32 | index) of one user
  std::uint32_t from = 0;
  for (std::size_t u = 0; u + 1 < group_end.size(); ++u) {
    const std::uint32_t to = group_end[u];
    group.clear();
    for (std::uint32_t k = from; k < to; ++k) {
      group.push_back((std::uint64_t{intervals[by_user[k]].b.value} << 32) | by_user[k]);
    }
    from = to;
    std::sort(group.begin(), group.end());
    for (std::size_t k = 1; k < group.size(); ++k) {
      if ((group[k - 1] >> 32) != (group[k] >> 32)) continue;  // another pair
      const auto prev = static_cast<std::uint32_t>(group[k - 1]);
      const auto cur = static_cast<std::uint32_t>(group[k]);
      if (epochs_active_ && interval_epochs_[prev] != interval_epochs_[cur]) continue;
      out_.inter_contact_times.add(intervals[cur].start - intervals[prev].end);
    }
  }
}

ContactAnalysis ContactStream::finish() {
  // Close whatever is still open. A gap after the last snapshot (a
  // trailing gap may arrive after it) truncates them at its start, exactly
  // like a censor mid-stream — even a gap shorter than tau that ends before
  // the last snapshot's time + tau.
  Seconds end = prev_time_ + tau_;
  if (have_prev_ && gaps_->spans_gap(prev_time_, kNoCap)) {
    end = std::min(end, gaps_->next_gap_start(prev_time_));
  }
  close_all(end);

  derive_inter_contact_times();

  out_.users_seen = first_seen_.size();
  for (std::size_t u = 0; u < first_contact_.size(); ++u) {
    if (std::isnan(first_contact_[u])) continue;
    // FT = 0 would vanish on the paper's log axis; credit half a sampling
    // interval to a user already in contact at its first snapshot.
    const Seconds ft = first_contact_[u] - first_seen_[u];
    out_.first_contact_times.add(ft > 0.0 ? ft : tau_ / 2.0);
  }
  out_.users_with_contact = out_.first_contact_times.size();
  return std::move(out_);
}

}  // namespace slmob
