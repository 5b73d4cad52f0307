#include "analysis/contacts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/incremental_proximity.hpp"

namespace slmob {
namespace {

constexpr Seconds kNoCap = std::numeric_limits<double>::infinity();
constexpr Seconds kUnset = std::numeric_limits<double>::quiet_NaN();

std::uint64_t pair_key(AvatarId a, AvatarId b) {
  const auto lo = std::min(a.value, b.value);
  const auto hi = std::max(a.value, b.value);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// MurmurHash3's 64-bit finalizer: pair keys and avatar ids are small,
// structured integers, so every bit must reach the masked low bits.
std::uint64_t mix(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

ContactAnalysis analyze_contacts(const Trace& trace, double range) {
  GapTracker gaps;
  for (const auto& gap : trace.gaps()) gaps.add(gap.start, gap.end);
  ContactStream stream(range, trace.sampling_interval(), gaps);
  for_each_covered_snapshot(trace, range, [&](const Snapshot& snap, const auto& pairs) {
    stream.on_snapshot(snap, pairs);
  });
  return stream.finish();
}

// ---------------------------------------------------------------------------
// ContactStream::KeyTable

std::uint32_t ContactStream::KeyTable::find(std::uint64_t key) const {
  if (size_ == 0) return kMissing;
  for (std::size_t i = mix(key) & mask_;; i = (i + 1) & mask_) {
    const Bucket& b = buckets_[i];
    if (b.generation != generation_) return kMissing;
    if (b.key == key) return b.index;
  }
}

std::uint32_t ContactStream::KeyTable::insert(std::uint64_t key, std::uint32_t index) {
  if (2 * (size_ + 1) > buckets_.size()) grow(size_ + 1);
  for (std::size_t i = mix(key) & mask_;; i = (i + 1) & mask_) {
    Bucket& b = buckets_[i];
    if (b.generation != generation_) {
      b = {key, index, generation_};
      ++size_;
      return kMissing;
    }
    if (b.key == key) return b.index;
  }
}

void ContactStream::KeyTable::clear() {
  size_ = 0;
  if (++generation_ == 0) {
    // Stamp wrap-around: reset every bucket once per 2^32 clears.
    for (Bucket& b : buckets_) b.generation = 0;
    generation_ = 1;
  }
}

void ContactStream::KeyTable::grow(std::size_t keys) {
  std::size_t capacity = 16;
  while (capacity < 2 * keys) capacity *= 2;
  std::vector<Bucket> old(capacity);
  old.swap(buckets_);
  mask_ = capacity - 1;
  for (const Bucket& b : old) {
    if (b.generation != generation_) continue;
    std::size_t i = mix(b.key) & mask_;
    while (buckets_[i].generation == generation_) i = (i + 1) & mask_;
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

void ContactStream::close_contact(const OpenContact& contact, Seconds end) {
  ContactInterval& interval = out_.intervals[contact.slot];
  interval.end = end;
  out_.contact_times.add(end - interval.start);
  if (epochs_active_) interval_epochs_[contact.slot] = censor_epoch_;
  if (sink_) sink_(interval);
}

// Censors all running observations at a coverage gap starting at `cap`:
// open contacts are truncated there (never bridged), the ICT chain is cut
// (an inter-contact time spanning unobserved time would be fabricated), and
// users still waiting for a first contact restart their FT clock if they
// reappear after the gap. Open contacts close in key order, so the interval
// sink sees a closure order that does not depend on the pair lists' order.
void ContactStream::censor_at_gap(Seconds cap) {
  if (!epochs_active_) {
    epochs_active_ = true;
    interval_epochs_.assign(out_.intervals.size(), 0);
  }
  std::sort(prev_open_.begin(), prev_open_.end(),
            [](const OpenContact& x, const OpenContact& y) { return x.key < y.key; });
  const Seconds end = std::min(prev_time_ + tau_, cap);
  for (const OpenContact& contact : prev_open_) close_contact(contact, end);
  prev_open_.clear();
  prev_table_.clear();
  ++censor_epoch_;
  for (std::size_t u = 0; u < first_seen_.size(); ++u) {
    if (std::isnan(first_contact_[u])) first_seen_[u] = kUnset;
  }
}

void ContactStream::on_snapshot(const Snapshot& snap, const PairList& pairs) {
  if (have_prev_ && gaps_->spans_gap(prev_time_, snap.time)) {
    censor_at_gap(gaps_->next_gap_start(prev_time_));
  }
  const Seconds prev_end = prev_time_ + tau_;  // of a contact last seen there
  have_prev_ = true;
  prev_time_ = snap.time;
  const Seconds t = snap.time;

  fix_user_.resize(snap.fixes.size());
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
    fix_user_[i] = u;
  }

  cur_table_.clear();
  cur_open_.clear();
  opened_.clear();
  for (const auto& [i, j] : pairs) {
    const std::uint32_t ua = fix_user_[i];
    const std::uint32_t ub = fix_user_[j];
    if (ua == ub) continue;  // two fixes of one avatar id: not a contact
    const std::uint64_t key = pair_key(snap.fixes[i].id, snap.fixes[j].id);
    const auto record = static_cast<std::uint32_t>(cur_open_.size());
    if (cur_table_.insert(key, record) != KeyTable::kMissing) continue;  // duplicate pair
    if (const std::uint32_t p = prev_table_.find(key); p != KeyTable::kMissing) {
      cur_open_.push_back({key, prev_open_[p].slot});
      prev_open_[p].slot = kContinued;
    } else {
      cur_open_.push_back({key, 0});  // its slot is taken below
      opened_.push_back(record);
    }
    if (std::isnan(first_contact_[ua])) first_contact_[ua] = t;
    if (std::isnan(first_contact_[ub])) first_contact_[ub] = t;
  }

  // The contacts opening now take the next output slots in key order, so
  // out_.intervals stays ordered by (start, a, b) as it grows.
  std::sort(opened_.begin(), opened_.end(), [this](std::uint32_t x, std::uint32_t y) {
    return cur_open_[x].key < cur_open_[y].key;
  });
  for (const std::uint32_t record : opened_) {
    OpenContact& contact = cur_open_[record];
    contact.slot = static_cast<std::uint32_t>(out_.intervals.size());
    const auto a = AvatarId{static_cast<std::uint32_t>(contact.key >> 32)};
    const auto b = AvatarId{static_cast<std::uint32_t>(contact.key & 0xffffffffu)};
    out_.intervals.push_back({a, b, t, t});
    if (epochs_active_) interval_epochs_.push_back(0);
  }

  for (const OpenContact& contact : prev_open_) {
    if (contact.slot != kContinued) close_contact(contact, prev_end);
  }
  std::swap(prev_table_, cur_table_);
  std::swap(prev_open_, cur_open_);
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
  for (const OpenContact& contact : prev_open_) close_contact(contact, end);
  prev_open_.clear();
  prev_table_.clear();

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
