#include "analysis/contacts.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/proximity_cache.hpp"

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

ContactAnalysis analyze_contacts(const Trace& trace, const ProximityCache& cache,
                                 double range, const ContactOptions& options) {
  (void)options;
  GapTracker gaps;
  for (const auto& gap : trace.gaps()) gaps.add(gap.start, gap.end);
  ContactStream stream(range, trace.sampling_interval(), gaps);
  const auto& snaps = trace.snapshots();
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    // A snapshot inside a coverage gap carries no valid observation.
    if (gaps.covered_at(snaps[s].time)) stream.on_snapshot(snaps[s], cache.pairs(s, range));
  }
  return stream.finish();
}

ContactAnalysis analyze_contacts(const Trace& trace, double range,
                                 const ContactOptions& options) {
  const ProximityCache cache(trace, {range});
  return analyze_contacts(trace, cache, range, options);
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

void ContactStream::close_contact(const OpenContact& contact, Seconds end_cap) {
  const Seconds end = std::min(contact.last_seen + tau_, end_cap);
  const auto a = AvatarId{static_cast<std::uint32_t>(contact.key >> 32)};
  const auto b = AvatarId{static_cast<std::uint32_t>(contact.key & 0xffffffffu)};
  out_.intervals.push_back({a, b, contact.start, end});
  out_.contact_times.add(end - contact.start);
  if (epochs_active_) interval_epochs_.push_back(censor_epoch_);
  if (sink_) sink_(out_.intervals.back());
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
  for (const OpenContact& contact : prev_open_) close_contact(contact, cap);
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
  for (const auto& [i, j] : pairs) {
    const std::uint32_t ua = fix_user_[i];
    const std::uint32_t ub = fix_user_[j];
    if (ua == ub) continue;  // two fixes of one avatar id: not a contact
    const std::uint64_t key = pair_key(snap.fixes[i].id, snap.fixes[j].id);
    const auto record = static_cast<std::uint32_t>(cur_open_.size());
    if (cur_table_.insert(key, record) != KeyTable::kMissing) continue;  // duplicate pair
    Seconds start = t;
    if (const std::uint32_t p = prev_table_.find(key); p != KeyTable::kMissing) {
      start = prev_open_[p].start;
      prev_open_[p].last_seen = t;  // continued
    }
    cur_open_.push_back({key, start, t});
    if (std::isnan(first_contact_[ua])) first_contact_[ua] = t;
    if (std::isnan(first_contact_[ub])) first_contact_[ub] = t;
  }

  for (const OpenContact& contact : prev_open_) {
    if (contact.last_seen < t) close_contact(contact, kNoCap);
  }
  std::swap(prev_table_, cur_table_);
  std::swap(prev_open_, cur_open_);
}

// Emits one ICT sample per consecutive pair of same-pair intervals whose
// censoring epochs match (see the header note). Per pair, closure order is
// chronological, so ordering intervals by (pair, start) recovers the
// chains; sample order is invisible, as every consumer of an Ecdf reads it
// sorted.
void ContactStream::derive_inter_contact_times() {
  auto& intervals = out_.intervals;
  if (intervals.size() < 2) return;
  const auto by_pair_then_start = [](const ContactInterval& x, const ContactInterval& y) {
    return std::tie(x.a.value, x.b.value, x.start) <
           std::tie(y.a.value, y.b.value, y.start);
  };
  if (!epochs_active_) {
    // No censor ever fired: every consecutive pair of contacts chains, and
    // the intervals can be sorted in place (finish() re-sorts them into
    // output order right after). This is the whole-trace common case, kept
    // free of scratch allocations on purpose: the streaming engine's peak
    // memory on a gap-free day-long trace is measured by the benchmark.
    std::sort(intervals.begin(), intervals.end(), by_pair_then_start);
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const ContactInterval& prev = intervals[i - 1];
      const ContactInterval& cur = intervals[i];
      if (prev.a == cur.a && prev.b == cur.b) {
        out_.inter_contact_times.add(cur.start - prev.end);
      }
    }
    return;
  }
  // Censored stream: epochs are recorded per closure index, so sort an
  // index view instead of the intervals themselves.
  std::vector<std::uint32_t> order(intervals.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return by_pair_then_start(intervals[x], intervals[y]);
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const ContactInterval& prev = intervals[order[i - 1]];
    const ContactInterval& cur = intervals[order[i]];
    if (prev.a == cur.a && prev.b == cur.b &&
        interval_epochs_[order[i - 1]] == interval_epochs_[order[i]]) {
      out_.inter_contact_times.add(cur.start - prev.end);
    }
  }
}

ContactAnalysis ContactStream::finish() {
  // Close whatever is still open. A gap after the last snapshot (a
  // trailing gap may arrive after it) truncates them at its start, exactly
  // like a censor mid-stream — even a gap shorter than tau that ends before
  // last_seen + tau.
  Seconds final_cap = kNoCap;
  if (have_prev_ && gaps_->spans_gap(prev_time_, kNoCap)) {
    final_cap = gaps_->next_gap_start(prev_time_);
  }
  for (const OpenContact& contact : prev_open_) close_contact(contact, final_cap);
  prev_open_.clear();
  prev_table_.clear();

  derive_inter_contact_times();
  std::sort(out_.intervals.begin(), out_.intervals.end(),
            [](const ContactInterval& x, const ContactInterval& y) {
              return std::tie(x.start, x.a.value, x.b.value) <
                     std::tie(y.start, y.a.value, y.b.value);
            });

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
