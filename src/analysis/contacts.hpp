// Contact-opportunity analysis (§3.1 of the paper).
//
// Given a sampled trace and a communication range r, a contact between two
// users is a maximal run of consecutive snapshots in which their distance is
// <= r. Because the trace is sampled every tau seconds, a contact observed
// in snapshots [t_s .. t_e] is credited duration (t_e - t_s) + tau: a pair
// seen together exactly once was in range for at least one sampling period.
//
// Metrics produced:
//  * CT  — contact time: duration of each contact interval;
//  * ICT — inter-contact time: gap between consecutive contacts of the same
//          pair (start_{k+1} - end_k);
//  * FT  — first contact time: per user, the wait between its first
//          appearance in the trace and its first contact with anyone
//          (users that never have a contact are excluded, i.e. censored).
//
// Coverage gaps: when the trace records crawler coverage gaps, every metric
// is censored at gap edges — contacts running into a gap are truncated at
// the gap start (never bridged across it), no ICT sample spans a gap, and
// users awaiting a first contact restart their FT observation after the gap.
// On a gap-free trace no censoring applies.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "stats/ecdf.hpp"
#include "trace/stream.hpp"
#include "trace/trace.hpp"

namespace slmob {

// A closed contact interval between a pair of users (a.value < b.value).
struct ContactInterval {
  AvatarId a;
  AvatarId b;
  Seconds start{0.0};
  Seconds end{0.0};

  [[nodiscard]] Seconds duration() const { return end - start; }
};

struct ContactAnalysis {
  double range{0.0};
  std::vector<ContactInterval> intervals;  // ordered by (start, a, b)
  Ecdf contact_times;
  Ecdf inter_contact_times;
  Ecdf first_contact_times;
  std::size_t users_seen{0};
  std::size_t users_with_contact{0};
};

// One snapshot's contacts at one range, as the ordered merge reads them.
// `keys` holds every pair of distinct avatar ids within range as a 64-bit
// key (smaller id << 32 | larger id), sorted ascending and without repeats;
// `in_contact[i]` is 1 iff fix i is within range of a fix with another id.
// A pair of two fixes carrying the same avatar id (a duplicate id within
// one snapshot) is not a contact and appears in neither.
struct ContactKeys {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint8_t> in_contact;  // per fix
};

// Incremental contact extraction over a snapshot stream: feed every covered
// snapshot (empty ones too — absence is what closes contacts) with its
// contact keys, in time order, and call finish() once. Censoring reads the
// shared GapTracker, which by the stream ordering contract already holds
// every gap relevant to the snapshot being processed, so the censoring
// decisions equal those made with the finished trace's gap list. On a
// gap-free stream the censor branches never fire.
//
// A contact is a maximal run of consecutive snapshots holding its key, so
// each snapshot is a run-length step over two sorted key vectors: a linear
// merge-join of the previous snapshot's keys with the current ones. A key
// in both continues, a key only in the previous vector closes, and a key
// only in the current one opens. An open contact's `slot` is the index of
// its interval in the output, taken when it opens; the slots run parallel
// to the keys. The contacts opening in one snapshot are met in key order,
// so the intervals come out ordered by (start, a, b) without a sort, and
// every close (a censor's too) happens in key order, so nothing the stream
// emits depends on the order of a snapshot's pair list. ContactOracle.*
// (tests/test_analysis_contacts.cpp) checks CT, ICT and FT against a
// per-pair brute force, gaps included, and the output order; ContactKeys.*
// checks the key stage against a brute-force set of id pairs.
class ContactStream {
 public:
  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  ContactStream(double range, Seconds tau, const GapTracker& gaps);

  // `keys` as contact_keys builds them for `snapshot`.
  void on_snapshot(const Snapshot& snapshot, const ContactKeys& keys);
  // Builds the snapshot's keys from its in-range fix-index pairs with
  // contact_keys, then runs the merge above.
  void on_snapshot(const Snapshot& snapshot, const PairList& pairs);
  [[nodiscard]] ContactAnalysis finish();

 private:
  // Open-addressing map from a 64-bit key to a dense record index, with
  // linear probing. Capacity is a power of two kept >= 2x the keys, grown
  // on insert; a bucket holding kMissing is empty.
  class KeyTable {
   public:
    static constexpr std::uint32_t kMissing = 0xffffffffu;

    // The index stored for `key`, or kMissing.
    [[nodiscard]] std::uint32_t find(std::uint64_t key) const;
    // Stores key -> index unless `key` is present; returns the index already
    // stored, or kMissing when this call inserted.
    std::uint32_t insert(std::uint64_t key, std::uint32_t index);

   private:
    struct Bucket {
      std::uint64_t key{0};
      std::uint32_t index{kMissing};
    };
    void grow(std::size_t keys);

    std::vector<Bucket> buckets_;
    std::size_t mask_{0};
    std::size_t size_{0};
  };

  void close_contact(std::uint32_t slot, Seconds end);
  void close_all(Seconds end);
  void censor_at_gap(Seconds cap);
  void derive_inter_contact_times();

  Seconds tau_;
  const GapTracker* gaps_;
  ContactAnalysis out_;  // its Ecdfs are built from these at finish()
  EcdfAccumulator contact_times_;
  EcdfAccumulator inter_contact_times_;
  EcdfAccumulator first_contact_times_;
  // Users: avatar id -> dense index, looked up once per fix. Per user, the
  // time of its first (covered) appearance and of its first contact; NaN
  // means unset. A censor unsets first_seen_ for users still without a
  // contact, so their FT clock restarts when they reappear. Every indexed
  // user was seen in a covered snapshot, so users_seen is the index size.
  KeyTable users_;
  std::vector<Seconds> first_seen_;
  std::vector<Seconds> first_contact_;
  // The contacts running through the previous snapshot: its sorted keys
  // and, parallel to them, their output slots. The merge fills cur_slots_
  // for the current keys, which then become the previous ones.
  std::vector<std::uint64_t> prev_keys_;
  std::vector<std::uint32_t> prev_slots_;
  std::vector<std::uint32_t> cur_slots_;
  ContactKeys pair_keys_;  // scratch of the pair-list on_snapshot
  // ICT is derived at finish() from consecutive intervals of the same pair
  // instead of a per-pair "end of previous contact" map — that map holds an
  // entry for every pair that ever met and was the stream's largest
  // non-output allocation on a day-long trace. finish() groups the
  // (start-ordered) interval indices by user `a` in one counting pass and
  // sorts each user's group by `b`: 4 bytes per interval plus O(users) of
  // scratch, and no sort of the whole output. The rule "a gap cuts the ICT
  // chain" is reproduced by a censoring epoch: every censor bumps it, every
  // interval records the epoch of its closure (indexed by its slot), and
  // consecutive contacts of a pair chain only when their epochs match. An
  // interval closed by the censor itself records the pre-bump epoch, so it
  // can never chain forward. Epoch storage is allocated lazily at the first
  // censor; a gap-free stream (no censors, every pair chains) records
  // nothing.
  std::uint32_t censor_epoch_{0};
  std::vector<std::uint32_t> interval_epochs_;
  bool epochs_active_{false};
  bool have_prev_{false};
  Seconds prev_time_{0.0};
};

// The key stage: builds out[ri] from lists[ri], the in-range fix-index
// pairs of `snapshot` at each range, in any order (out.size() ==
// lists.size()). The
// snapshot's distinct ids are ranked once and the ranks shared by every
// range; each range's pairs are then put in (lower rank, higher rank) order
// by a two-pass counting sort, so the keys come out sorted in O(pairs +
// fixes) without comparing pairs. Scratch is thread_local, so concurrent
// calls on different threads are safe, and warm calls that reuse their
// outputs do not allocate. StreamingAnalyzer runs it in its parallel window
// fan-out; ContactStream's pair-list on_snapshot runs it inline.
void contact_keys(const Snapshot& snapshot, std::span<const ContactStream::PairList> lists,
                  std::span<ContactKeys> out);

}  // namespace slmob
