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
#include <functional>
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
  std::vector<ContactInterval> intervals;  // time-ordered by start
  Ecdf contact_times;
  Ecdf inter_contact_times;
  Ecdf first_contact_times;
  std::size_t users_seen{0};
  std::size_t users_with_contact{0};
};

// Extracts all contacts from `trace` with communication range `range`:
// IncrementalProximity supplies each covered snapshot's in-range pairs to one
// ContactStream.
ContactAnalysis analyze_contacts(const Trace& trace, double range);

// Incremental contact extraction over a snapshot stream: feed every covered
// snapshot (empty ones too — absence is what closes contacts) with its
// in-range pair list, in time order, and call finish() once. Censoring reads
// the shared GapTracker, which by the stream ordering contract already holds
// every gap relevant to the snapshot being processed, so the censoring
// decisions equal those made with the finished trace's gap list. On a
// gap-free stream the censor branches never fire. Pairs of two fixes
// carrying the same avatar id (a duplicate id within one snapshot) are not
// contacts and are skipped. ContactOracle.* (tests/test_analysis_contacts.cpp)
// checks CT, ICT and FT against a per-pair brute force, gaps included.
class ContactStream {
 public:
  using PairList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

  ContactStream(double range, Seconds tau, const GapTracker& gaps);

  // Optional: observe every contact interval as it closes (closure order;
  // per pair this is chronological). Used to chain relation analysis.
  void set_interval_sink(std::function<void(const ContactInterval&)> sink) {
    sink_ = std::move(sink);
  }

  void on_snapshot(const Snapshot& snapshot, const PairList& pairs);
  [[nodiscard]] ContactAnalysis finish();

 private:
  // Open-addressing map from a 64-bit key to a dense record index, with
  // linear probing. Buckets carry a generation stamp, so clear() is O(1);
  // capacity is a power of two kept >= 2x the live keys, grown on insert.
  class KeyTable {
   public:
    static constexpr std::uint32_t kMissing = 0xffffffffu;

    // The index stored for `key`, or kMissing.
    [[nodiscard]] std::uint32_t find(std::uint64_t key) const;
    // Stores key -> index unless `key` is present; returns the index already
    // stored, or kMissing when this call inserted.
    std::uint32_t insert(std::uint64_t key, std::uint32_t index);
    void clear();

   private:
    struct Bucket {
      std::uint64_t key{0};
      std::uint32_t index{0};
      std::uint32_t generation{0};  // live iff == generation_
    };
    void grow(std::size_t keys);

    std::vector<Bucket> buckets_;
    std::size_t mask_{0};
    std::size_t size_{0};
    std::uint32_t generation_{1};
  };

  // A contact running through the previous (or current) snapshot. Every
  // record of a snapshot's table was seen in that snapshot; last_seen is
  // raised to the next snapshot's time when the pair is seen again, so a
  // previous record still below the current time has ended.
  struct OpenContact {
    std::uint64_t key;
    Seconds start;
    Seconds last_seen;
  };
  void close_contact(const OpenContact& contact, Seconds end_cap);
  void censor_at_gap(Seconds cap);
  void derive_inter_contact_times();

  Seconds tau_;
  const GapTracker* gaps_;
  std::function<void(const ContactInterval&)> sink_;
  ContactAnalysis out_;
  // Users: avatar id -> dense index, looked up once per fix. Per user, the
  // time of its first (covered) appearance and of its first contact; NaN
  // means unset. A censor unsets first_seen_ for users still without a
  // contact, so their FT clock restarts when they reappear. Every indexed
  // user was seen in a covered snapshot, so users_seen is the index size.
  KeyTable users_;
  std::vector<Seconds> first_seen_;
  std::vector<Seconds> first_contact_;
  std::vector<std::uint32_t> fix_user_;  // scratch: this snapshot's fix -> user
  // Open contacts of the previous snapshot (prev_) and the one being
  // processed (cur_), each a key table over a dense record vector. A pair
  // of the current snapshot carries its start over from prev_; records of
  // prev_ left uncontinued are closed, then the two sides swap.
  KeyTable prev_table_;
  KeyTable cur_table_;
  std::vector<OpenContact> prev_open_;
  std::vector<OpenContact> cur_open_;
  // ICT is derived at finish() from consecutive intervals of the same pair
  // instead of a per-pair "end of previous contact" map — that map holds an
  // entry for every pair that ever met and was the stream's largest
  // non-output allocation on a day-long trace. The rule "a gap cuts the ICT
  // chain" is reproduced by a censoring epoch: every censor bumps it, every
  // interval records the epoch of its closure, and consecutive contacts of
  // a pair chain only when their epochs match. An interval closed by the
  // censor itself records the pre-bump epoch, so it can never chain
  // forward. Epoch storage is allocated lazily at the first censor; a
  // gap-free stream (no censors, every pair chains) records nothing.
  std::uint32_t censor_epoch_{0};
  std::vector<std::uint32_t> interval_epochs_;
  bool epochs_active_{false};
  bool have_prev_{false};
  Seconds prev_time_{0.0};
};

}  // namespace slmob
