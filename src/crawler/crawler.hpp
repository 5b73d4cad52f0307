// Crawler: the measurement instrument of the paper.
//
// It logs into the target land as a normal user (so private lands are no
// obstacle) and records, every `sample_interval` (tau = 10 s in the paper),
// a snapshot of the position of every avatar on the land, taken from the
// CoarseLocationUpdate minimap feed. Its own avatar is excluded from the
// trace.
//
// Mimicry: a motionless, silent avatar is conspicuous — the paper reports
// users steadily converging on their first crawler. With mimicry enabled
// the crawler wanders randomly across the land and broadcasts canned chat
// phrases, which suppresses the world's curiosity perturbation.
//
// Robustness: if the circuit dies (packet loss bursts — the paper blames
// libsecondlife instabilities for interrupted long traces), the crawler
// re-logs-in automatically and the trace simply has a short gap.
//
// Mirror: the write-ahead journal (attach_journal) is the crawler's only
// output besides the in-memory trace. To analyse a capture while it runs,
// or after a crash, run `slmob analyze` on its .sltj: the journal reader
// salvages up to the last intact frame.
#pragma once

#include <string>
#include <vector>

#include "client/metaverse_client.hpp"
#include "trace/journal.hpp"
#include "trace/trace.hpp"

namespace slmob {

struct MimicryConfig {
  bool enabled{true};
  // Mean interval between wander moves / chat lines (exponentially jittered).
  Seconds move_period{45.0};
  Seconds chat_period{120.0};
  // Wander step length range (m).
  double step_min{5.0};
  double step_max{40.0};
  std::vector<std::string> phrases{
      "hi :)", "nice place!", "anyone from germany?", "lol",
      "how do i dance?", "brb", "cool build", "this party rocks",
  };
};

struct CrawlerConfig {
  Seconds sample_interval{10.0};  // the paper's tau
  MimicryConfig mimicry;
  bool auto_relogin{true};
  double land_size{256.0};
  // Re-login pacing: exponential backoff starting at `relogin_backoff_base`
  // (the historical fixed retry interval), doubling per consecutive failure
  // up to `relogin_backoff_max`, with deterministic +/- `relogin_jitter`
  // fractional jitter drawn from the crawler's seeded RNG. The backoff
  // level resets once sampling succeeds again.
  Seconds relogin_backoff_base{15.0};
  Seconds relogin_backoff_max{240.0};
  double relogin_jitter{0.25};
  // A connected client whose minimap feed has been silent for this long has
  // lost its session however the server sees it; drop and re-login.
  Seconds feed_stale_timeout{60.0};
  // --- Graceful sampling degradation (overload ladder) ----------------------
  // Under sustained load pressure the crawler doubles its effective sampling
  // interval (factor 2, then 4) instead of losing coverage outright, and
  // records each degraded window on the trace (SamplingDegradation) so
  // analysis can rate-correct the densities. Pressure is judged at each
  // sample instant from three signals: the minimap feed's age (the snapshot-
  // class feed is the first traffic shed upstream), a feed hole wider than
  // degrade_feed_age that closed within the last sample interval (the shed
  // happened even if the feed looks fresh again by the time we sample), and
  // the client circuit's smoothed RTT (inflated by retransmissions under
  // congestion).
  bool degradation_enabled{true};
  std::uint32_t max_degrade_factor{4};
  Seconds degrade_feed_age{6.0};        // feed older than this = pressured
  Seconds degrade_rtt_threshold{1.5};   // SRTT above this = pressured
  // The RTT estimate only counts as pressure while it is *current*: the
  // newest sample must be at most this old. The crawler's steady-state
  // traffic is unreliable-only, so RTT samples are sparse (login handshakes,
  // mostly) — without this gate a single estimate measured during relogin
  // churn would pin the pressure signal long after the congestion is gone.
  Seconds degrade_rtt_freshness{10.0};
  std::uint32_t degrade_after{2};       // consecutive pressured samples to step up
  std::uint32_t recover_after{3};       // consecutive clean samples to step down
};

struct CrawlerStats {
  std::uint64_t snapshots_taken{0};
  std::uint64_t coarse_updates_seen{0};
  std::uint64_t relogins{0};
  std::uint64_t chat_lines_sent{0};
  std::uint64_t moves_made{0};
  std::uint64_t empty_snapshots{0};   // no coarse data fresh enough
  std::uint64_t feed_reconnects{0};   // drops after a silent minimap feed
  std::uint64_t coverage_gaps{0};     // gaps recorded on the trace
  std::uint64_t backoff_resets{0};    // times sampling recovered after faults
  // Overload-ladder counters (all zero in fault-free runs).
  std::uint64_t degrade_escalations{0};  // sampling factor steps up (1->2, 2->4)
  std::uint64_t degrade_recoveries{0};   // sampling factor steps back down
  std::uint64_t degraded_snapshots{0};   // snapshots taken at factor > 1
};

class Crawler {
 public:
  Crawler(MetaverseClient& client, CrawlerConfig config, std::uint64_t seed = 7);

  // Starts the login handshake; sampling begins once connected.
  void start();
  void stop();

  // Engine hook (kPriorityMonitor). Assumes client.tick runs earlier in the
  // same engine tick (kPriorityClient).
  void tick(Seconds now, Seconds dt);

  [[nodiscard]] const Trace& trace() const { return trace_; }
  // Hands the trace over; an outage still running at that point is recorded
  // as a trailing coverage gap first, so the trace never silently claims
  // coverage up to the end of a run the crawler did not survive.
  [[nodiscard]] Trace take_trace();
  [[nodiscard]] const CrawlerStats& stats() const { return stats_; }
  // Re-login pacing state; checkpoints record it so a resumed run can prove
  // the replayed crawler is in the same state as the one that crashed.
  [[nodiscard]] std::uint32_t backoff_level() const { return backoff_level_; }

  // Attaches a write-ahead journal (non-owning; nullptr detaches). Every
  // snapshot, gap and session event is mirrored to the journal as it is
  // recorded in memory, so a kill at any instant loses at most the frame in
  // flight. The journal's kBegin frame is written lazily with the first
  // record, once the land name is known. Journaling draws nothing from the
  // crawler's RNG: a journal-off run is bit-identical with or without this
  // code path.
  void attach_journal(TraceJournalWriter* journal) { journal_ = journal; }

 private:
  void on_coarse(Seconds now, const CoarseLocationUpdate& update);
  void act_human(Seconds now);
  void open_gap_if_needed(Seconds now);
  void note_sampling_outage(Seconds now);
  void journal_begin_if_needed();
  // Overload ladder: hysteresis counters feed set_degrade_factor, which
  // closes/opens the trace window and mirrors the change to the journal.
  void update_degradation(Seconds now, bool pressured);
  void set_degrade_factor(Seconds now, std::uint32_t factor);
  [[nodiscard]] Seconds effective_interval() const {
    return config_.sample_interval * static_cast<double>(degrade_factor_);
  }

  MetaverseClient& client_;
  CrawlerConfig config_;
  Rng rng_;
  Trace trace_;
  bool running_{false};

  // Latest minimap state.
  std::vector<CoarseEntry> latest_entries_;
  Seconds latest_entries_time_{-1.0};
  // When an arrival last closed an interarrival hole wider than
  // degrade_feed_age (negative until it happens); feeds the overload ladder.
  Seconds feed_gap_recovered_at_{-1.0};

  Seconds next_sample_{0.0};
  Seconds next_move_{0.0};
  Seconds next_chat_{0.0};
  Seconds next_login_retry_{0.0};
  std::uint32_t backoff_level_{0};  // consecutive re-login attempts
  // Open coverage gap: sampling has been impossible since gap_start_.
  bool gap_open_{false};
  Seconds gap_start_{0.0};
  // Overload ladder state: current factor, start of the open degradation
  // window (meaningful while degrade_factor_ > 1), hysteresis counters.
  std::uint32_t degrade_factor_{1};
  Seconds degrade_start_{0.0};
  std::uint32_t pressured_samples_{0};
  std::uint32_t clean_samples_{0};
  Seconds last_tick_{0.0};
  TraceJournalWriter* journal_{nullptr};
  CrawlerStats stats_;
};

}  // namespace slmob
