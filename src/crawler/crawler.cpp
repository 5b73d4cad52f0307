#include "crawler/crawler.hpp"

#include <algorithm>
#include <cmath>

#include "util/log.hpp"

namespace slmob {

Crawler::Crawler(MetaverseClient& client, CrawlerConfig config, std::uint64_t seed)
    : client_(client),
      config_(config),
      rng_(seed),
      trace_("", config.sample_interval) {
  ClientCallbacks callbacks;
  callbacks.on_coarse = [this](Seconds now, const CoarseLocationUpdate& update) {
    on_coarse(now, update);
  };
  client_.set_callbacks(std::move(callbacks));
}

void Crawler::start() {
  running_ = true;
  client_.login();
}

void Crawler::stop() {
  running_ = false;
  client_.logout();
}

void Crawler::on_coarse(Seconds now, const CoarseLocationUpdate& update) {
  ++stats_.coarse_updates_seen;
  // An arrival that closes an interarrival hole wider than the pressure
  // window is evidence the snapshot class was being shed upstream — remember
  // when, so the next sample still judges itself pressured even though the
  // feed looks fresh again by then. Blackouts never trip this: a dead feed
  // produces no arrivals at all, and the crawler force-disconnects (which
  // resets latest_entries_time_) before the feed can "recover" mid-session.
  if (latest_entries_time_ >= 0.0 &&
      now - latest_entries_time_ > config_.degrade_feed_age) {
    feed_gap_recovered_at_ = now;
  }
  latest_entries_ = update.entries;
  latest_entries_time_ = now;
}

void Crawler::act_human(Seconds now) {
  if (!config_.mimicry.enabled) return;
  if (now >= next_move_) {
    const double step = rng_.uniform(config_.mimicry.step_min, config_.mimicry.step_max);
    const double theta = rng_.uniform(0.0, 6.283185307179586);
    // Random walk anchored at the spawn area; clamping keeps it in-land.
    const Vec3 base = client_.spawn_position();
    const Vec3 target{
        std::clamp(base.x + step * std::cos(theta) * rng_.uniform(0.5, 3.0), 1.0,
                   config_.land_size - 1.0),
        std::clamp(base.y + step * std::sin(theta) * rng_.uniform(0.5, 3.0), 1.0,
                   config_.land_size - 1.0),
        base.z};
    client_.move_to(target, 2.0);
    ++stats_.moves_made;
    next_move_ = now + rng_.exponential(config_.mimicry.move_period);
  }
  if (now >= next_chat_) {
    const auto& phrases = config_.mimicry.phrases;
    if (!phrases.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(phrases.size()) - 1));
      client_.say(phrases[idx]);
      ++stats_.chat_lines_sent;
    }
    next_chat_ = now + rng_.exponential(config_.mimicry.chat_period);
  }
}

void Crawler::journal_begin_if_needed() {
  if (journal_ != nullptr && !journal_->begun()) {
    journal_->begin(trace_.land_name(), config_.sample_interval);
  }
}

Trace Crawler::take_trace() {
  if (gap_open_ && last_tick_ > gap_start_) {
    trace_.add_gap(gap_start_, last_tick_);
    gap_open_ = false;
    ++stats_.coverage_gaps;
    if (journal_ != nullptr) journal_->append_gap_close(gap_start_, last_tick_);
  }
  if (degrade_factor_ > 1) {
    // A degradation window still open at hand-over closes after the trailing
    // gap (stream order: gap, then the rate change back to 1). The close is
    // pushed to at least one nominal interval past the open so the window is
    // never zero-length even if hand-over lands on the opening sample.
    const Seconds end = std::max(last_tick_, degrade_start_ + config_.sample_interval);
    trace_.add_degradation(degrade_start_, end, degrade_factor_);
    if (journal_ != nullptr) {
      journal_->append_degrade_close(degrade_start_, end, degrade_factor_);
    }
    degrade_factor_ = 1;
  }
  return std::move(trace_);
}

void Crawler::set_degrade_factor(Seconds now, std::uint32_t factor) {
  if (factor == degrade_factor_) return;
  // Called only at sample instants, so a window being closed is at least one
  // effective interval old — never zero-length.
  if (degrade_factor_ > 1) {
    trace_.add_degradation(degrade_start_, now, degrade_factor_);
    if (journal_ != nullptr) {
      journal_begin_if_needed();
      journal_->append_degrade_close(degrade_start_, now, degrade_factor_);
    }
  }
  if (factor > 1) {
    degrade_start_ = now;
    if (journal_ != nullptr) {
      journal_begin_if_needed();
      journal_->append_degrade_open(now, factor);
    }
  }
  degrade_factor_ = factor;
  log_info("crawler", factor > 1
                          ? "overload: sampling degraded to 1/" +
                                std::to_string(factor) + " rate"
                          : "overload cleared: nominal sampling restored");
}

void Crawler::update_degradation(Seconds now, bool pressured) {
  if (pressured) {
    clean_samples_ = 0;
    if (++pressured_samples_ >= config_.degrade_after) {
      pressured_samples_ = 0;
      if (degrade_factor_ < config_.max_degrade_factor) {
        set_degrade_factor(now, degrade_factor_ * 2);
        ++stats_.degrade_escalations;
      }
    }
  } else {
    pressured_samples_ = 0;
    if (degrade_factor_ > 1 && ++clean_samples_ >= config_.recover_after) {
      clean_samples_ = 0;
      set_degrade_factor(now, degrade_factor_ / 2);
      ++stats_.degrade_recoveries;
    }
  }
}

void Crawler::tick(Seconds now, Seconds dt) {
  (void)dt;
  if (!running_) return;
  last_tick_ = now;

  if (trace_.land_name().empty() && !client_.region_name().empty()) {
    trace_ = Trace(client_.region_name(), config_.sample_interval);
  }

  switch (client_.state()) {
    case ClientState::kKicked:
    case ClientState::kDropped:
    case ClientState::kLoginFailed:
      // Paced re-login with exponential backoff: the server holds the dead
      // session until its circuit timeout expires, and during blackouts or
      // region crashes every attempt is wasted anyway, so the retry interval
      // doubles per consecutive failure (deterministically jittered to avoid
      // phase-locking with scheduled faults).
      note_sampling_outage(now);
      if (config_.auto_relogin && now >= next_login_retry_) {
        const Seconds base = std::min(
            config_.relogin_backoff_max,
            config_.relogin_backoff_base *
                std::pow(2.0, static_cast<double>(std::min(backoff_level_, 20u))));
        const double jitter = 1.0 + config_.relogin_jitter * rng_.uniform(-1.0, 1.0);
        next_login_retry_ = now + base * jitter;
        ++backoff_level_;
        ++stats_.relogins;
        log_info("crawler", "connection lost; re-logging in");
        if (journal_ != nullptr && journal_->begun()) {
          journal_->append_session(now, SessionEvent::kRelogin);
        }
        client_.login();
      }
      return;
    case ClientState::kLoggingIn:
    case ClientState::kDisconnected:
      note_sampling_outage(now);
      return;
    case ClientState::kConnected:
      break;
  }

  // Feed liveness: a connected client that stops receiving the minimap feed
  // has lost its session (however that happened); reconnect.
  if (latest_entries_time_ >= 0.0 &&
      now - latest_entries_time_ > config_.feed_stale_timeout) {
    log_info("crawler", "minimap feed went silent; reconnecting");
    latest_entries_time_ = -1.0;
    ++stats_.feed_reconnects;
    if (journal_ != nullptr && journal_->begun()) {
      journal_->append_session(now, SessionEvent::kFeedReconnect);
    }
    client_.force_disconnect();
    return;
  }

  act_human(now);

  if (now >= next_sample_) {
    // Stale minimap data (older than one nominal sampling interval) means we
    // just reconnected or the feed is fully shed; skip rather than record
    // outdated positions.
    if (latest_entries_time_ < 0.0 ||
        now - latest_entries_time_ > config_.sample_interval) {
      // A skip with a *recently* alive feed is the loudest pressure signal
      // the crawler gets: upstream shed the snapshot class hard enough that
      // a whole broadcast interval passed with nothing, so it counts against
      // the ladder like a pressured sample. The age bound keeps outages out:
      // once the feed has been silent longer than an interval plus the
      // pressure window, this is a dead session (blackout, lost circuit) —
      // coverage gaps already record those, and a dead feed ages past the
      // bound before it can contribute a second observation, so an outage
      // alone can never escalate (degrade_after >= 2). Uncounted skips
      // deliberately leave the hysteresis counters untouched either way.
      if (config_.degradation_enabled && latest_entries_time_ >= 0.0 &&
          now - latest_entries_time_ <=
              config_.sample_interval + config_.degrade_feed_age) {
        update_degradation(now, true);
      }
      next_sample_ = now + effective_interval();
      ++stats_.empty_snapshots;
      open_gap_if_needed(now);
      return;
    }
    if (gap_open_) {
      // Sampling recovered: the gap closes at this snapshot, which is the
      // first covered instant after the outage. The journal gets the gap
      // before the snapshot, preserving the stream ordering contract.
      trace_.add_gap(gap_start_, now);
      gap_open_ = false;
      ++stats_.coverage_gaps;
      if (journal_ != nullptr) journal_->append_gap_close(gap_start_, now);
    }
    if (backoff_level_ > 0) {
      backoff_level_ = 0;
      ++stats_.backoff_resets;
    }
    // Overload ladder: judge pressure at this sample instant, emit any rate
    // change *before* the snapshot (stream ordering contract), then schedule
    // the next sample at the possibly-new effective interval. RNG-free, so
    // uncongested runs keep an identical draw sequence.
    if (config_.degradation_enabled) {
      const bool rtt_fresh =
          client_.circuit_last_rtt_at() >= 0.0 &&
          now - client_.circuit_last_rtt_at() <= config_.degrade_rtt_freshness;
      // A hole in the feed that closed since the previous sample still
      // counts: the pressure was real even if this sample's data is fresh.
      const bool recent_feed_hole =
          feed_gap_recovered_at_ >= 0.0 &&
          now - feed_gap_recovered_at_ <= config_.sample_interval;
      const bool pressured =
          (now - latest_entries_time_ > config_.degrade_feed_age) ||
          recent_feed_hole ||
          (rtt_fresh && client_.circuit_srtt() > config_.degrade_rtt_threshold);
      update_degradation(now, pressured);
    }
    next_sample_ = now + effective_interval();
    if (degrade_factor_ > 1) ++stats_.degraded_snapshots;
    Snapshot snap;
    snap.time = now;
    snap.fixes.reserve(latest_entries_.size());
    for (const auto& entry : latest_entries_) {
      if (entry.agent_id == client_.agent_id()) continue;  // exclude ourselves
      const CoarsePosition p = dequantize_coarse(entry);
      snap.fixes.push_back({AvatarId{entry.agent_id}, Vec3{p.x, p.y, p.z}});
    }
    if (journal_ != nullptr) {
      journal_begin_if_needed();
      journal_->append_snapshot(snap);
    }
    trace_.add(std::move(snap));
    ++stats_.snapshots_taken;
  }
}

void Crawler::open_gap_if_needed(Seconds now) {
  // A gap only makes sense once the trace has something before it; outages
  // before the very first snapshot are simply a later trace start.
  if (!gap_open_ && stats_.snapshots_taken > 0) {
    gap_open_ = true;
    gap_start_ = now;
    // The open mark lets salvage censor from the true outage start when the
    // process dies mid-gap (the close frame that would normally record it
    // never gets written).
    if (journal_ != nullptr) journal_->append_gap_open(gap_start_);
  }
}

void Crawler::note_sampling_outage(Seconds now) {
  // Called while sampling is impossible (disconnected / logging in). Keeps
  // the sampling clock advancing and marks the first missed sample as the
  // start of a coverage gap. Ladder hysteresis does not survive the outage:
  // the ladder judges *this session's* congestion, and pressure observed
  // before a session drop must not combine with the (retransmission-
  // inflated, hence pressured-looking) relogin handshake RTT to fake a
  // sustained-pressure streak — the outage itself is already accounted for
  // by the coverage gap.
  pressured_samples_ = 0;
  clean_samples_ = 0;
  if (now < next_sample_) return;
  next_sample_ = now + effective_interval();
  open_gap_if_needed(now);
}

}  // namespace slmob
