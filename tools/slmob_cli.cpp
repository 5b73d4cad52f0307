// slmob command-line tool: collect, inspect, convert and replay traces
// without writing C++.
//
//   slmob run     --land <l>[,<l>...] [--hours H] [--seed S] [--jobs J]
//                 [--faults <scenario>] [--fault-seed S] --out t.slt
//   slmob summary <trace.slt>
//   slmob analyze <trace.slt> [--range R]... [--threads N]
//   slmob sweep   --land <l>[,<l>...] --seeds N [--hours H] [--jobs J]
//   slmob convert <trace.slt> <trace.csv>   (direction by extension)
//   slmob dtn     <trace.slt> [--scheme epidemic|two-hop|direct] [--messages N]
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/shards.hpp"
#include "core/supervisor.hpp"
#include "util/thread_pool.hpp"
#include "dtn/dtn_simulator.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "trace/stream.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"
#include "util/sysinfo.hpp"
#include "util/wallclock.hpp"

namespace {

using namespace slmob;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  slmob run --land <apfel|dance|isle>[,<land>...] [--hours H] [--seed S]\n"
               "            [--jobs J]\n"
               "            [--faults none|blackouts|burst-loss|region-flaps|\n"
               "                      collector-crash|overload|chaos|shard-chaos]\n"
               "            [--fault-seed S]\n"
               "            [--journal J.sltj | --checkpoint DIR [--checkpoint-every SEC]]\n"
               "            [--supervise [--max-restarts N] [--watchdog-timeout SEC]]\n"
               "            [--stats-csv F.csv] --out T.slt\n"
               "    (multi-land runs shard across threads; shard i uses seed S+i and\n"
               "     --out must disambiguate with {land} and/or {seed} placeholders)\n"
               "  slmob run --resume DIR [--jobs J] [--out T.slt]\n"
               "  slmob salvage <journal.sltj> [--out T.slt]\n"
               "  slmob summary <trace.slt|journal.sltj> [--stream]\n"
               "  slmob analyze <trace.slt|journal.sltj> [--range R]... [--threads N]\n"
               "  slmob sweep --land <l>[,<l>...] --seeds N [--seed-base S] [--hours H]\n"
               "              [--jobs J]\n"
               "  slmob convert <in.(slt|csv)> <out.(csv|slt)>\n"
               "  slmob dtn <trace.slt> [--scheme epidemic|two-hop|direct] [--messages N]\n"
               "  slmob report <trace.slt> <report.md> [--series]\n");
  return 2;
}

// Integer flag values (counts, seeds, thread budgets) must be non-negative
// decimals; anything else is a usage error.
template <typename T>
bool read_count(const std::string& text, T& out) {
  const long long value = parse_non_negative_int(text);
  if (value < 0) return false;
  out = static_cast<T>(value);
  return true;
}

// Hours, metres and seconds must be positive finite decimals.
bool read_positive(const std::string& text, double& out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || value <= 0.0) return false;
  out = value;
  return true;
}

std::optional<LandArchetype> parse_land(const std::string& name) {
  if (name == "apfel" || name == "apfelland") return LandArchetype::kApfelLand;
  if (name == "dance") return LandArchetype::kDanceIsland;
  if (name == "isle" || name == "isleofview") return LandArchetype::kIsleOfView;
  return std::nullopt;
}

std::optional<std::vector<LandArchetype>> parse_lands(const std::string& list) {
  std::vector<LandArchetype> lands;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = std::min(list.find(',', pos), list.size());
    const auto land = parse_land(list.substr(pos, comma - pos));
    if (!land) return std::nullopt;
    lands.push_back(*land);
    pos = comma + 1;
  }
  return lands;
}

// Short land name for {land} path substitution — matches the --land spelling.
std::string land_token(LandArchetype land) {
  switch (land) {
    case LandArchetype::kApfelLand: return "apfel";
    case LandArchetype::kDanceIsland: return "dance";
    case LandArchetype::kIsleOfView: return "isle";
  }
  return "land";
}

// Expands {land} and {seed} placeholders so one --out template names every
// shard's trace file.
std::string expand_out_path(std::string path, LandArchetype land, std::uint64_t seed) {
  const auto replace_all = [&path](const std::string& key, const std::string& value) {
    for (std::size_t pos = path.find(key); pos != std::string::npos;
         pos = path.find(key, pos)) {
      path.replace(pos, key.size(), value);
      pos += value.size();
    }
  };
  replace_all("{land}", land_token(land));
  replace_all("{seed}", std::to_string(seed));
  return path;
}

// Up-front writability probe for a run-output path: a 24 h crawl must not
// discover an unwritable --stats-csv only when it tries to save results.
// Opens the file for append (creating it if absent) and removes it again if
// this probe created it, so a failed run leaves no empty artefact behind.
bool probe_writable(const std::string& path) {
  const bool existed = [&] {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return false;
    // slmob-lint: allow(checked-durability) -- existence probe on a read-only handle; nothing written
    std::fclose(f);
    return true;
  }();
  FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return false;
  // slmob-lint: allow(checked-durability) -- writability probe, zero bytes written; the real save is checked
  std::fclose(f);
  if (!existed) std::remove(path.c_str());
  return true;
}

bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Reads a trace in any format, deciding by extension. A .sltj journal is
// salvaged in place (torn tails truncated, trailing gap added), so analyze/
// summary/convert work directly on the journal of a crashed run. Malformed
// input (truncated file, bad magic, corrupt rows) is reported with the file
// name.
Trace read_any(const std::string& path) {
  try {
    if (has_suffix(path, ".sltj")) {
      const JournalSalvage s = salvage_journal(path);
      if (s.torn) {
        std::fprintf(stderr,
                     "%s: torn tail truncated at byte %llu; remainder censored as a gap\n",
                     path.c_str(), static_cast<unsigned long long>(s.bytes_kept));
      }
      return s.trace;
    }
    if (path.size() > 4 && path.substr(path.size() - 4) == ".csv") {
      FILE* f = std::fopen(path.c_str(), "rb");
      if (f == nullptr) throw std::runtime_error("cannot open " + path);
      std::string text;
      char buf[65536];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
      // slmob-lint: allow(checked-durability) -- read-only stream; close failure cannot lose data
      std::fclose(f);
      return trace_from_csv(text, path, 10.0);
    }
    return load_trace(path);
  } catch (const DecodeError& e) {
    throw std::runtime_error(path + ": corrupt or truncated trace (" + e.what() + ")");
  }
}

// Shared tail of every run variant: strip transient sitting fixes (matching
// run_experiment's pre-analysis treatment), save, print the recap.
int finish_run(Trace trace, const CrawlerStats& crawler_stats, const std::string& out) {
  trace.strip_sitting_fixes();
  const TraceSummary s = trace.summary();
  save_trace(trace, out);
  std::printf("wrote %s: %zu snapshots, %zu unique users, avg conc %.1f\n", out.c_str(),
              s.snapshot_count, s.unique_users, s.avg_concurrent);
  if (s.gap_count > 0) {
    std::printf("coverage: %zu gaps, %.0f s uncovered (%zu relogins, %zu crawler backoff resets)\n",
                s.gap_count, s.gap_seconds,
                static_cast<std::size_t>(crawler_stats.relogins),
                static_cast<std::size_t>(crawler_stats.backoff_resets));
  }
  if (s.degradation_count > 0) {
    std::printf("degradation: %zu windows, %.0f s at reduced sampling rate "
                "(%zu escalations, %zu recoveries)\n",
                s.degradation_count, s.degraded_seconds,
                static_cast<std::size_t>(crawler_stats.degrade_escalations),
                static_cast<std::size_t>(crawler_stats.degrade_recoveries));
  }
  return 0;
}

// One line of shed/reject counters, printed only when the run actually hit
// overload protection — fault-free recaps stay byte-identical.
void print_overload_recap(const SimServerStats& server, const NetworkStats& net,
                          const CircuitStats& circuit) {
  const std::uint64_t total = server.logins_rejected_overload + server.messages_shed +
                              net.shed_session + net.shed_snapshot +
                              circuit.deferred_sends;
  if (total == 0) return;
  std::printf("overload: %llu logins rejected, %llu messages shed, "
              "%llu/%llu datagrams shed (session/snapshot), %llu sends deferred\n",
              static_cast<unsigned long long>(server.logins_rejected_overload),
              static_cast<unsigned long long>(server.messages_shed),
              static_cast<unsigned long long>(net.shed_session),
              static_cast<unsigned long long>(net.shed_snapshot),
              static_cast<unsigned long long>(circuit.deferred_sends));
}

int cmd_run(const std::vector<std::string>& args) {
  std::vector<LandArchetype> lands;
  double hours = 24.0;
  std::uint64_t seed = 42;
  std::uint64_t fault_seed = 0;
  std::string faults = "none";
  std::string out;
  std::string journal;
  std::string checkpoint_dir;
  std::string resume_dir;
  std::string stats_csv;
  double checkpoint_every = 600.0;
  bool supervise = false;
  std::uint64_t max_restarts = 5;
  double watchdog_timeout = 30.0;  // wall seconds
  std::size_t jobs = 0;  // 0 = SLMOB_THREADS env / hardware_concurrency
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--land" && i + 1 < args.size()) {
      const auto parsed = parse_lands(args[++i]);
      if (!parsed) return usage();
      lands = *parsed;
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!read_count(args[++i], jobs)) return usage();
    } else if (args[i] == "--hours" && i + 1 < args.size()) {
      if (!read_positive(args[++i], hours)) return usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!read_count(args[++i], seed)) return usage();
    } else if (args[i] == "--faults" && i + 1 < args.size()) {
      faults = args[++i];
    } else if (args[i] == "--fault-seed" && i + 1 < args.size()) {
      if (!read_count(args[++i], fault_seed)) return usage();
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else if (args[i] == "--journal" && i + 1 < args.size()) {
      journal = args[++i];
    } else if (args[i] == "--checkpoint" && i + 1 < args.size()) {
      checkpoint_dir = args[++i];
    } else if (args[i] == "--checkpoint-every" && i + 1 < args.size()) {
      if (!read_positive(args[++i], checkpoint_every)) return usage();
    } else if (args[i] == "--resume" && i + 1 < args.size()) {
      resume_dir = args[++i];
    } else if (args[i] == "--supervise") {
      supervise = true;
    } else if (args[i] == "--max-restarts" && i + 1 < args.size()) {
      if (!read_count(args[++i], max_restarts)) return usage();
    } else if (args[i] == "--watchdog-timeout" && i + 1 < args.size()) {
      if (!read_positive(args[++i], watchdog_timeout)) return usage();
    } else if (args[i] == "--stats-csv" && i + 1 < args.size()) {
      stats_csv = args[++i];
    } else {
      return usage();
    }
  }

  if (!resume_dir.empty()) {
    // Identity (lands, hours, seeds, faults, out paths) comes from the shard
    // checkpoints; --out (with {land}/{seed} placeholders for multi-shard
    // runs) only overrides where the traces land. Accepts both a single
    // shard's directory and a multi-land run's directory of shard-NN-<land>
    // subdirectories.
    std::printf("resuming shards in %s...\n", resume_dir.c_str());
    auto results = resume_sharded(resume_dir, jobs);
    int rc = 0;
    for (auto& res : results) {
      const std::string path =
          out.empty() ? res.out_path : expand_out_path(out, res.archetype, res.seed);
      if (path.empty()) return usage();
      std::printf("resumed %s (seed %llu)\n", archetype_name(res.archetype).c_str(),
                  static_cast<unsigned long long>(res.seed));
      rc |= finish_run(std::move(res.trace), res.crawler_stats, path);
    }
    return rc;
  }

  if (lands.empty() || out.empty()) return usage();
  if (!journal.empty() && !checkpoint_dir.empty()) return usage();
  if (!stats_csv.empty() && !supervise && lands.size() == 1) {
    std::fprintf(stderr,
                 "error: --stats-csv needs a sharded (multi-land) or --supervise run\n");
    return 2;
  }
  if (!stats_csv.empty() && !probe_writable(stats_csv)) {
    std::fprintf(stderr,
                 "error: --stats-csv %s is not writable (missing directory or "
                 "permissions?); fix the path before starting the run\n",
                 stats_csv.c_str());
    return 2;
  }

  if (supervise) {
    // Self-healing run: every shard executes behind the supervisor's crash
    // barrier, journaled + checkpointed, restarted from its last checkpoint
    // after a contained crash or watchdog-detected stall. Traces stay
    // bit-identical to an uninterrupted run.
    if (checkpoint_dir.empty()) {
      std::fprintf(stderr, "error: --supervise requires --checkpoint DIR\n");
      return 2;
    }
    if (!journal.empty()) {
      std::fprintf(stderr,
                   "error: --supervise runs are checkpointed; drop --journal\n");
      return 2;
    }
    std::vector<ExperimentConfig> shards;
    std::vector<std::string> outs;
    for (std::size_t i = 0; i < lands.size(); ++i) {
      ExperimentConfig cfg;
      cfg.archetype = lands[i];
      cfg.duration = hours * kSecondsPerHour;
      cfg.seed = seed + i;
      cfg.fault_scenario = faults;
      cfg.fault_seed = fault_seed;
      cfg.ranges = {};  // collection only
      shards.push_back(cfg);
      outs.push_back(expand_out_path(out, lands[i], cfg.seed));
    }
    for (std::size_t i = 0; i < outs.size(); ++i) {
      for (std::size_t j = i + 1; j < outs.size(); ++j) {
        if (outs[i] == outs[j]) {
          std::fprintf(stderr,
                       "error: --out %s maps shards %zu and %zu to the same file; "
                       "add {land} and/or {seed}\n",
                       out.c_str(), i, j);
          return 2;
        }
      }
    }

    SupervisorOptions options;
    options.threads = jobs;
    options.checkpoint_dir = checkpoint_dir;
    options.checkpoint_every = checkpoint_every;
    options.out_paths = outs;
    options.max_restarts = max_restarts;
    options.watchdog_timeout_ms = watchdog_timeout * 1000.0;
    const std::size_t threads = jobs == 0 ? ThreadPool::default_concurrency() : jobs;
    std::printf("supervising %zu shard(s) for %.1f h (seeds %llu..%llu, faults %s, "
                "%zu threads, retry budget %llu, watchdog %.1f s)...\n",
                lands.size(), hours, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed + lands.size() - 1), faults.c_str(),
                threads, static_cast<unsigned long long>(max_restarts),
                watchdog_timeout);
    SupervisedRun run = run_supervised(shards, options);

    int rc = 0;
    // CSV before the recap loop: finish_run moves each trace out, and the
    // CSV reads trace-derived columns (degraded seconds) too.
    if (!stats_csv.empty()) {
      write_shard_stats_csv(run.shards, stats_csv);
      std::printf("wrote %s\n", stats_csv.c_str());
    }
    for (std::size_t i = 0; i < run.shards.size(); ++i) {
      auto& res = run.shards[i];
      const ShardHealth& h = run.health[i];
      std::printf("shard %zu %s (seed %llu): %s | crashes %llu, stalls %llu, "
                  "watchdog aborts %llu, restarts %llu (%llu cold), %zu checkpoints\n",
                  i, archetype_name(res.archetype).c_str(),
                  static_cast<unsigned long long>(res.seed), shard_phase_name(h.phase),
                  static_cast<unsigned long long>(h.crashes),
                  static_cast<unsigned long long>(h.stalls),
                  static_cast<unsigned long long>(h.watchdog_aborts),
                  static_cast<unsigned long long>(h.restarts),
                  static_cast<unsigned long long>(h.cold_restarts),
                  h.checkpoints_written);
      if (!h.last_error.empty()) {
        std::printf("  last error: %s\n", h.last_error.c_str());
      }
      const CircuitStats& c = res.circuit_stats;
      std::printf("  transport: %llu packets, %llu retransmits (%llu RTO backoffs), "
                  "%llu datagrams fault-dropped\n",
                  static_cast<unsigned long long>(c.packets_sent),
                  static_cast<unsigned long long>(c.retransmits),
                  static_cast<unsigned long long>(c.rto_backoffs),
                  static_cast<unsigned long long>(res.network_stats.fault_dropped));
      print_overload_recap(res.server_stats, res.network_stats, res.circuit_stats);
      rc |= finish_run(std::move(res.trace), res.crawler_stats, outs[i]);
    }
    if (run.any_failed_partial()) {
      std::fprintf(stderr,
                   "warning: at least one shard exhausted its retry budget and "
                   "degraded to failed-partial (salvaged trace is gap-censored)\n");
      return 1;
    }
    return rc;
  }

  if (lands.size() == 1) {
    const LandArchetype land = lands.front();
    ExperimentConfig cfg;
    cfg.archetype = land;
    cfg.duration = hours * kSecondsPerHour;
    cfg.seed = seed;
    cfg.fault_scenario = faults;
    cfg.fault_seed = fault_seed;
    cfg.ranges = {};  // collection only
    std::printf("crawling %s for %.1f h (seed %llu, faults %s)...\n",
                archetype_name(land).c_str(), hours,
                static_cast<unsigned long long>(seed), faults.c_str());

    if (!checkpoint_dir.empty()) {
      DurableRunOptions options;
      options.config = cfg;
      options.dir = checkpoint_dir;
      options.checkpoint_every = checkpoint_every;
      options.out_path = out;
      DurableRunResult res = run_durable(options);
      std::printf("journaled to %s (%zu checkpoints)\n", res.journal_path.c_str(),
                  res.checkpoints_written);
      return finish_run(std::move(res.trace), res.crawler_stats, out);
    }

    if (!journal.empty()) {
      // Journal-only durable run: salvageable after a crash, not resumable.
      Testbed bed(make_testbed_config(cfg));
      if (bed.crawler() == nullptr) {
        std::fprintf(stderr, "error: journaled run requires a crawler\n");
        return 1;
      }
      TraceJournalWriter writer(journal, cfg.duration);
      bed.crawler()->attach_journal(&writer);
      bed.run_until(cfg.duration);
      Trace trace = bed.crawler()->take_trace();
      writer.append_end(bed.engine().now());
      std::printf("journaled to %s\n", journal.c_str());
      return finish_run(std::move(trace), bed.crawler()->stats(), out);
    }

    const ExperimentResults res = run_experiment(cfg);
    const TraceSummary& s = res.analysis.summary;
    save_trace(res.trace, out);
    std::printf("wrote %s: %zu snapshots, %zu unique users, avg conc %.1f\n", out.c_str(),
                s.snapshot_count, s.unique_users, s.avg_concurrent);
    if (s.gap_count > 0) {
      std::printf(
          "coverage: %zu gaps, %.0f s uncovered (%zu relogins, %zu crawler backoff resets)\n",
          s.gap_count, s.gap_seconds,
          static_cast<std::size_t>(res.crawler_stats.relogins),
          static_cast<std::size_t>(res.crawler_stats.backoff_resets));
    }
    if (s.degradation_count > 0) {
      std::printf("degradation: %zu windows, %.0f s at reduced sampling rate "
                  "(%zu escalations, %zu recoveries)\n",
                  s.degradation_count, s.degraded_seconds,
                  static_cast<std::size_t>(res.crawler_stats.degrade_escalations),
                  static_cast<std::size_t>(res.crawler_stats.degrade_recoveries));
    }
    print_overload_recap(res.server_stats, res.network_stats, res.circuit_stats);
    return 0;
  }

  // Multi-land sharded run: shard i crawls lands[i] with seed base+i; all
  // shards execute concurrently on one pool and every trace is bit-identical
  // to running that land alone.
  if (!journal.empty()) {
    std::fprintf(stderr,
                 "error: --journal is single-land; use --checkpoint for sharded runs\n");
    return 2;
  }
  std::vector<ExperimentConfig> shards;
  std::vector<std::string> outs;
  for (std::size_t i = 0; i < lands.size(); ++i) {
    ExperimentConfig cfg;
    cfg.archetype = lands[i];
    cfg.duration = hours * kSecondsPerHour;
    cfg.seed = seed + i;
    cfg.fault_scenario = faults;
    cfg.fault_seed = fault_seed;
    cfg.ranges = {};  // collection only
    shards.push_back(cfg);
    outs.push_back(expand_out_path(out, lands[i], cfg.seed));
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    for (std::size_t j = i + 1; j < outs.size(); ++j) {
      if (outs[i] == outs[j]) {
        std::fprintf(stderr,
                     "error: --out %s maps shards %zu and %zu to the same file; "
                     "add {land} and/or {seed}\n",
                     out.c_str(), i, j);
        return 2;
      }
    }
  }

  ShardRunOptions options;
  options.threads = jobs;
  options.checkpoint_dir = checkpoint_dir;
  options.checkpoint_every = checkpoint_every;
  options.out_paths = outs;
  const std::size_t threads = jobs == 0 ? ThreadPool::default_concurrency() : jobs;
  std::printf("crawling %zu lands for %.1f h (seeds %llu..%llu, faults %s, %zu threads)...\n",
              lands.size(), hours, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + lands.size() - 1), faults.c_str(),
              threads);
  auto results = run_sharded(shards, options);
  int rc = 0;
  // CSV first: finish_run moves each trace out, and the CSV reads
  // trace-derived columns (degraded seconds) alongside the counters.
  if (!stats_csv.empty()) {
    write_shard_stats_csv(results, stats_csv);
    std::printf("wrote %s\n", stats_csv.c_str());
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& res = results[i];
    std::printf("%s (seed %llu)", archetype_name(res.archetype).c_str(),
                static_cast<unsigned long long>(res.seed));
    if (!checkpoint_dir.empty()) {
      std::printf(" [%zu checkpoints]", res.checkpoints_written);
    }
    std::printf(": ");
    rc |= finish_run(std::move(res.trace), res.crawler_stats, outs[i]);
    print_overload_recap(res.server_stats, res.network_stats, res.circuit_stats);
  }
  return rc;
}

int cmd_salvage(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--out" && i + 1 < args.size()) {
      out = args[++i];
    } else {
      return usage();
    }
  }
  const JournalSalvage s = salvage_journal(args[0]);
  const char* state = s.clean_end ? "clean end" : s.torn ? "torn tail truncated" : "no end frame";
  std::printf("salvaged %s: %zu frames (%zu snapshots, %zu session events), "
              "%llu bytes kept, %s\n",
              args[0].c_str(), s.frames_read, s.snapshots, s.session_events,
              static_cast<unsigned long long>(s.bytes_kept), state);
  const TraceSummary sum = s.trace.summary();
  std::printf("trace: %.2f h of %.2f h planned, %zu unique users, %zu gaps "
              "(%.0f s uncovered)\n",
              sum.duration / kSecondsPerHour, s.planned_end / kSecondsPerHour,
              sum.unique_users, sum.gap_count, sum.gap_seconds);
  if (!out.empty()) {
    Trace trace = s.trace;
    trace.strip_sitting_fixes();
    save_trace(trace, out);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

// After a streamed pass, reports a torn journal tail the way read_any's
// salvage path does (the stream reader only knows once it hits the tear).
void warn_if_torn(const TraceStream* reader, const std::string& path) {
  if (const auto* j = dynamic_cast<const JournalFileStream*>(reader);
      j != nullptr && j->torn()) {
    std::fprintf(stderr,
                 "%s: torn tail truncated at byte %llu; remainder censored as a gap\n",
                 path.c_str(), static_cast<unsigned long long>(j->bytes_kept()));
  }
}

void print_summary(const std::string& land, Seconds sampling, const TraceSummary& s) {
  std::printf("land:            %s\n", land.c_str());
  std::printf("sampling:        every %.0f s\n", sampling);
  std::printf("snapshots:       %zu\n", s.snapshot_count);
  std::printf("duration:        %.2f h\n", s.duration / kSecondsPerHour);
  std::printf("unique users:    %zu\n", s.unique_users);
  std::printf("avg concurrent:  %.1f\n", s.avg_concurrent);
  std::printf("max concurrent:  %zu\n", s.max_concurrent);
  std::printf("coverage gaps:   %zu (%.0f s uncovered)\n", s.gap_count, s.gap_seconds);
  if (s.degradation_count > 0) {
    std::printf("degradation:     %zu windows (%.0f s at reduced sampling rate)\n",
                s.degradation_count, s.degraded_seconds);
  }
}

int cmd_summary(const std::vector<std::string>& args) {
  bool stream = false;
  std::string path;
  for (const auto& arg : args) {
    if (arg == "--stream") {
      stream = true;
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  if (!stream) {
    const Trace trace = read_any(path);
    print_summary(trace.land_name(), trace.sampling_interval(), trace.summary());
    return 0;
  }

  // Single bounded-memory pass: no Trace is materialised, so this works on
  // traces far larger than RAM and doubles as a footprint/throughput probe.
  const auto t0 = wallclock::now();
  const auto reader = open_trace_stream(path);
  TraceSummary s;
  std::set<AvatarId> users;
  std::size_t total_fixes = 0;
  bool have_first = false;
  Seconds first_time = 0.0;
  Seconds last_time = 0.0;
  Seconds degrade_open_at = -1.0;
  for (;;) {
    const StreamEvent ev = reader->next();
    if (ev.kind == StreamEventKind::kEnd) break;
    if (ev.kind == StreamEventKind::kSnapshot) {
      ++s.snapshot_count;
      total_fixes += ev.snapshot->fixes.size();
      s.max_concurrent = std::max(s.max_concurrent, ev.snapshot->fixes.size());
      for (const auto& fix : ev.snapshot->fixes) users.insert(fix.id);
      if (!have_first) {
        have_first = true;
        first_time = ev.snapshot->time;
      }
      last_time = ev.snapshot->time;
    } else if (ev.kind == StreamEventKind::kGap) {
      ++s.gap_count;
      s.gap_seconds += ev.gap.length();
    } else if (ev.kind == StreamEventKind::kRateChange) {
      // A factor > 1 opens a degraded window (closing any open one first —
      // an escalation 2 -> 4 is two windows, matching the loaded trace);
      // factor 1 closes the open window.
      if (degrade_open_at >= 0.0) {
        s.degraded_seconds += ev.time - degrade_open_at;
        degrade_open_at = -1.0;
      }
      if (ev.factor > 1) {
        ++s.degradation_count;
        degrade_open_at = ev.time;
      }
    }
  }
  if (s.snapshot_count > 0) {
    s.unique_users = users.size();
    s.avg_concurrent =
        static_cast<double>(total_fixes) / static_cast<double>(s.snapshot_count);
    s.duration = last_time - first_time;
  }
  const double secs =
      wallclock::seconds_since(t0);
  warn_if_torn(reader.get(), path);
  print_summary(reader->land_name(), reader->sampling_interval(), s);
  std::printf("pass:            %.2f s (%.0f snapshots/s)\n", secs,
              secs > 0.0 ? static_cast<double>(s.snapshot_count) / secs : 0.0);
  std::printf("peak memory:     %.1f MiB\n",
              static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0));
  return 0;
}

void print_report(const AnalysisReport& res) {
  for (const auto& [r, c] : res.contacts) {
    const auto& g = res.graphs.at(r);
    const auto median = [](const Ecdf& e) { return e.empty() ? 0.0 : e.median(); };
    std::printf("r=%.0fm: %zu contacts | CT med %.0fs | ICT med %.0fs | FT med %.0fs | "
                "deg med %.0f | isolated %.1f%% | clust med %.2f\n",
                r, c.intervals.size(), median(c.contact_times),
                median(c.inter_contact_times), median(c.first_contact_times),
                median(g.degrees), g.isolated_fraction * 100.0, median(g.clustering));
  }
  std::printf("zones: %.1f%% empty, busiest cell %zu users\n",
              res.zones.empty_fraction * 100.0, res.zones.max_occupancy);
  if (!res.trips.travel_lengths.empty()) {
    std::printf("trips: length med %.0fm p90 %.0fm | session med %.0fs max %.0fs\n",
                res.trips.travel_lengths.median(), res.trips.travel_lengths.quantile(0.9),
                res.trips.travel_times.median(), res.trips.travel_times.max());
  }
}

// One bounded-memory pass over the file: the trace streams through the
// analyzer without being materialised.
int cmd_analyze(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  StreamingOptions options;
  options.ranges.clear();
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--range" && i + 1 < args.size()) {
      double range = 0.0;
      if (!read_positive(args[++i], range)) return usage();
      options.ranges.push_back(range);
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      // 0 = SLMOB_THREADS env / hardware_concurrency
      if (!read_count(args[++i], options.threads)) return usage();
    } else {
      return usage();
    }
  }
  if (options.ranges.empty()) options.ranges = {kBluetoothRange, kWifiRange};

  const auto reader = open_trace_stream(args[0]);
  const AnalysisReport report = analyze_stream(*reader, options);
  warn_if_torn(reader.get(), args[0]);
  print_report(report);
  return 0;
}

// Multi-seed / multi-land experiment sweep on the sharded engine. Each
// (land, seed) cell is one shard with a single-threaded analysis (so J
// shards use J threads total), and rows print in deterministic (land, seed)
// order once all experiments finish.
int cmd_sweep(const std::vector<std::string>& args) {
  std::vector<LandArchetype> lands;
  std::size_t seeds = 0;
  std::uint64_t seed_base = 42;
  double hours = 24.0;
  std::size_t jobs = 0;  // 0 = SLMOB_THREADS env / hardware_concurrency
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--land" && i + 1 < args.size()) {
      const auto parsed = parse_lands(args[++i]);
      if (!parsed) return usage();
      lands = *parsed;
    } else if (args[i] == "--seeds" && i + 1 < args.size()) {
      if (!read_count(args[++i], seeds)) return usage();
    } else if (args[i] == "--seed-base" && i + 1 < args.size()) {
      if (!read_count(args[++i], seed_base)) return usage();
    } else if (args[i] == "--hours" && i + 1 < args.size()) {
      if (!read_positive(args[++i], hours)) return usage();
    } else if (args[i] == "--jobs" && i + 1 < args.size()) {
      if (!read_count(args[++i], jobs)) return usage();
    } else {
      return usage();
    }
  }
  if (lands.empty() || seeds == 0) return usage();

  std::vector<ExperimentConfig> cells;
  for (const LandArchetype land : lands) {
    for (std::size_t s = 0; s < seeds; ++s) {
      ExperimentConfig cfg;
      cfg.archetype = land;
      cfg.duration = hours * kSecondsPerHour;
      cfg.seed = seed_base + s;
      cells.push_back(cfg);
    }
  }

  const std::size_t threads = jobs == 0 ? ThreadPool::default_concurrency() : jobs;
  std::printf("sweeping %zu experiments (%zu lands x %zu seeds, %.1f h, %zu threads)\n",
              cells.size(), lands.size(), seeds, hours, threads);
  const auto results = run_experiments_sharded(cells, jobs);

  std::printf("%-12s %6s %8s %8s %10s %10s %10s\n", "land", "seed", "users", "conc",
              "ct_med", "ict_med", "deg_med");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& res = results[i];
    const auto& c = res.analysis.contacts.at(kBluetoothRange);
    const auto& g = res.analysis.graphs.at(kBluetoothRange);
    const auto median = [](const Ecdf& e) { return e.empty() ? 0.0 : e.median(); };
    std::printf("%-12s %6llu %8zu %8.1f %10.0f %10.0f %10.0f\n",
                archetype_name(cells[i].archetype).c_str(),
                static_cast<unsigned long long>(cells[i].seed),
                res.analysis.summary.unique_users, res.analysis.summary.avg_concurrent,
                median(c.contact_times),
                median(c.inter_contact_times), median(g.degrees));
  }
  return 0;
}

int cmd_convert(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  const Trace trace = read_any(args[0]);
  const std::string& out = args[1];
  if (out.size() > 4 && out.substr(out.size() - 4) == ".csv") {
    // Atomic + checked: the old fopen/fwrite path returned success even
    // when a full disk truncated the CSV mid-write.
    save_trace_csv(trace, out);
  } else {
    save_trace(trace, out);
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_report(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  ReportOptions options;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--series") {
      options.include_series = true;
    } else {
      return usage();
    }
  }
  ExperimentResults res;
  res.trace = read_any(args[0]);
  res.analysis = analyze_trace(res.trace, {kBluetoothRange, kWifiRange});
  write_report(res, args[1], options);
  std::printf("wrote %s\n", args[1].c_str());
  return 0;
}

int cmd_dtn(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  DtnConfig cfg;
  Trace trace = read_any(args[0]);
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--scheme" && i + 1 < args.size()) {
      const std::string s = args[++i];
      if (s == "epidemic") {
        cfg.scheme = RoutingScheme::kEpidemic;
      } else if (s == "two-hop") {
        cfg.scheme = RoutingScheme::kTwoHopRelay;
      } else if (s == "direct") {
        cfg.scheme = RoutingScheme::kDirectDelivery;
      } else {
        return usage();
      }
    } else if (args[i] == "--messages" && i + 1 < args.size()) {
      if (!read_count(args[++i], cfg.message_count)) return usage();
    } else if (args[i] == "--range" && i + 1 < args.size()) {
      if (!read_positive(args[++i], cfg.range)) return usage();
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!read_count(args[++i], cfg.seed)) return usage();
    } else {
      return usage();
    }
  }
  const DtnResults res = simulate_dtn(trace, cfg);
  std::printf("%s @ r=%.0fm: delivery %.1f%% (%zu/%zu), delay med %.0fs p90 %.0fs, "
              "%.1f copies/message\n",
              routing_scheme_name(cfg.scheme), cfg.range, res.delivery_ratio * 100.0,
              res.messages_delivered, res.messages_created,
              res.delays.empty() ? 0.0 : res.delays.median(),
              res.delays.empty() ? 0.0 : res.delays.quantile(0.9),
              res.mean_copies_per_message);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    if (command == "run") return cmd_run(args);
    if (command == "salvage") return cmd_salvage(args);
    if (command == "summary") return cmd_summary(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "convert") return cmd_convert(args);
    if (command == "dtn") return cmd_dtn(args);
    if (command == "report") return cmd_report(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
