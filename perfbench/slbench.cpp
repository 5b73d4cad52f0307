// slbench: the slmob measurement loop, driven stage by stage for
// perfbench/run.py. Every subcommand prints one JSON object on stdout.
//
//   slbench env
//       hardware_concurrency, compiler and build type of this binary.
//   slbench collect <workload> <seed> <hours> <threads> <dir>
//       Timed collection stage: runs every shard of the workload through the
//       public entry point the CLI uses (Testbed + journal, run_sharded +
//       save_trace, run_durable) and leaves the trace files under <dir>.
//   slbench analyze <workload> <threads> <dir>
//       Timed analysis stage: opens each trace file collect left in <dir>
//       with open_trace_stream and feeds it to a StreamingAnalyzer.
//   Both repeat their stage a few times and report the fastest repetition.
//   slbench trace <workload> <seed> <hours> <dir>
//       Traced run: the same collection on one thread with wall-clock hooks
//       between the engine's component priorities, then each trace layer and
//       a one-thread replay of every analysis consumer, each timed from the
//       outside through its public functions.
//
// Workloads (perfbench/spec.json says why each exists):
//   isle_paper    Isle of View, journaled; 10 m + 80 m on <threads> threads.
//   sweep_bt      3 lands x 4 seeds in memory on <threads> threads, saved as
//                 .slt; 10 m only, one analysis thread per trace.
//   dance_faults  Dance Island under "chaos" faults through run_durable with
//                 a checkpoint every 600 s; 10 m + 80 m on one thread.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis_report.hpp"
#include "analysis/contacts.hpp"
#include "analysis/graphs.hpp"
#include "analysis/incremental_proximity.hpp"
#include "analysis/streaming.hpp"
#include "analysis/trips.hpp"
#include "analysis/zones.hpp"
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "core/shards.hpp"
#include "core/testbed.hpp"
#include "trace/journal.hpp"
#include "trace/serialize.hpp"
#include "trace/sessions.hpp"
#include "trace/stream.hpp"
#include "util/bytes.hpp"
#include "util/sysinfo.hpp"
#include "util/thread_pool.hpp"
#include "util/wallclock.hpp"

namespace slmob {
namespace {

namespace fs = std::filesystem;

constexpr Seconds kCheckpointEvery = 600.0;
// The chaos schedule is fixed; --seed varies the world under it.
constexpr std::uint64_t kChaosFaultSeed = 2008;
constexpr std::size_t kSweepSeeds = 4;
// Set-up takes microseconds to milliseconds, so it is repeated — at least
// kSetupMinReps times, then until kSetupBudget seconds or kSetupMaxReps —
// and the median reported.
constexpr std::size_t kSetupMinReps = 5;
constexpr std::size_t kSetupMaxReps = 201;
constexpr double kSetupBudget = 0.25;

enum class Workload { kIsle, kSweep, kDance };

Workload parse_workload(const std::string& name) {
  if (name == "isle_paper") return Workload::kIsle;
  if (name == "sweep_bt") return Workload::kSweep;
  if (name == "dance_faults") return Workload::kDance;
  throw std::invalid_argument("unknown workload " + name);
}

struct Shard {
  std::string name;  // file stem under the job directory
  ExperimentConfig config;
};

// Shard names do not depend on seed or hours, so analyze finds the files
// collect wrote from the workload alone.
std::vector<Shard> shards_of(Workload w, std::uint64_t seed, double hours) {
  const auto config = [&](LandArchetype land, std::uint64_t s) {
    ExperimentConfig cfg;
    cfg.archetype = land;
    cfg.duration = hours * kSecondsPerHour;
    cfg.seed = s;
    cfg.ranges = {};  // collection only
    return cfg;
  };
  switch (w) {
    case Workload::kIsle:
      return {{"isle", config(LandArchetype::kIsleOfView, seed)}};
    case Workload::kSweep: {
      static const char* const kSlugs[] = {"apfel", "dance", "isle"};
      std::vector<Shard> out;
      for (std::size_t k = 0; k < kSweepSeeds; ++k) {
        for (std::size_t l = 0; l < std::size(kAllArchetypes); ++l) {
          out.push_back({std::string(kSlugs[l]) + "-" + std::to_string(k),
                         config(kAllArchetypes[l], seed + k)});
        }
      }
      return out;
    }
    case Workload::kDance: {
      ExperimentConfig cfg = config(LandArchetype::kDanceIsland, seed);
      cfg.fault_scenario = "chaos";
      cfg.fault_seed = kChaosFaultSeed;
      return {{"dance", cfg}};
    }
  }
  throw std::logic_error("unreachable");
}

// The file the analysis stage reads for `shard`.
std::string input_path(Workload w, const Shard& shard, const std::string& dir) {
  switch (w) {
    case Workload::kIsle:
      return dir + "/" + shard.name + ".sltj";
    case Workload::kSweep:
      return dir + "/" + shard.name + ".slt";
    case Workload::kDance:
      return dir + "/" + shard.name + "/" + kJournalFileName;
  }
  throw std::logic_error("unreachable");
}

std::vector<double> ranges_of(Workload w) {
  if (w == Workload::kSweep) return {kBluetoothRange};
  return {kBluetoothRange, kWifiRange};
}

StreamingOptions analysis_options(Workload w, std::size_t threads) {
  StreamingOptions options;
  options.ranges = ranges_of(w);
  // sweep_bt spends its budget across traces; dance_faults is the
  // single-thread baseline.
  options.threads = w == Workload::kIsle ? threads : 1;
  return options;
}

double seconds_between(wallclock::TimePoint a, wallclock::TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

std::uint32_t trace_digest(const Trace& trace) { return crc32(encode_trace(trace)); }

double file_bytes(const std::string& path) {
  return static_cast<double>(fs::file_size(path));
}

// Flat JSON object writer; keys and string values never need escaping here.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& str(const std::string& key, const std::string& v) { return raw(key, "\"" + v + "\""); }
  Json& raw(const std::string& key, const std::string& text) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + text;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void print(const Json& json) { std::printf("%s\n", json.text().c_str()); }

// Median of `one_rep()`, the seconds one set-up took.
template <typename Fn>
double median_setup(Fn&& one_rep) {
  std::vector<double> reps;
  double spent = 0.0;
  while (reps.size() < kSetupMinReps || (spent < kSetupBudget && reps.size() < kSetupMaxReps)) {
    reps.push_back(one_rep());
    spent += reps.back();
  }
  return median(reps);
}

// --- collection -------------------------------------------------------------

// Wall time to construct every rig of the workload.
double rig_setup_seconds(const std::vector<Shard>& shards) {
  return median_setup([&] {
    double total = 0.0;
    for (const Shard& s : shards) {
      const auto t0 = wallclock::now();
      const Testbed bed(make_testbed_config(s.config));
      total += wallclock::seconds_since(t0);
    }
    return total;
  });
}

// Repetitions of each stage per job. The host's speed swings by a quarter
// within seconds, so a stage's time is its fastest repetition; every
// repetition must give the same digests or fingerprints.
int collect_reps(Workload w) { return w == Workload::kSweep ? 5 : 9; }
int analyze_reps(Workload w) {
  switch (w) {
    case Workload::kIsle:
      return 2;
    case Workload::kSweep:
    case Workload::kDance:
      return 3;
  }
  throw std::logic_error("unreachable");
}

struct StageRun {
  double wall_s{std::numeric_limits<double>::infinity()};
  double cpu_s{std::numeric_limits<double>::infinity()};
  std::vector<std::string> outputs;  // "inconsistent" when repetitions differ
  double first_peak_bytes{0.0};      // process peak RSS after the first repetition
};

// Times `stage()` `reps` times; `outputs(result)` runs outside the timer.
template <typename Stage, typename Outputs>
StageRun run_stage(int reps, Stage&& stage, Outputs&& outputs) {
  StageRun run;
  for (int r = 0; r < reps; ++r) {
    const double cpu0 = cpu_seconds();
    const auto t0 = wallclock::now();
    const auto result = stage();
    run.wall_s = std::min(run.wall_s, wallclock::seconds_since(t0));
    run.cpu_s = std::min(run.cpu_s, cpu_seconds() - cpu0);
    if (r == 0) run.first_peak_bytes = static_cast<double>(peak_rss_bytes());
    std::vector<std::string> out = outputs(result);
    if (r == 0) {
      run.outputs = std::move(out);
    } else if (out != run.outputs) {
      run.outputs.assign(run.outputs.size(), "inconsistent");
    }
  }
  return run;
}

// One collection stage, as the CLI runs it, leaving the files under `dir`.
std::vector<Trace> collect_once(Workload w, const std::vector<Shard>& shards,
                                std::size_t threads, const std::string& dir,
                                std::size_t& checkpoints) {
  std::vector<Trace> traces;
  switch (w) {
    case Workload::kIsle: {
      // As `slmob run --journal`: the crawler mirrors every record to disk.
      const Shard& s = shards.front();
      Testbed bed(make_testbed_config(s.config));
      TraceJournalWriter writer(input_path(w, s, dir), s.config.duration);
      bed.crawler()->attach_journal(&writer);
      bed.run_until(s.config.duration);
      traces.push_back(bed.crawler()->take_trace());
      writer.append_end(bed.engine().now());
      break;
    }
    case Workload::kSweep: {
      std::vector<ExperimentConfig> configs;
      for (const Shard& s : shards) configs.push_back(s.config);
      ShardRunOptions options;
      options.threads = threads;
      std::vector<ShardResult> results = run_sharded(configs, options);
      for (std::size_t i = 0; i < results.size(); ++i) {
        save_trace(results[i].trace, input_path(w, shards[i], dir));
        traces.push_back(std::move(results[i].trace));
      }
      break;
    }
    case Workload::kDance: {
      DurableRunOptions options;
      options.config = shards.front().config;
      options.dir = dir + "/" + shards.front().name;
      options.checkpoint_every = kCheckpointEvery;
      DurableRunResult result = run_durable(options);
      checkpoints = result.checkpoints_written;
      traces.push_back(std::move(result.trace));
      break;
    }
  }
  return traces;
}

int cmd_collect(Workload w, std::uint64_t seed, double hours, std::size_t threads,
                const std::string& dir) {
  const std::vector<Shard> shards = shards_of(w, seed, hours);
  const double setup_s = rig_setup_seconds(shards);
  fs::create_directories(dir);

  std::size_t checkpoints = 0;
  const StageRun run = run_stage(
      collect_reps(w), [&] { return collect_once(w, shards, threads, dir, checkpoints); },
      [](const std::vector<Trace>& traces) {
        std::vector<std::string> out;
        for (const Trace& t : traces) out.push_back(hex32(trace_digest(t)));
        return out;
      });

  double written = 0.0;
  Json digests;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    written += file_bytes(input_path(w, shards[i], dir));
    digests.str(shards[i].name, run.outputs[i]);
  }
  if (checkpoints > 0) {
    // Every checkpoint rewrites one file of fixed size.
    written += static_cast<double>(checkpoints) *
               file_bytes(dir + "/" + shards.front().name + "/" + kCheckpointFileName);
  }
  print(Json()
            .num("collect_s", run.wall_s)
            .num("setup_s", setup_s)
            .num("cpu_s", run.cpu_s)
            .num("written_bytes", written)
            .num("threads", static_cast<double>(w == Workload::kSweep ? threads : 1))
            .raw("digests", digests.text()));
  return 0;
}

// --- analysis ---------------------------------------------------------------

// Wall time to open every input and bring its analyzer up to the first
// snapshot: open_trace_stream, StreamingAnalyzer construction, on_begin.
double analyzer_setup_seconds(const std::vector<std::string>& paths,
                              const StreamingOptions& options) {
  return median_setup([&] {
    double total = 0.0;
    for (const std::string& path : paths) {
      const auto t0 = wallclock::now();
      const auto stream = open_trace_stream(path);
      StreamingAnalyzer analyzer(options);
      analyzer.on_begin(stream->land_name(), stream->sampling_interval());
      total += wallclock::seconds_since(t0);
    }
    return total;
  });
}

int cmd_analyze(Workload w, std::size_t threads, const std::string& dir) {
  const std::vector<Shard> shards = shards_of(w, 0, 0.0);
  std::vector<std::string> paths;
  for (const Shard& s : shards) paths.push_back(input_path(w, s, dir));
  const StreamingOptions options = analysis_options(w, threads);

  const StageRun run = run_stage(
      analyze_reps(w),
      [&] {
        if (paths.size() == 1) {
          std::vector<AnalysisReport> reports;
          reports.push_back(analyze_stream_file(paths.front(), options));
          return reports;
        }
        ThreadPool pool(threads);
        return parallel_map<AnalysisReport>(pool, paths.size(), [&](std::size_t i) {
          return analyze_stream_file(paths[i], options);
        });
      },
      [](const std::vector<AnalysisReport>& reports) {
        std::vector<std::string> out;
        for (const AnalysisReport& r : reports) out.push_back(hex32(analysis_fingerprint(r)));
        return out;
      });

  Json fingerprints;
  for (std::size_t i = 0; i < shards.size(); ++i) fingerprints.str(shards[i].name, run.outputs[i]);
  print(Json()
            .num("analyze_s", run.wall_s)
            .num("setup_s", analyzer_setup_seconds(paths, options))
            .num("cpu_s", run.cpu_s)
            .num("peak_rss_bytes", run.first_peak_bytes)
            .num("threads", static_cast<double>(w == Workload::kDance ? 1 : threads))
            .raw("fingerprints", fingerprints.text()));
  return 0;
}

// --- traced run: collection -------------------------------------------------

struct TickSpans {
  double world{0.0};
  double server{0.0};
  double net{0.0};
  double client{0.0};
  double crawler{0.0};

  [[nodiscard]] double total() const { return world + server + net + client + crawler; }
};

// Wall-clock hooks registered through the public SimEngine::add: one just
// before the world and one after each component, so every tick splits into
// five spans. The crawler span includes the journal appends it makes.
class TickTimer {
 public:
  TickTimer(SimEngine& engine, TickSpans& spans) : spans_(&spans) {
    engine.add(kPriorityWorld - 1, [this](Seconds, Seconds) { mark_ = wallclock::now(); });
    engine.add(kPriorityWorld + 5, [this](Seconds, Seconds) { lap(spans_->world); });
    engine.add(kPriorityServer + 5, [this](Seconds, Seconds) { lap(spans_->server); });
    engine.add(kPriorityNetwork + 5, [this](Seconds, Seconds) { lap(spans_->net); });
    engine.add(kPriorityClient + 5, [this](Seconds, Seconds) { lap(spans_->client); });
    engine.add(kPriorityMonitor + 5, [this](Seconds, Seconds) { lap(spans_->crawler); });
  }
  TickTimer(const TickTimer&) = delete;
  TickTimer& operator=(const TickTimer&) = delete;

 private:
  void lap(double& into) {
    const auto t = wallclock::now();
    into += seconds_between(mark_, t);
    mark_ = t;
  }

  TickSpans* spans_;
  wallclock::TimePoint mark_{};
};

// Component counters of one collection, summed over shards.
struct RigCounts {
  double logins{0.0};
  double coarse_updates{0.0};
  double messages_shed{0.0};
  double sent{0.0};
  double delivered{0.0};
  double fault_dropped{0.0};
  double packets_sent{0.0};
  double retransmits{0.0};
  double snapshots{0.0};
  double empty_snapshots{0.0};
  double relogins{0.0};
  double gaps{0.0};

  void add(Testbed& bed) {
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    logins += d(bed.world().stats().total_logins);
    coarse_updates += d(bed.server().stats().coarse_updates_sent);
    messages_shed += d(bed.server().stats().messages_shed);
    const NetworkStats& net = bed.network().stats();
    sent += d(net.sent);
    delivered += d(net.delivered);
    fault_dropped += d(net.fault_dropped);
    const CircuitStats circuit = bed.client()->total_circuit_stats();
    packets_sent += d(circuit.packets_sent);
    retransmits += d(circuit.retransmits);
    const CrawlerStats& c = bed.crawler()->stats();
    snapshots += d(c.snapshots_taken);
    empty_snapshots += d(c.empty_snapshots);
    relogins += d(c.relogins);
    gaps += d(c.coverage_gaps);
  }
};

struct RigRun {
  Trace trace;
  double wall_s{0.0};  // first tick to trace on disk; rig construction excluded
  double save_s{0.0};  // sweep_bt: the save_trace inside wall_s
};

// One shard through the steps the timed collection takes, on this thread.
// The durable loop is run_durable's, rebuilt from public calls so the engine
// is reachable for hooks.
RigRun run_rig(Workload w, const Shard& s, const std::string& dir, TickSpans* spans,
               RigCounts* counts) {
  Testbed bed(make_testbed_config(s.config));
  std::optional<TickTimer> timer;
  if (spans != nullptr) timer.emplace(bed.engine(), *spans);
  const Seconds duration = s.config.duration;

  RigRun run;
  const auto t0 = wallclock::now();
  switch (w) {
    case Workload::kIsle: {
      TraceJournalWriter writer(input_path(w, s, dir), duration);
      bed.crawler()->attach_journal(&writer);
      bed.run_until(duration);
      run.trace = bed.crawler()->take_trace();
      writer.append_end(bed.engine().now());
      break;
    }
    case Workload::kSweep: {
      bed.run_until(duration);
      run.trace = bed.crawler()->take_trace();
      const auto ts = wallclock::now();
      save_trace(run.trace, input_path(w, s, dir));
      run.save_s = wallclock::seconds_since(ts);
      break;
    }
    case Workload::kDance: {
      const std::string ckdir = dir + "/" + s.name;
      fs::create_directories(ckdir);
      TraceJournalWriter writer(input_path(w, s, dir), duration);
      bed.crawler()->attach_journal(&writer);
      CheckpointState base;
      base.archetype = s.config.archetype;
      base.duration = duration;
      base.seed = s.config.seed;
      base.fault_scenario = s.config.fault_scenario;
      base.fault_seed = s.config.fault_seed;
      base.checkpoint_every = kCheckpointEvery;
      for (Seconds t = 0.0; t < duration;) {
        t = std::min(t + kCheckpointEvery, duration);
        bed.run_until(t);
        CheckpointState ck = base;
        ck.time = t;
        ck.journal_offset = writer.offset();
        fill_checkpoint_witness(ck, bed);
        save_checkpoint(ck, ckdir);
      }
      run.trace = bed.crawler()->take_trace();
      writer.append_end(bed.engine().now());
      break;
    }
  }
  run.wall_s = wallclock::seconds_since(t0);
  if (counts != nullptr) counts->add(bed);
  return run;
}

// Re-appends `trace` through a fresh TraceJournalWriter in stream order (gap
// and degradation frames before the first snapshot at or after their start).
// Adds the time taken to `seconds`; returns the bytes written.
double reappend_journal(const Trace& trace, const std::string& path, double& seconds) {
  const auto t0 = wallclock::now();
  const auto& snaps = trace.snapshots();
  TraceJournalWriter writer(path, snaps.empty() ? 0.0 : snaps.back().time);
  writer.begin(trace.land_name(), trace.sampling_interval());
  const auto& gaps = trace.gaps();
  const auto& degradations = trace.degradations();
  std::size_t gi = 0;
  std::size_t di = 0;
  const auto flush_until = [&](Seconds t) {
    for (; gi < gaps.size() && gaps[gi].start <= t; ++gi) {
      writer.append_gap_open(gaps[gi].start);
      writer.append_gap_close(gaps[gi].start, gaps[gi].end);
    }
    for (; di < degradations.size() && degradations[di].start <= t; ++di) {
      const SamplingDegradation& d = degradations[di];
      writer.append_degrade_open(d.start, d.factor);
      writer.append_degrade_close(d.start, d.end, d.factor);
    }
  };
  for (const Snapshot& snap : snaps) {
    flush_until(snap.time);
    writer.append_snapshot(snap);
  }
  flush_until(std::numeric_limits<Seconds>::infinity());
  writer.append_end(snaps.empty() ? 0.0 : snaps.back().time);
  seconds += wallclock::seconds_since(t0);
  return static_cast<double>(writer.offset());
}

// --- traced run: analysis ---------------------------------------------------

// Seconds per consumer, summed over traces; index 0 is 10 m, 1 is 80 m.
struct ReplaySpans {
  double wall{0.0};
  double read{0.0};  // open_trace_stream + TraceStream::next
  double advance{0.0};
  double contacts[2]{0.0, 0.0};
  double graphs[2]{0.0, 0.0};
  double zones{0.0};
  double sessions{0.0};  // SessionStream, which feeds TripStream
  double finish{0.0};    // every consumer's finish()
  double advanced{0.0};  // snapshots through IncrementalProximity::advance
  double rebuilds{0.0};
  double pairs[2]{0.0, 0.0};
  double intervals_r10{0.0};

  [[nodiscard]] double attributed() const {
    return read + advance + contacts[0] + contacts[1] + graphs[0] + graphs[1] + zones +
           sessions + finish;
  }
};

// The StreamingAnalyzer's work on one thread, one public consumer call at a
// time, with the analyzer's default settings. Each consumer sees the inputs
// the windowed engine gives it, in the same order, so the report — and its
// fingerprint — must equal the timed run's.
AnalysisReport replay(const std::string& path, const std::vector<double>& ranges,
                      ReplaySpans& m) {
  const StreamingOptions defaults;
  const auto wall0 = wallclock::now();
  auto t = wall0;
  const auto lap = [&t](double& into) {
    const auto now = wallclock::now();
    into += seconds_between(t, now);
    t = now;
  };

  const auto stream = open_trace_stream(path);
  lap(m.read);
  GapTracker gaps;
  DegradationTracker rates;
  IncrementalProximity prox(ranges, defaults.churn_threshold);
  std::vector<ContactStream> contacts;
  std::vector<GraphStream> graphs;
  for (const double r : ranges) {
    contacts.emplace_back(r, stream->sampling_interval(), gaps);
    graphs.emplace_back(r);
  }
  ZoneStream zones(defaults.land_size, defaults.zone_cell_size);
  SessionStream sessions(gaps, defaults.sessions);
  TripStream trips(defaults.sessions);
  sessions.set_sink([&trips](Session&& session) { trips.on_session(session); });

  // Summary bookkeeping, as StreamingAnalyzer keeps it (unattributed time).
  std::set<AvatarId> users;
  std::size_t snapshots = 0;
  std::size_t total_fixes = 0;
  std::size_t max_concurrent = 0;
  Seconds first = 0.0;
  Seconds last = 0.0;
  for (;;) {
    t = wallclock::now();
    const StreamEvent ev = stream->next();
    lap(m.read);
    if (ev.kind == StreamEventKind::kEnd) break;
    if (ev.kind == StreamEventKind::kGap) {
      gaps.add(ev.gap.start, ev.gap.end);
      continue;
    }
    if (ev.kind == StreamEventKind::kRateChange) {
      rates.set_factor(ev.time, ev.factor);
      continue;
    }
    if (ev.kind != StreamEventKind::kSnapshot) continue;
    const Snapshot& snap = *ev.snapshot;

    if (snapshots == 0) first = snap.time;
    last = snap.time;
    ++snapshots;
    total_fixes += snap.fixes.size();
    max_concurrent = std::max(max_concurrent, snap.fixes.size());
    for (const AvatarFix& fix : snap.fixes) users.insert(fix.id);
    if (!gaps.covered_at(snap.time)) continue;

    t = wallclock::now();
    prox.advance(snap);
    lap(m.advance);
    m.advanced += 1.0;
    for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
      const auto& pairs = prox.pairs(ri);
      m.pairs[ri] += static_cast<double>(pairs.size());
      t = wallclock::now();
      contacts[ri].on_snapshot(snap, pairs);
      lap(m.contacts[ri]);
      graphs[ri].on_snapshot(snap.fixes.size(), pairs);
      lap(m.graphs[ri]);
    }
    zones.on_snapshot(prox.positions(), rates.current_factor());
    lap(m.zones);
    sessions.on_snapshot(snap);
    lap(m.sessions);
  }
  m.rebuilds += static_cast<double>(prox.rebuilds());

  AnalysisReport report;
  TraceSummary& s = report.summary;
  s.snapshot_count = snapshots;
  s.gap_count = gaps.gaps().size();
  s.gap_seconds = gaps.gap_seconds();
  s.degradation_count = rates.windows().size();
  s.degraded_seconds = rates.degraded_seconds();
  if (snapshots > 0) {
    s.unique_users = users.size();
    s.max_concurrent = max_concurrent;
    s.avg_concurrent = static_cast<double>(total_fixes) / static_cast<double>(snapshots);
    s.duration = last - first;
  }

  t = wallclock::now();
  for (std::size_t ri = 0; ri < ranges.size(); ++ri) {
    report.contacts[ranges[ri]] = contacts[ri].finish();
    report.graphs[ranges[ri]] = graphs[ri].finish();
  }
  report.zones = zones.finish();
  sessions.finish();
  report.trips = trips.finish();
  lap(m.finish);
  m.intervals_r10 += static_cast<double>(report.contacts[ranges.front()].intervals.size());
  m.wall += wallclock::seconds_since(wall0);
  return report;
}

int cmd_trace(Workload w, std::uint64_t seed, double hours, const std::string& dir) {
  const std::vector<Shard> shards = shards_of(w, seed, hours);
  const std::vector<double> ranges = ranges_of(w);
  const std::string plain_dir = dir + "/untraced";
  const std::string traced_dir = dir + "/traced";
  fs::create_directories(plain_dir);
  fs::create_directories(traced_dir);

  // Collection: each shard once without and once with hooks, on this thread.
  TickSpans spans;
  RigCounts counts;
  double plain_wall = 0.0;
  double traced_wall = 0.0;
  double save_s = 0.0;
  double append_s = 0.0;
  double journal_bytes = 0.0;
  Json digests;
  for (const Shard& s : shards) {
    plain_wall += run_rig(w, s, plain_dir, nullptr, nullptr).wall_s;
    const RigRun run = run_rig(w, s, traced_dir, &spans, &counts);
    traced_wall += run.wall_s;
    digests.str(s.name, hex32(trace_digest(run.trace)));

    journal_bytes +=
        reappend_journal(run.trace, traced_dir + "/" + s.name + ".reappend.sltj", append_s);
    if (w == Workload::kSweep) {
      save_s += run.save_s;
    } else {
      const auto t0 = wallclock::now();
      save_trace(run.trace, traced_dir + "/" + s.name + ".slt");
      save_s += wallclock::seconds_since(t0);
    }
  }

  // The trace reader alone: every analysis input drained with no consumer.
  double read_s = 0.0;
  double read_snapshots = 0.0;
  for (const Shard& s : shards) {
    const auto t0 = wallclock::now();
    const auto stream = open_trace_stream(input_path(w, s, traced_dir));
    for (StreamEvent ev = stream->next(); ev.kind != StreamEventKind::kEnd; ev = stream->next()) {
      if (ev.kind == StreamEventKind::kSnapshot) read_snapshots += 1.0;
    }
    read_s += wallclock::seconds_since(t0);
  }

  ReplaySpans m;
  Json fingerprints;
  for (const Shard& s : shards) {
    const AnalysisReport report = replay(input_path(w, s, traced_dir), ranges, m);
    fingerprints.str(s.name, hex32(analysis_fingerprint(report)));
  }

  // The _r80 figures stay 0 on a workload that analyses 10 m only.
  Json metrics;
  metrics.num("world.tick_s", spans.world)
      .num("server.tick_s", spans.server)
      .num("net.tick_s", spans.net)
      .num("client.tick_s", spans.client)
      .num("crawler.tick_s", spans.crawler)
      .num("world.logins", counts.logins)
      .num("server.coarse_updates", counts.coarse_updates)
      .num("server.messages_shed", counts.messages_shed)
      .num("net.datagrams_sent", counts.sent)
      .num("net.fault_dropped", counts.fault_dropped)
      .num("client.packets_sent", counts.packets_sent)
      .num("crawler.snapshots", counts.snapshots)
      .num("crawler.relogins", counts.relogins)
      .num("crawler.gaps", counts.gaps)
      .num("net.delivery_ratio", ratio(counts.delivered, counts.sent))
      .num("client.retransmit_ratio", ratio(counts.retransmits, counts.packets_sent))
      .num("crawler.useful_ratio",
           ratio(counts.snapshots - counts.empty_snapshots, counts.snapshots))
      .num("collect.other_s", traced_wall - spans.total())
      .num("trace.journal_append_s", append_s)
      .num("trace.journal_bytes", journal_bytes)
      .num("trace.save_s", save_s)
      .num("trace.read_s", read_s)
      .num("trace.read_snapshots", read_snapshots)
      .num("analysis.proximity.advance_s", m.advance)
      .num("analysis.proximity.rebuild_ratio", ratio(m.rebuilds, m.advanced))
      .num("analysis.proximity.pairs_r10", m.pairs[0])
      .num("analysis.proximity.pairs_r80", m.pairs[1])
      .num("analysis.graphs_r80.s", m.graphs[1])
      .num("analysis.graphs_r80.edges", m.pairs[1])
      .num("analysis.graphs_r10.s", m.graphs[0])
      .num("analysis.contacts_r10.s", m.contacts[0])
      .num("analysis.contacts_r80.s", m.contacts[1])
      .num("analysis.contacts_r10.intervals", m.intervals_r10)
      .num("analysis.zones.s", m.zones)
      .num("analysis.sessions.s", m.sessions)
      .num("analysis.finish_s", m.finish)
      .num("analysis.serial_s", m.wall)
      .num("analysis.unattributed_frac", ratio(m.wall - m.attributed(), m.wall))
      .num("traced.collect_s", traced_wall)
      .num("traced.base_collect_s", plain_wall)
      .num("traced.overhead_frac", ratio(traced_wall - plain_wall, plain_wall));
  print(Json()
            .raw("metrics", metrics.text())
            .raw("digests", digests.text())
            .raw("fingerprints", fingerprints.text()));
  return 0;
}

int cmd_env() {
  print(Json()
            .num("hardware_concurrency", std::thread::hardware_concurrency())
            .str("compiler", SLBENCH_COMPILER)
            .str("build_type", SLBENCH_BUILD_TYPE));
  return 0;
}

// Thread counts are explicit and never exceed the cores of the machine.
std::size_t parse_threads(const std::string& text) {
  const long n = std::stol(text);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  if (n < 1 || static_cast<unsigned long>(n) > cores) {
    throw std::invalid_argument("threads must be in [1, " + std::to_string(cores) + "], got " +
                                text);
  }
  return static_cast<std::size_t>(n);
}

int usage() {
  std::fprintf(stderr,
               "usage: slbench env\n"
               "       slbench collect <workload> <seed> <hours> <threads> <dir>\n"
               "       slbench analyze <workload> <threads> <dir>\n"
               "       slbench trace <workload> <seed> <hours> <dir>\n");
  return 2;
}

int run_main(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd == "env" && args.size() == 1) return cmd_env();
  if (cmd == "collect" && args.size() == 6) {
    return cmd_collect(parse_workload(args[1]), std::stoull(args[2]), std::stod(args[3]),
                       parse_threads(args[4]), args[5]);
  }
  if (cmd == "analyze" && args.size() == 4) {
    return cmd_analyze(parse_workload(args[1]), parse_threads(args[2]), args[3]);
  }
  if (cmd == "trace" && args.size() == 5) {
    return cmd_trace(parse_workload(args[1]), std::stoull(args[2]), std::stod(args[3]), args[4]);
  }
  return usage();
}

}  // namespace
}  // namespace slmob

int main(int argc, char** argv) {
  try {
    return slmob::run_main(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slbench: %s\n", e.what());
    return 1;
  }
}
