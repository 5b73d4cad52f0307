#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "core/shards.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace slmob::bench {
namespace {

struct CacheKey {
  LandArchetype archetype;
  double hours;
  std::uint64_t seed;
  bool operator<(const CacheKey& o) const {
    return std::tie(archetype, hours, seed) < std::tie(o.archetype, o.hours, o.seed);
  }
};

// Guards the results cache; experiments themselves run unlocked.
std::mutex cache_mutex;
std::map<CacheKey, ExperimentResults>& cache() {
  static std::map<CacheKey, ExperimentResults> instance;
  return instance;
}

// The land's experiment, announced on stderr as it is about to run.
ExperimentConfig land_config(LandArchetype archetype, const BenchOptions& options) {
  ExperimentConfig cfg;
  cfg.archetype = archetype;
  cfg.duration = options.hours * kSecondsPerHour;
  cfg.seed = options.seed;
  std::fprintf(stderr, "[bench] simulating %s (%.1f h, seed %llu)...\n",
               archetype_name(archetype).c_str(), options.hours,
               static_cast<unsigned long long>(options.seed));
  return cfg;
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions options;
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--hours H] [--seed S] [--quick]\n", argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--hours") == 0 && has_value) {
      options.hours = parse_positive_double(argv[++i]);
      if (options.hours < 0.0) usage();
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_value) {
      const long long seed = parse_non_negative_int(argv[++i]);
      if (seed < 0) usage();
      options.seed = static_cast<std::uint64_t>(seed);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.hours = 4.0;
    } else {
      usage();
    }
  }
  return options;
}

const ExperimentResults& land_results(LandArchetype archetype,
                                      const BenchOptions& options) {
  const CacheKey key{archetype, options.hours, options.seed};
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = cache().find(key);
    if (it != cache().end()) return it->second;
  }
  ExperimentResults res = run_experiment(land_config(archetype, options));
  const std::lock_guard<std::mutex> lock(cache_mutex);
  // emplace is a no-op if another thread raced us to the same key.
  return cache().emplace(key, std::move(res)).first->second;
}

void prewarm_lands(const std::vector<LandArchetype>& archetypes,
                   const BenchOptions& options) {
  std::vector<LandArchetype> missing;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex);
    for (const LandArchetype a : archetypes) {
      if (!cache().contains({a, options.hours, options.seed})) missing.push_back(a);
    }
  }
  if (missing.size() < 2) {
    for (const LandArchetype a : missing) (void)land_results(a, options);
    return;
  }
  std::vector<ExperimentConfig> configs;
  for (const LandArchetype a : missing) configs.push_back(land_config(a, options));
  auto all = run_experiments_sharded(
      configs, std::min(ThreadPool::default_concurrency(), missing.size()));
  const std::lock_guard<std::mutex> lock(cache_mutex);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    cache().emplace(CacheKey{missing[i], options.hours, options.seed}, std::move(all[i]));
  }
}

void print_title(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

void print_ccdf_log(const std::string& label, const Ecdf& dist, double lo_floor) {
  std::printf("# CCDF %s (n=%zu)\n", label.c_str(), dist.size());
  if (dist.empty()) {
    std::printf("#   (no samples)\n");
    return;
  }
  for (const auto& p : dist.ccdf_log_series(18, lo_floor)) {
    std::printf("%-28s %12.2f %10.4f\n", label.c_str(), p.x, p.y);
  }
}

void print_cdf(const std::string& label, const Ecdf& dist) {
  std::printf("# CDF %s (n=%zu)\n", label.c_str(), dist.size());
  if (dist.empty()) {
    std::printf("#   (no samples)\n");
    return;
  }
  for (const auto& p : dist.cdf_series(18)) {
    std::printf("%-28s %12.2f %10.4f\n", label.c_str(), p.x, p.y);
  }
}

void print_compare(const std::string& metric, double paper, double measured) {
  std::printf("%-44s paper=%-10.0f measured=%-10.1f\n", metric.c_str(), paper, measured);
}

void print_compare(const std::string& metric, const std::string& paper, double measured) {
  std::printf("%-44s paper=%-10s measured=%-10.1f\n", metric.c_str(), paper.c_str(),
              measured);
}

}  // namespace slmob::bench
