// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary that takes BenchOptions accepts:
//   --hours N   trace length in virtual hours (default 24, the paper's)
//   --seed N    experiment seed (default 42)
//   --quick     shorthand for --hours 4
// and prints the series/rows of the paper's tables or figures, plus a
// paper-vs-measured comparison where the paper states numbers.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace slmob::bench {

struct BenchOptions {
  double hours{24.0};
  std::uint64_t seed{42};

  // A missing or malformed value, or an unknown argument, prints the usage
  // text and exits with status 2.
  static BenchOptions parse(int argc, char** argv);
};

// Runs (and caches, per process) the standard experiment for one land.
// Thread-safe: may be called from pool workers.
const ExperimentResults& land_results(LandArchetype archetype, const BenchOptions& options);

// Runs the experiments for several lands concurrently through
// run_experiments_sharded (one pool slot per land, single-threaded analysis
// inside each) and fills the land_results cache, so multi-land benches pay
// max() instead of sum() of the land simulation times. Honours
// SLMOB_THREADS.
void prewarm_lands(const std::vector<LandArchetype>& archetypes,
                   const BenchOptions& options);

// Pretty-printers ------------------------------------------------------------
void print_title(const std::string& title, const std::string& paper_ref);

// Prints a CCDF as ~18 log-spaced (x, 1-F(x)) points, one line per point.
void print_ccdf_log(const std::string& label, const Ecdf& dist, double lo_floor = 1.0);
// Prints a CDF as ~18 linearly spaced points.
void print_cdf(const std::string& label, const Ecdf& dist);
// One row of a paper-vs-measured comparison.
void print_compare(const std::string& metric, double paper, double measured);
void print_compare(const std::string& metric, const std::string& paper, double measured);

}  // namespace slmob::bench
