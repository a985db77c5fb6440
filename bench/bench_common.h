// Shared helpers for the experiment benches.
//
// Every bench replays a scaled-down horizon (default 60 s of simulated
// time vs hours in the paper) so the full suite finishes in seconds.
// Override with PROTEAN_BENCH_HORIZON=<seconds> for longer runs and
// PROTEAN_BENCH_JOBS=<threads> to change sweep parallelism (results are
// identical for any job count).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/strfmt.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace protean::bench {

inline Duration bench_horizon() {
  if (const char* env = std::getenv("PROTEAN_BENCH_HORIZON")) {
    const double h = std::atof(env);
    if (h > 0.0) return h;
  }
  return 60.0;
}

/// Worker threads for sweep-based benches: PROTEAN_BENCH_JOBS, else one per
/// core (capped — bench grids are small).
inline int bench_jobs() {
  if (const char* env = std::getenv("PROTEAN_BENCH_JOBS")) {
    const int jobs = std::atoi(env);
    if (jobs > 0) return jobs;
  }
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 8u));
}

/// Primary-experiment config at the bench horizon.
inline harness::ExperimentConfig bench_config(const std::string& model) {
  return harness::primary_config(model, bench_horizon());
}

/// Runs one config across the paper's four primary schemes on the bench
/// worker pool; reports come back in paper_schemes() order.
inline std::vector<harness::Report> run_paper_schemes(
    harness::ExperimentConfig config) {
  harness::SweepConfig sweep;
  sweep.base = std::move(config);
  sweep.schemes = sched::paper_schemes();
  return harness::SweepRunner(bench_jobs()).run_grid(sweep);
}

inline std::string pct(double value) { return strfmt("%.2f%%", value); }
/// Whole milliseconds. An exact attribution lane that is zero in real
/// arithmetic can come out as -1e-12; it prints as 0, not -0.
inline std::string ms(double value) {
  return strfmt("%.0f", std::abs(value) < 0.5 ? 0.0 : value);
}

}  // namespace protean::bench
