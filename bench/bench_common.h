// Shared helpers for the experiment benches.
//
// Every bench replays a scaled-down horizon (default 60 s of simulated
// time vs hours in the paper) so the full suite finishes in seconds.
// Override with PROTEAN_BENCH_HORIZON=<seconds> for longer runs and
// PROTEAN_BENCH_JOBS=<threads> to change sweep parallelism (results are
// identical for any job count). A malformed value is an error (exit 2).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/parse.h"
#include "common/strfmt.h"
#include "harness/experiment.h"
#include "harness/flagspec.h"
#include "harness/paper_rows.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace protean::bench {

/// Exits 2 with a message naming `var` when its value is malformed: a bench
/// must not silently run a different grid than the one asked for.
[[noreturn]] inline void bad_env(const char* var, const char* value,
                                 const char* want) {
  std::fprintf(stderr, "error: %s='%s': want %s\n", var, value, want);
  std::exit(2);
}

/// PROTEAN_BENCH_HORIZON, else 60 s. It must exceed the cells' warmup:
/// at or below it the measurement window is empty and every cell would
/// print a vacuous 100%.
inline Duration bench_horizon() {
  const char* env = std::getenv("PROTEAN_BENCH_HORIZON");
  if (env == nullptr) return harness::kPaperHorizon;
  const Duration warmup = harness::ExperimentConfig{}.warmup;
  const auto horizon = harness::parse_spec_number(env);
  if (!horizon || *horizon <= warmup) {
    bad_env("PROTEAN_BENCH_HORIZON", env,
            strfmt("a finite number of seconds > %g (the warmup)", warmup)
                .c_str());
  }
  return *horizon;
}

/// Worker threads for sweep-based benches: PROTEAN_BENCH_JOBS (1..1024, as
/// protean_sim --jobs), else one per core (capped — bench grids are small).
inline int bench_jobs() {
  if (const char* env = std::getenv("PROTEAN_BENCH_JOBS")) {
    const auto jobs = parse_count(env);
    if (!jobs || *jobs < 1 || *jobs > 1024) {
      bad_env("PROTEAN_BENCH_JOBS", env, "an integer in 1..1024");
    }
    return static_cast<int>(*jobs);
  }
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 8u));
}

/// Primary-experiment config at the bench horizon.
inline harness::ExperimentConfig bench_config(const std::string& model) {
  return harness::primary_config(model, bench_horizon());
}

inline std::string pct(double value) { return strfmt("%.2f%%", value); }
/// Whole milliseconds. An exact attribution lane that is zero in real
/// arithmetic can come out as -1e-12; it prints as 0, not -0.
inline std::string ms(double value) {
  return strfmt("%.0f", std::abs(value) < 0.5 ? 0.0 : value);
}

}  // namespace protean::bench
