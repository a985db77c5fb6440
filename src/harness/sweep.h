// Parallel sweep harness: runs a grid of experiments — (scheme × seed ×
// optional parameter axis) — on a fixed-size worker pool, one private
// Simulator per run, and aggregates multi-seed replications into
// mean/stddev/95% CI summaries.
//
// Results always come back in deterministic grid order (axis value, then
// scheme, then seed — row-major) regardless of thread interleaving, and a
// sweep with jobs == 1 executes the exact call sequence of the historical
// serial path, which anchors correctness: `--jobs 8` must be bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.h"

namespace protean::harness {

/// A numeric parameter axis swept across runs, inclusive of both endpoints
/// (hi is clipped to the last lo + k*step that fits).
struct SweepAxis {
  enum class Param {
    kNone,        ///< no axis: the grid is just schemes × seeds
    kRps,         ///< trace.target_rps
    kNodes,       ///< cluster.node_count
    kSloMult,     ///< cluster.slo_multiplier
    kStrictFrac,  ///< strict_fraction
    kPRev,        ///< cluster.market.p_rev
  };

  Param param = Param::kNone;
  double lo = 0.0;
  double hi = 0.0;
  double step = 0.0;

  bool active() const noexcept { return param != Param::kNone; }

  /// The axis points, lo..hi by step. A single {0} placeholder when inactive
  /// so grid enumeration can treat every sweep uniformly.
  std::vector<double> values() const;

  /// Writes `value` into the field this axis controls; no-op when inactive.
  void apply(ExperimentConfig& config, double value) const;

  /// Parses "<param>=<lo>:<hi>:<step>", e.g. "rps=1000:5000:500".
  /// Params: rps | nodes | slo-mult | strict-frac | p-rev. Rejects
  /// non-finite fields, endpoints outside the matching scalar flag's range
  /// (rps > 0, nodes 1..1024, slo-mult >= 1, strict-frac and p-rev in
  /// [0, 1]) and specs of more than 10000 points.
  static std::optional<SweepAxis> parse(std::string_view spec);
};

/// CLI/display name of an axis parameter ("rps", "nodes", ...).
const char* to_string(SweepAxis::Param param) noexcept;

/// Declarative description of a sweep grid.
struct SweepConfig {
  ExperimentConfig base;
  std::vector<sched::Scheme> schemes = {sched::Scheme::kProtean};
  /// Number of seed replications; run r uses seed base.seed + r.
  std::uint32_t replications = 1;
  SweepAxis axis;

  std::vector<std::uint64_t> seeds() const;

  /// Expands to concrete configs in deterministic row-major grid order:
  /// for each axis value, for each scheme, for each seed.
  std::vector<ExperimentConfig> grid() const;
};

/// Distribution summary of one metric across seed replications.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;  ///< unbiased sample stddev; 0 for n < 2
  double ci95 = 0.0;    ///< half-width of the 95% CI of the mean
  double min = 0.0;
  double max = 0.0;
};

MetricSummary summarize(const std::vector<double>& xs);

/// One grid cell — a (scheme, axis value) pair — aggregated across seeds.
/// `per_seed` keeps the full replication detail in seeds() order.
struct AggregateReport {
  std::string scheme;
  SweepAxis::Param axis_param = SweepAxis::Param::kNone;
  double axis_value = 0.0;
  std::vector<std::uint64_t> seeds;
  std::vector<Report> per_seed;

  MetricSummary slo_compliance_pct;
  MetricSummary strict_p50_ms;
  MetricSummary strict_p99_ms;
  MetricSummary be_p99_ms;
  MetricSummary throughput_strict;
  MetricSummary goodput_strict;
  MetricSummary gpu_util_pct;
  MetricSummary mem_util_pct;
  MetricSummary cost_usd;
  MetricSummary dropped;
  /// Fault-resilience summaries; all-zero unless fault injection was on.
  MetricSummary lost_requests;
  MetricSummary retries;
};

/// Aggregates one cell's replications (all reports share scheme/axis value).
AggregateReport aggregate_reports(std::vector<Report> per_seed,
                                  std::vector<std::uint64_t> seeds);

/// Fixed-size worker pool executing experiment grids.
class SweepRunner {
 public:
  /// jobs <= 1 runs serially on the calling thread (the correctness anchor);
  /// jobs == 0 is treated as 1.
  explicit SweepRunner(int jobs = 1);

  int jobs() const noexcept { return jobs_; }

  /// Runs an arbitrary list of configs; result[i] is configs[i]'s report,
  /// independent of scheduling order. Each worker owns its Simulator, so no
  /// simulation state is shared.
  std::vector<Report> run(const std::vector<ExperimentConfig>& configs) const;

  /// Runs the full grid, flat, in SweepConfig::grid() order.
  std::vector<Report> run_grid(const SweepConfig& sweep) const;

  /// Runs the full grid and folds seed replications into one
  /// AggregateReport per (axis value × scheme) cell, in grid order.
  std::vector<AggregateReport> run_aggregate(const SweepConfig& sweep) const;

 private:
  int jobs_;
};

}  // namespace protean::harness
