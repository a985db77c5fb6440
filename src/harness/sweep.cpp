#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "harness/flagspec.h"
#include "metrics/stats.h"

namespace protean::harness {

const char* to_string(SweepAxis::Param param) noexcept {
  switch (param) {
    case SweepAxis::Param::kNone: return "none";
    case SweepAxis::Param::kRps: return "rps";
    case SweepAxis::Param::kNodes: return "nodes";
    case SweepAxis::Param::kSloMult: return "slo-mult";
    case SweepAxis::Param::kStrictFrac: return "strict-frac";
    case SweepAxis::Param::kPRev: return "p-rev";
  }
  return "?";
}

namespace {

/// The most points one axis may expand to (as many as --seeds allows).
constexpr double kMaxPoints = 10000;

/// `path` with a grid index before its extension ("out.json" ->
/// "out-3.json"), so a grid's runs do not clobber one output file. A dot
/// in a directory name is not an extension.
std::string with_index(const std::string& path, std::size_t index) {
  const std::size_t slash = path.rfind('/');
  std::size_t dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    dot = path.size();
  }
  return path.substr(0, dot) + "-" + std::to_string(index) + path.substr(dot);
}

/// Points in lo..hi by step. The epsilon admits hi itself when (hi - lo) is
/// an exact multiple of step.
double point_count(double lo, double hi, double step) {
  return std::floor((hi - lo) / step + 1e-9) + 1;
}

}  // namespace

std::vector<double> SweepAxis::values() const {
  if (!active()) return {0.0};
  std::vector<double> out;
  // Index-based stepping avoids accumulating floating-point error.
  const auto count = static_cast<std::size_t>(point_count(lo, hi, step));
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(lo + static_cast<double>(i) * step);
  }
  return out;
}

void SweepAxis::apply(ExperimentConfig& config, double value) const {
  switch (param) {
    case Param::kNone:
      break;
    case Param::kRps:
      config.trace.target_rps = value;
      break;
    case Param::kNodes:
      config.cluster.node_count = static_cast<std::uint32_t>(value);
      break;
    case Param::kSloMult:
      config.cluster.slo_multiplier = value;
      break;
    case Param::kStrictFrac:
      config.strict_fraction = value;
      break;
    case Param::kPRev:
      config.cluster.market.p_rev = value;
      break;
  }
}

std::optional<SweepAxis> SweepAxis::parse(std::string_view spec) {
  const auto eq = spec.find('=');
  if (eq == std::string_view::npos) return std::nullopt;
  const std::string_view name = spec.substr(0, eq);

  SweepAxis axis;
  if (name == "rps") {
    axis.param = Param::kRps;
  } else if (name == "nodes") {
    axis.param = Param::kNodes;
  } else if (name == "slo-mult") {
    axis.param = Param::kSloMult;
  } else if (name == "strict-frac") {
    axis.param = Param::kStrictFrac;
  } else if (name == "p-rev") {
    axis.param = Param::kPRev;
  } else {
    return std::nullopt;
  }

  std::string_view rest = spec.substr(eq + 1);
  double fields[3];
  for (int i = 0; i < 3; ++i) {
    const auto colon = rest.find(':');
    if (i < 2 && colon == std::string_view::npos) return std::nullopt;
    const auto value =
        parse_spec_number(std::string(i < 2 ? rest.substr(0, colon) : rest));
    if (!value) return std::nullopt;
    fields[i] = *value;
    if (i < 2) rest = rest.substr(colon + 1);
  }
  axis.lo = fields[0];
  axis.hi = fields[1];
  axis.step = fields[2];
  if (axis.step <= 0.0 || axis.hi < axis.lo) return std::nullopt;
  // Both endpoints must lie in the matching scalar flag's range, so no grid
  // cell can carry a value the CLI would have rejected.
  bool in_range = false;
  switch (axis.param) {
    case Param::kNone:
      break;
    case Param::kRps:
      in_range = axis.lo > 0.0;
      break;
    case Param::kNodes:
      in_range = axis.lo >= 1.0 && axis.hi <= 1024.0;
      break;
    case Param::kSloMult:
      in_range = axis.lo >= 1.0;
      break;
    case Param::kStrictFrac:
    case Param::kPRev:
      in_range = axis.lo >= 0.0 && axis.hi <= 1.0;
      break;
  }
  if (!in_range) return std::nullopt;
  if (point_count(axis.lo, axis.hi, axis.step) > kMaxPoints) {
    return std::nullopt;
  }
  return axis;
}

std::vector<std::uint64_t> SweepConfig::seeds() const {
  std::vector<std::uint64_t> out;
  out.reserve(std::max<std::uint32_t>(replications, 1));
  for (std::uint32_t r = 0; r < std::max<std::uint32_t>(replications, 1);
       ++r) {
    out.push_back(base.seed + r);
  }
  return out;
}

std::vector<ExperimentConfig> SweepConfig::grid() const {
  std::vector<ExperimentConfig> out;
  const auto axis_values = axis.values();
  const auto seed_list = seeds();
  const std::size_t total =
      axis_values.size() * schemes.size() * seed_list.size();
  out.reserve(total);
  for (double value : axis_values) {
    for (sched::Scheme scheme : schemes) {
      for (std::uint64_t seed : seed_list) {
        ExperimentConfig config = base;
        axis.apply(config, value);
        config.scheme = scheme;
        config.seed = seed;
        // A multi-cell grid can't have every run write the same trace
        // file: derive one path per grid index (foo.json → foo-3.json).
        if (config.trace_out.enabled() && total > 1) {
          config.trace_out.path = with_index(config.trace_out.path, out.size());
        }
        if (config.telemetry.enabled() && total > 1) {
          config.telemetry.path = with_index(config.telemetry.path, out.size());
        }
        out.push_back(std::move(config));
      }
    }
  }
  return out;
}

MetricSummary summarize(const std::vector<double>& xs) {
  MetricSummary s;
  if (xs.empty()) return s;
  s.mean = metrics::mean(xs);
  s.stddev = metrics::stddev(xs);
  s.ci95 = metrics::ci95_halfwidth(xs);
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  s.min = *lo;
  s.max = *hi;
  return s;
}

AggregateReport aggregate_reports(std::vector<Report> per_seed,
                                  std::vector<std::uint64_t> seeds) {
  PROTEAN_CHECK_MSG(!per_seed.empty(), "empty replication cell");
  AggregateReport agg;
  agg.scheme = per_seed.front().scheme;
  agg.seeds = std::move(seeds);

  const auto collect = [&per_seed](double Report::* field) {
    std::vector<double> xs;
    xs.reserve(per_seed.size());
    for (const Report& r : per_seed) xs.push_back(r.*field);
    return xs;
  };
  agg.slo_compliance_pct = summarize(collect(&Report::slo_compliance_pct));
  agg.strict_p50_ms = summarize(collect(&Report::strict_p50_ms));
  agg.strict_p99_ms = summarize(collect(&Report::strict_p99_ms));
  agg.be_p99_ms = summarize(collect(&Report::be_p99_ms));
  agg.throughput_strict = summarize(collect(&Report::throughput_strict));
  agg.goodput_strict = summarize(collect(&Report::goodput_strict));
  agg.gpu_util_pct = summarize(collect(&Report::gpu_util_pct));
  agg.mem_util_pct = summarize(collect(&Report::mem_util_pct));
  agg.cost_usd = summarize(collect(&Report::cost_usd));
  const auto collect_u64 = [&per_seed](std::uint64_t Report::* field) {
    std::vector<double> xs;
    xs.reserve(per_seed.size());
    for (const Report& r : per_seed) {
      xs.push_back(static_cast<double>(r.*field));
    }
    return xs;
  };
  agg.dropped = summarize(collect_u64(&Report::dropped));
  const auto collect_fault =
      [&per_seed](std::uint64_t Report::FaultStats::* field) {
        std::vector<double> xs;
        xs.reserve(per_seed.size());
        for (const Report& r : per_seed) {
          xs.push_back(static_cast<double>(r.faults.*field));
        }
        return xs;
      };
  agg.lost_requests =
      summarize(collect_fault(&Report::FaultStats::lost_requests));
  agg.retries = summarize(collect_fault(&Report::FaultStats::retries));

  agg.per_seed = std::move(per_seed);
  return agg;
}

SweepRunner::SweepRunner(int jobs) : jobs_(std::max(jobs, 1)) {}

std::vector<Report> SweepRunner::run(
    const std::vector<ExperimentConfig>& configs) const {
  std::vector<Report> results(configs.size());
  if (configs.empty()) return results;

  if (jobs_ <= 1) {
    // Serial path: identical call sequence to the historical run_schemes
    // loop, so single-job sweeps are bit-identical to the old behaviour.
    for (std::size_t i = 0; i < configs.size(); ++i) {
      results[i] = run_experiment(configs[i]);
    }
    return results;
  }

  // Work stealing off a shared atomic cursor. Every run_experiment builds a
  // private Simulator/Cluster/Driver stack and all cross-run singletons
  // (model catalog, pricing tables, MIG geometries) are immutable after
  // first use, so workers never contend on simulation state. Results land
  // at their grid index, which fixes the output order.
  std::atomic<std::size_t> cursor{0};
  const int workers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(jobs_), configs.size()));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= configs.size()) return;
        results[i] = run_experiment(configs[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<Report> SweepRunner::run_grid(const SweepConfig& sweep) const {
  return run(sweep.grid());
}

std::vector<AggregateReport> SweepRunner::run_aggregate(
    const SweepConfig& sweep) const {
  const auto seed_list = sweep.seeds();
  const auto axis_values = sweep.axis.values();
  std::vector<Report> flat = run_grid(sweep);

  std::vector<AggregateReport> out;
  out.reserve(axis_values.size() * sweep.schemes.size());
  std::size_t i = 0;
  for (double value : axis_values) {
    for (std::size_t s = 0; s < sweep.schemes.size(); ++s) {
      std::vector<Report> cell(
          std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(i)),
          std::make_move_iterator(flat.begin() +
                                  static_cast<std::ptrdiff_t>(i) +
                                  static_cast<std::ptrdiff_t>(seed_list.size())));
      i += seed_list.size();
      AggregateReport agg = aggregate_reports(std::move(cell), seed_list);
      agg.axis_param = sweep.axis.param;
      agg.axis_value = value;
      out.push_back(std::move(agg));
    }
  }
  return out;
}

}  // namespace protean::harness
