// protean_sim — CLI for replaying serverless GPU-inference scenarios.
//
//   protean_sim --all-schemes --model "VGG 19" --horizon 60
//   protean_sim --scheme protean --trace twitter --json > out.json
//   protean_sim --scheme protean --trace-file trace.csv --nodes 4
//   protean_sim --all-schemes --seeds 5 --jobs 8          # replicated, parallel
//   protean_sim --sweep rps=1000:5000:1000 --seeds 3 --jobs 8
#include <cstdio>

#include "common/strfmt.h"
#include "harness/json.h"
#include "harness/options.h"
#include "harness/sweep.h"
#include "harness/table.h"
#include "workload/model.h"

using namespace protean;

namespace {

void list_models() {
  harness::Table table({"Model", "Domain", "Class", "Batch", "Solo (ms)",
                        "Memory (GB)", "FBR"});
  for (const auto& m : workload::ModelCatalog::instance().all()) {
    table.add_row({m.name, to_string(m.domain), to_string(m.iclass),
                   strfmt("%d", m.batch_size),
                   strfmt("%.0f", to_ms(m.solo_time_7g)),
                   strfmt("%.1f", m.mem_gb), strfmt("%.2f", m.fbr)});
  }
  table.print();
}

void list_schemes() {
  // Enumerated from the registry so this list can never drift from the enum.
  harness::Table table({"CLI name", "Scheme"});
  for (sched::Scheme scheme : sched::all_schemes()) {
    table.add_row({sched::scheme_cli_name(scheme), sched::scheme_name(scheme)});
  }
  table.print();
}

std::string mean_ci(const harness::MetricSummary& summary, const char* fmt) {
  return strfmt(fmt, summary.mean) + " ±" + strfmt(fmt, summary.ci95);
}

/// Writes each scheme's per-node (time, resident GB) timelines as JSON.
bool dump_mem_timelines(const std::string& path,
                        const std::vector<harness::Report>& reports) {
  harness::Json::Array schemes;
  for (const auto& r : reports) {
    harness::Json::Object entry;
    entry.emplace_back("scheme", r.scheme);
    harness::Json::Array nodes;
    for (const auto& timeline : r.mem_timelines) {
      harness::Json::Array points;
      points.reserve(timeline.size());
      for (const auto& [when, gb] : timeline) {
        harness::Json::Array point;
        point.push_back(harness::Json(when));
        point.push_back(harness::Json(gb));
        points.push_back(harness::Json(std::move(point)));
      }
      nodes.push_back(harness::Json(std::move(points)));
    }
    entry.emplace_back("nodes", harness::Json(std::move(nodes)));
    schemes.push_back(harness::Json(std::move(entry)));
  }
  harness::Json::Object root;
  root.emplace_back("mem_timelines", harness::Json(std::move(schemes)));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = harness::Json(std::move(root)).dump(2);
  std::fputs(text.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

void print_reports(const harness::CliOptions& opts,
                   const std::vector<harness::Report>& reports) {
  // With workflows on, the driver serves the DAG's entry model, not the
  // configured single model.
  const std::string& strict_model =
      !reports.empty() && reports.front().workflow.enabled
          ? reports.front().strict_model
          : opts.config.strict_model;
  std::printf("strict model: %s   trace: %s @ %.0f rps   nodes: %u   "
              "SLO: %.0fx\n\n",
              strict_model.c_str(), trace::to_string(opts.config.trace.kind),
              opts.config.trace.target_rps, opts.config.cluster.node_count,
              opts.config.cluster.slo_multiplier);
  harness::Table table({"Scheme", "SLO compliance", "P50 (ms)", "P99 (ms)",
                        "BE P99 (ms)", "GPU util", "Cost ($)"});
  for (const auto& r : reports) {
    table.add_row({r.scheme, strfmt("%.2f%%", r.slo_compliance_pct),
                   strfmt("%.0f", r.strict_p50_ms),
                   strfmt("%.0f", r.strict_p99_ms),
                   strfmt("%.0f", r.be_p99_ms),
                   strfmt("%.1f%%", r.gpu_util_pct),
                   strfmt("%.2f", r.cost_usd)});
  }
  table.print();
  for (const auto& r : reports) {
    if (!r.faults.enabled) continue;
    std::printf("\n%s faults: %llu crashes, %llu kills, %llu ecc, "
                "%d failed reconfigs | lost %llu req in %llu batches, "
                "%llu retries, %llu hedges (%llu dup), %llu dropped\n",
                r.scheme.c_str(),
                static_cast<unsigned long long>(r.faults.injected_crashes),
                static_cast<unsigned long long>(r.faults.injected_kills),
                static_cast<unsigned long long>(r.faults.injected_ecc),
                r.faults.failed_reconfigurations,
                static_cast<unsigned long long>(r.faults.lost_requests),
                static_cast<unsigned long long>(r.faults.lost_batches),
                static_cast<unsigned long long>(r.faults.retries),
                static_cast<unsigned long long>(r.faults.hedges),
                static_cast<unsigned long long>(r.faults.duplicate_hedges),
                static_cast<unsigned long long>(r.dropped));
  }
  for (const auto& r : reports) {
    if (!r.telemetry.enabled) continue;
    if (r.telemetry.alerts_fired > 0) {
      std::printf("\n%s telemetry: %llu scrapes | %llu SLO burn alerts, "
                  "first at %.1f s, %.1f min in violation\n",
                  r.scheme.c_str(),
                  static_cast<unsigned long long>(r.telemetry.scrapes),
                  static_cast<unsigned long long>(r.telemetry.alerts_fired),
                  r.telemetry.first_alert_at_s,
                  r.telemetry.alert_active_seconds / 60.0);
    } else {
      std::printf("\n%s telemetry: %llu scrapes | no SLO burn alerts\n",
                  r.scheme.c_str(),
                  static_cast<unsigned long long>(r.telemetry.scrapes));
    }
  }
  for (const auto& r : reports) {
    if (!r.autoscale.enabled) continue;
    std::printf("\n%s autoscale (%s): %llu ticks | fleet %.1f avg "
                "(%u low, %u peak) | +%d/-%d nodes, %d promotes, "
                "%d demotes | %llu warm boosts, %llu prefetches\n",
                r.scheme.c_str(), r.autoscale.policy.c_str(),
                static_cast<unsigned long long>(r.autoscale.ticks),
                r.autoscale.avg_nodes, r.autoscale.low_nodes,
                r.autoscale.peak_nodes, r.autoscale.acquisitions,
                r.autoscale.releases, r.autoscale.promotes,
                r.autoscale.demotes,
                static_cast<unsigned long long>(r.autoscale.warm_boosts),
                static_cast<unsigned long long>(
                    r.autoscale.prefetched_slices));
  }
  for (const auto& r : reports) {
    if (!r.attribution.enabled) continue;
    std::printf("\n%s attribution: %llu requests in %llu batches, "
                "%llu violations",
                r.scheme.c_str(),
                static_cast<unsigned long long>(r.attribution.requests),
                static_cast<unsigned long long>(r.attribution.batches),
                static_cast<unsigned long long>(r.attribution.violations));
    if (r.attribution.violations > 0) {
      std::printf(" (dominant: %s)", r.attribution.dominant_cause.c_str());
    }
    std::printf("\n");
    for (const auto& cause : r.attribution.causes) {
      if (cause.violations == 0) continue;
      std::printf("  %-13s %6llu violations", cause.cause.c_str(),
                  static_cast<unsigned long long>(cause.violations));
      if (cause.seconds >= 0.0) {
        std::printf("  | %8.1f s total, P50 %.1f ms, P99 %.1f ms",
                    cause.seconds, cause.p50_ms, cause.p99_ms);
      }
      std::printf("\n");
    }
    if (r.attribution.identity_violations > 0 ||
        r.attribution.negative_component_clamps > 0) {
      std::printf("  WARNING: %llu identity violations, %llu negative "
                  "clamps (broken accounting)\n",
                  static_cast<unsigned long long>(
                      r.attribution.identity_violations),
                  static_cast<unsigned long long>(
                      r.attribution.negative_component_clamps));
    }
  }
  for (const auto& r : reports) {
    if (!r.workflow.enabled) continue;
    std::printf("\n%s workflow (%s, %d stages): %llu flows admitted, "
                "%llu completed, %llu dropped | e2e P50 %.0f ms, "
                "P99 %.0f ms | hops: %llu co-located, %llu transfers "
                "(%.1f s moving tensors)\n",
                r.scheme.c_str(), r.workflow.shape.c_str(),
                r.workflow.stages,
                static_cast<unsigned long long>(r.workflow.flows_admitted),
                static_cast<unsigned long long>(r.workflow.flows_completed),
                static_cast<unsigned long long>(r.workflow.flows_dropped),
                r.workflow.e2e_p50_ms, r.workflow.e2e_p99_ms,
                static_cast<unsigned long long>(r.workflow.colocated_hops),
                static_cast<unsigned long long>(r.workflow.transfer_hops),
                r.workflow.transfer_seconds);
  }
}

void print_aggregates(const harness::CliOptions& opts,
                      const std::vector<harness::AggregateReport>& cells) {
  std::printf("strict model: %s   trace: %s   nodes: %u   seeds: %u   "
              "jobs: %d\n\n",
              opts.config.strict_model.c_str(),
              trace::to_string(opts.config.trace.kind),
              opts.config.cluster.node_count, opts.seeds, opts.jobs);
  const bool axis = opts.sweep_axis.active();
  std::vector<std::string> header;
  if (axis) header.push_back(harness::to_string(opts.sweep_axis.param));
  for (const char* column : {"Scheme", "SLO compliance", "P99 (ms)",
                             "BE P99 (ms)", "GPU util", "Cost ($)"}) {
    header.push_back(column);
  }
  harness::Table table(header);
  for (const auto& cell : cells) {
    std::vector<std::string> row;
    if (axis) row.push_back(strfmt("%g", cell.axis_value));
    row.push_back(cell.scheme);
    row.push_back(mean_ci(cell.slo_compliance_pct, "%.2f") + "%");
    row.push_back(mean_ci(cell.strict_p99_ms, "%.0f"));
    row.push_back(mean_ci(cell.be_p99_ms, "%.0f"));
    row.push_back(mean_ci(cell.gpu_util_pct, "%.1f") + "%");
    row.push_back(mean_ci(cell.cost_usd, "%.2f"));
    table.add_row(row);
  }
  table.print();
  std::printf("\n(mean ± 95%% CI over %u seeds)\n", opts.seeds);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  auto parsed = harness::parse_cli(args);
  if (!parsed.options) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
    return 2;
  }
  harness::CliOptions opts = std::move(*parsed.options);
  if (opts.help) {
    std::fputs(harness::cli_usage().c_str(), stdout);
    return 0;
  }
  if (opts.list_models) {
    list_models();
    return 0;
  }
  if (opts.list_schemes) {
    list_schemes();
    return 0;
  }

  if (opts.json) opts.config.keep_latency_samples = true;
  const harness::SweepRunner runner(opts.jobs);

  if (opts.is_sweep()) {
    if (!opts.mem_timeline_file.empty()) {
      std::fprintf(stderr,
                   "warning: --dump-mem-timeline is ignored for sweep runs\n");
    }
    const auto sweep = opts.sweep_config();
    const auto cells = runner.run_aggregate(sweep);
    if (opts.json) {
      std::printf("%s\n",
                  harness::aggregates_to_json(sweep, cells).dump(2).c_str());
    } else {
      print_aggregates(opts, cells);
    }
    return 0;
  }

  // Classic path: one report per scheme. Routed through the sweep runner so
  // --jobs parallelizes it; any job count produces identical reports.
  const auto reports = runner.run_grid(opts.sweep_config());

  if (!opts.mem_timeline_file.empty()) {
    if (!dump_mem_timelines(opts.mem_timeline_file, reports)) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opts.mem_timeline_file.c_str());
      return 1;
    }
  }

  if (opts.json) {
    std::printf("%s\n",
                harness::reports_to_json(opts.config, reports).dump(2).c_str());
    return 0;
  }
  print_reports(opts, reports);
  return 0;
}
