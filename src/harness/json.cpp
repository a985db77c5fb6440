#include "harness/json.h"

#include <algorithm>
#include <array>
#include <cstdio>

namespace protean::harness {

Json report_to_json(const Report& report) {
  Json::Object o;
  o.emplace_back("scheme", report.scheme);
  o.emplace_back("strict_model", report.strict_model);
  o.emplace_back("slo_compliance_pct", report.slo_compliance_pct);
  o.emplace_back("slo_ms", report.slo_ms);
  o.emplace_back("min_possible_ms", report.min_possible_ms);
  o.emplace_back("strict_p50_ms", report.strict_p50_ms);
  o.emplace_back("strict_p99_ms", report.strict_p99_ms);
  o.emplace_back("strict_mean_ms", report.strict_mean_ms);
  o.emplace_back("be_p50_ms", report.be_p50_ms);
  o.emplace_back("be_p99_ms", report.be_p99_ms);
  {
    Json::Object breakdown;
    breakdown.emplace_back("queue_ms", report.tail_breakdown.queue * 1e3);
    breakdown.emplace_back("cold_ms", report.tail_breakdown.cold * 1e3);
    breakdown.emplace_back("min_time_ms", report.tail_breakdown.min_time * 1e3);
    breakdown.emplace_back("deficiency_ms",
                           report.tail_breakdown.deficiency * 1e3);
    breakdown.emplace_back("interference_ms",
                           report.tail_breakdown.interference * 1e3);
    if (report.tail_breakdown.swap != 0.0) {
      // Swap stall is split out of interference only when memory was
      // actually oversubscribed; omitting the zero keeps default runs
      // byte-identical to pre-split builds.
      breakdown.emplace_back("swap_stall_ms", report.tail_breakdown.swap * 1e3);
    }
    o.emplace_back("tail_breakdown", Json(std::move(breakdown)));
  }
  o.emplace_back("throughput_strict", report.throughput_strict);
  o.emplace_back("goodput_strict", report.goodput_strict);
  o.emplace_back("throughput_total", report.throughput_total);
  o.emplace_back("gpu_util_pct", report.gpu_util_pct);
  o.emplace_back("mem_util_pct", report.mem_util_pct);
  o.emplace_back("strict_emitted", report.strict_emitted);
  o.emplace_back("strict_completed", report.strict_completed);
  o.emplace_back("be_completed", report.be_completed);
  o.emplace_back("cold_starts", report.cold_starts);
  o.emplace_back("dropped", report.dropped);
  o.emplace_back("reconfigurations", report.reconfigurations);
  o.emplace_back("cost_usd", report.cost_usd);
  o.emplace_back("cost_on_demand_ref_usd", report.cost_on_demand_ref_usd);
  o.emplace_back("evictions", report.evictions);
  if (report.memcache.enabled) {
    // Appended only when the cache is on, so disabled runs serialize
    // byte-identically to pre-cache builds.
    Json::Object mc;
    mc.emplace_back("hits", report.memcache.hits);
    mc.emplace_back("misses", report.memcache.misses);
    mc.emplace_back("evictions", report.memcache.evictions);
    mc.emplace_back("hit_rate_pct", report.memcache.hit_rate_pct);
    mc.emplace_back("swap_stall_s", report.memcache.swap_stall_seconds);
    o.emplace_back("memcache", Json(std::move(mc)));
  }
  if (report.faults.enabled) {
    // Appended only when fault injection is on, so fault-free runs
    // serialize byte-identically to pre-fault builds.
    Json::Object f;
    f.emplace_back("injected_crashes", report.faults.injected_crashes);
    f.emplace_back("injected_kills", report.faults.injected_kills);
    f.emplace_back("injected_ecc", report.faults.injected_ecc);
    f.emplace_back("failed_reconfigurations",
                   report.faults.failed_reconfigurations);
    f.emplace_back("lost_batches", report.faults.lost_batches);
    f.emplace_back("lost_requests", report.faults.lost_requests);
    f.emplace_back("retries", report.faults.retries);
    f.emplace_back("hedges", report.faults.hedges);
    f.emplace_back("duplicate_hedges", report.faults.duplicate_hedges);
    o.emplace_back("faults", Json(std::move(f)));
  }
  if (report.telemetry.enabled) {
    // Appended only when telemetry is on, so plain runs serialize
    // byte-identically to pre-telemetry builds.
    Json::Object t;
    t.emplace_back("scrapes", report.telemetry.scrapes);
    t.emplace_back("alerts_fired", report.telemetry.alerts_fired);
    t.emplace_back("first_alert_at_s", report.telemetry.first_alert_at_s);
    t.emplace_back("alert_active_s", report.telemetry.alert_active_seconds);
    o.emplace_back("telemetry", Json(std::move(t)));
  }
  if (report.autoscale.enabled) {
    // Same contract as the other subsystem sections: absent unless the
    // autoscaler ran, so disabled runs serialize byte-identically.
    Json::Object a;
    a.emplace_back("policy", report.autoscale.policy);
    a.emplace_back("ticks", report.autoscale.ticks);
    a.emplace_back("acquisitions", report.autoscale.acquisitions);
    a.emplace_back("releases", report.autoscale.releases);
    a.emplace_back("promotes", report.autoscale.promotes);
    a.emplace_back("demotes", report.autoscale.demotes);
    a.emplace_back("warm_boosts", report.autoscale.warm_boosts);
    a.emplace_back("prefetched_slices", report.autoscale.prefetched_slices);
    a.emplace_back("peak_nodes",
                   static_cast<std::uint64_t>(report.autoscale.peak_nodes));
    a.emplace_back("low_nodes",
                   static_cast<std::uint64_t>(report.autoscale.low_nodes));
    a.emplace_back("avg_nodes", report.autoscale.avg_nodes);
    o.emplace_back("autoscale", Json(std::move(a)));
  }
  if (report.substrate.enabled) {
    Json::Object sub;
    sub.emplace_back("mode", report.substrate.mode);
    if (!report.substrate.discipline.empty()) {
      sub.emplace_back("discipline", report.substrate.discipline);
    }
    sub.emplace_back("soft_nodes",
                     static_cast<std::uint64_t>(report.substrate.soft_nodes));
    sub.emplace_back("soft_reconfigurations",
                     report.substrate.soft_reconfigurations);
    o.emplace_back("substrate", Json(std::move(sub)));
  }
  if (report.workflow.enabled) {
    // Appended only when workflows are on, so single-model runs serialize
    // byte-identically to pre-workflow builds.
    Json::Object wf;
    wf.emplace_back("shape", report.workflow.shape);
    wf.emplace_back("stages", report.workflow.stages);
    wf.emplace_back("flows_admitted", report.workflow.flows_admitted);
    wf.emplace_back("flows_completed", report.workflow.flows_completed);
    wf.emplace_back("flows_dropped", report.workflow.flows_dropped);
    wf.emplace_back("stage_batches", report.workflow.stage_batches);
    wf.emplace_back("colocated_hops", report.workflow.colocated_hops);
    wf.emplace_back("transfer_hops", report.workflow.transfer_hops);
    wf.emplace_back("transfer_s", report.workflow.transfer_seconds);
    wf.emplace_back("e2e_p50_ms", report.workflow.e2e_p50_ms);
    wf.emplace_back("e2e_p99_ms", report.workflow.e2e_p99_ms);
    o.emplace_back("workflow", Json(std::move(wf)));
  }
  if (report.attribution.enabled) {
    // Appended only when attribution is on, so plain runs serialize
    // byte-identically to pre-attr builds. tools/slo_explain ingests this
    // block; its field names are part of that contract.
    const auto& attr = report.attribution;
    Json::Object a;
    a.emplace_back("requests", attr.requests);
    a.emplace_back("batches", attr.batches);
    a.emplace_back("violations", attr.violations);
    a.emplace_back("identity_violations", attr.identity_violations);
    a.emplace_back("negative_component_clamps",
                   attr.negative_component_clamps);
    a.emplace_back("dominant_cause", attr.dominant_cause);
    {
      Json::Array causes;
      causes.reserve(attr.causes.size());
      for (const auto& row : attr.causes) {
        Json::Object c;
        c.emplace_back("cause", row.cause);
        c.emplace_back("violations", row.violations);
        c.emplace_back("seconds", row.seconds);
        c.emplace_back("p50_ms", row.p50_ms);
        c.emplace_back("p99_ms", row.p99_ms);
        causes.push_back(Json(std::move(c)));
      }
      a.emplace_back("causes", Json(std::move(causes)));
    }
    {
      Json::Array groups;
      groups.reserve(attr.groups.size());
      for (const auto& row : attr.groups) {
        Json::Object g;
        g.emplace_back("model", row.model);
        g.emplace_back("shard", static_cast<std::uint64_t>(
                                    row.shard < 0 ? 0 : row.shard));
        g.emplace_back("strict", row.strict);
        g.emplace_back("requests", row.requests);
        g.emplace_back("violations", row.violations);
        if (!row.dominant.empty()) g.emplace_back("dominant", row.dominant);
        groups.push_back(Json(std::move(g)));
      }
      a.emplace_back("groups", Json(std::move(groups)));
    }
    o.emplace_back("attribution", Json(std::move(a)));
  }
  if (!report.strict_latencies.empty()) {
    static constexpr std::array<double, 8> kPs = {10.0, 25.0, 50.0, 75.0,
                                                  90.0, 95.0, 99.0, 99.9};
    Json::Object percentiles;
    for (const double p : kPs) {
      char key[16];
      std::snprintf(key, sizeof(key), "p%g", p);
      percentiles.emplace_back(key, to_ms(report.strict_latencies.at(p)));
    }
    o.emplace_back("strict_latency_percentiles_ms", Json(std::move(percentiles)));
  }
  return Json(std::move(o));
}

Json reports_to_json(const ExperimentConfig& config,
                     const std::vector<Report>& reports) {
  Json::Object run;
  run.emplace_back("strict_model", config.strict_model);
  run.emplace_back("trace", trace::to_string(config.trace.kind));
  run.emplace_back("target_rps", config.trace.target_rps);
  run.emplace_back("horizon_s", config.trace.horizon);
  run.emplace_back("warmup_s", config.warmup);
  run.emplace_back("nodes", static_cast<std::uint64_t>(config.cluster.node_count));
  run.emplace_back("strict_fraction", config.strict_fraction);
  run.emplace_back("slo_multiplier", config.cluster.slo_multiplier);
  run.emplace_back("seed", static_cast<std::uint64_t>(config.seed));

  Json::Array results;
  results.reserve(reports.size());
  for (const Report& r : reports) results.push_back(report_to_json(r));

  Json::Object root;
  root.emplace_back("config", Json(std::move(run)));
  root.emplace_back("results", Json(std::move(results)));
  return Json(std::move(root));
}

Json metric_summary_to_json(const MetricSummary& summary) {
  Json::Object o;
  o.emplace_back("mean", summary.mean);
  o.emplace_back("stddev", summary.stddev);
  o.emplace_back("ci95", summary.ci95);
  o.emplace_back("min", summary.min);
  o.emplace_back("max", summary.max);
  return Json(std::move(o));
}

Json aggregate_to_json(const AggregateReport& aggregate) {
  Json::Object o;
  o.emplace_back("scheme", aggregate.scheme);
  if (aggregate.axis_param != SweepAxis::Param::kNone) {
    o.emplace_back("axis", to_string(aggregate.axis_param));
    o.emplace_back("axis_value", aggregate.axis_value);
  }
  o.emplace_back("replications",
                 static_cast<std::uint64_t>(aggregate.per_seed.size()));
  {
    Json::Array seeds;
    seeds.reserve(aggregate.seeds.size());
    for (std::uint64_t seed : aggregate.seeds) seeds.emplace_back(seed);
    o.emplace_back("seeds", Json(std::move(seeds)));
  }

  Json::Object metrics;
  metrics.emplace_back("slo_compliance_pct",
                       metric_summary_to_json(aggregate.slo_compliance_pct));
  metrics.emplace_back("strict_p50_ms",
                       metric_summary_to_json(aggregate.strict_p50_ms));
  metrics.emplace_back("strict_p99_ms",
                       metric_summary_to_json(aggregate.strict_p99_ms));
  metrics.emplace_back("be_p99_ms", metric_summary_to_json(aggregate.be_p99_ms));
  metrics.emplace_back("throughput_strict",
                       metric_summary_to_json(aggregate.throughput_strict));
  metrics.emplace_back("goodput_strict",
                       metric_summary_to_json(aggregate.goodput_strict));
  metrics.emplace_back("gpu_util_pct",
                       metric_summary_to_json(aggregate.gpu_util_pct));
  metrics.emplace_back("mem_util_pct",
                       metric_summary_to_json(aggregate.mem_util_pct));
  metrics.emplace_back("cost_usd", metric_summary_to_json(aggregate.cost_usd));
  metrics.emplace_back("dropped", metric_summary_to_json(aggregate.dropped));
  const bool any_faults =
      std::any_of(aggregate.per_seed.begin(), aggregate.per_seed.end(),
                  [](const Report& r) { return r.faults.enabled; });
  if (any_faults) {
    metrics.emplace_back("lost_requests",
                         metric_summary_to_json(aggregate.lost_requests));
    metrics.emplace_back("retries", metric_summary_to_json(aggregate.retries));
  }
  o.emplace_back("metrics", Json(std::move(metrics)));

  Json::Array per_seed;
  per_seed.reserve(aggregate.per_seed.size());
  for (const Report& r : aggregate.per_seed) per_seed.push_back(report_to_json(r));
  o.emplace_back("per_seed", Json(std::move(per_seed)));
  return Json(std::move(o));
}

Json aggregates_to_json(const SweepConfig& sweep,
                        const std::vector<AggregateReport>& aggregates) {
  Json::Object grid;
  grid.emplace_back("strict_model", sweep.base.strict_model);
  grid.emplace_back("trace", trace::to_string(sweep.base.trace.kind));
  grid.emplace_back("horizon_s", sweep.base.trace.horizon);
  grid.emplace_back("nodes",
                    static_cast<std::uint64_t>(sweep.base.cluster.node_count));
  grid.emplace_back("base_seed", static_cast<std::uint64_t>(sweep.base.seed));
  grid.emplace_back("replications",
                    static_cast<std::uint64_t>(sweep.replications));
  {
    Json::Array schemes;
    schemes.reserve(sweep.schemes.size());
    for (sched::Scheme s : sweep.schemes) {
      schemes.push_back(Json(sched::scheme_name(s)));
    }
    grid.emplace_back("schemes", Json(std::move(schemes)));
  }
  if (sweep.axis.active()) {
    Json::Object axis;
    axis.emplace_back("param", to_string(sweep.axis.param));
    axis.emplace_back("lo", sweep.axis.lo);
    axis.emplace_back("hi", sweep.axis.hi);
    axis.emplace_back("step", sweep.axis.step);
    grid.emplace_back("axis", Json(std::move(axis)));
  }

  Json::Array cells;
  cells.reserve(aggregates.size());
  for (const AggregateReport& a : aggregates) {
    cells.push_back(aggregate_to_json(a));
  }

  Json::Object root;
  root.emplace_back("sweep", Json(std::move(grid)));
  root.emplace_back("results", Json(std::move(cells)));
  return Json(std::move(root));
}

}  // namespace protean::harness
