// The paper's evaluation: every table and figure of DESIGN.md's figure
// table, by id.
//
//   bench_paper [ID...]    e.g. bench_paper fig5 table4
//
// With no ids it prints every figure in DESIGN.md's order. The figures that
// run experiments take their cells from harness::paper_rows(); all selected
// cells run on one sweep pool, then each figure prints from its reports.
// Tables 2-3 and Figs. 2, 3 and 7 build their own simulator or print static
// tables. PROTEAN_BENCH_HORIZON and PROTEAN_BENCH_JOBS apply
// (bench_common.h).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "core/slowdown.h"
#include "gpu/mig.h"
#include "metrics/stats.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "spot/market.h"
#include "trace/driver.h"
#include "workload/model.h"

using namespace protean;

namespace {

/// One cell's reports, one per scheme in the cell's scheme order.
using Runs = std::vector<harness::Report>;

/// A figure's paper-row cells and their runs: runs[i] belongs to cells[i].
/// Empty for the figures without a paper row.
struct Data {
  std::vector<harness::PaperCell> cells;
  std::vector<Runs> runs;
};

/// `header` followed by the display name of each scheme `cell` runs.
std::vector<std::string> scheme_header(std::vector<std::string> header,
                                       const harness::PaperCell& cell) {
  for (auto scheme : cell.schemes) header.push_back(sched::scheme_name(scheme));
  return header;
}

/// `line` followed by each run's SLO compliance.
std::vector<std::string> compliance_line(std::vector<std::string> line,
                                         const Runs& runs) {
  for (const auto& r : runs) line.push_back(bench::pct(r.slo_compliance_pct));
  return line;
}

/// One line per cell in [first, last): its strict model, then each scheme's
/// SLO compliance.
harness::Table compliance_table(const Data& d, std::size_t first,
                                std::size_t last) {
  harness::Table table(scheme_header({"Strict model"}, d.cells[first]));
  for (std::size_t i = first; i < last; ++i) {
    table.add_row(compliance_line({d.cells[i].config.strict_model}, d.runs[i]));
  }
  return table;
}

/// Mean SLO compliance of each cell's `s`-th scheme.
double mean_compliance(const Data& d, std::size_t s) {
  double sum = 0.0;
  for (const auto& runs : d.runs) sum += runs[s].slo_compliance_pct;
  return sum / static_cast<double>(d.runs.size());
}

// Table 2: possible MIG instance profiles on an A100 GPU.
void table2(const Data&) {
  std::printf("Table 2: Possible MIG instance profiles on an A100 GPU\n\n");
  harness::Table table({"Slice", "Compute fraction", "Memory", "Cache fraction",
                        "Max Count"});
  for (auto it = gpu::kAllProfiles.rbegin(); it != gpu::kAllProfiles.rend();
       ++it) {
    const auto& t = gpu::traits(*it);
    table.add_row({strfmt("%s ('%s')", t.name, t.short_name),
                   t.compute_units == 7
                       ? std::string("Full")
                       : strfmt("%d/7", t.compute_units),
                   strfmt("%.0f GB", t.memory_gb),
                   t.cache_eighths == 8 ? std::string("Full")
                                        : strfmt("%d/8", t.cache_eighths),
                   strfmt("%d", t.max_count)});
  }
  table.print();

  std::printf("\nValid geometries under the slot model: %zu\n",
              gpu::Geometry::all_valid().size());
}

// Figure 2 (Section 2.2 motivation): Simplified DLA (500 rps, batch 128)
// and ALBERT (6 rps, batch 4) co-located on a single A100, 50% strict /
// 50% best-effort each, under the five GPU sharing schemes. Reports the
// per-workload P99 latency breakdown and strict SLO compliance.
namespace motivation {

constexpr Duration kHorizon = 60.0;
constexpr Duration kWarmup = 15.0;

struct Result {
  double compliance;
  double p99_ms;
  metrics::Breakdown tail;
};

Result run(sched::Scheme scheme, const workload::ModelProfile& model) {
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(scheme);
  cluster::ClusterConfig config;
  config.node_count = 1;
  // The motivation experiment pins the (4g,3g) geometry for MIG schemes
  // (Section 2.2) — the registry defaults already do; PROTEAN is not part
  // of this figure.
  cluster::Cluster deployment(sim, config, *scheduler);
  deployment.collector().set_measure_from(kWarmup);

  const auto& catalog = workload::ModelCatalog::instance();
  const auto& dla = catalog.by_name("Simplified DLA");
  const auto& albert = catalog.by_name("ALBERT");

  auto driver_for = [&](const workload::ModelProfile& m, double rps,
                        std::uint64_t seed) {
    trace::DriverConfig dc;
    dc.trace.kind = trace::TraceKind::kConstant;
    dc.trace.target_rps = rps;
    dc.trace.horizon = kHorizon;
    dc.strict_model = &m;
    dc.strict_fraction = 0.5;
    dc.be_pool = {&m};  // BE requests are the same workload, no deadline
    dc.seed = seed;
    dc.count_from = kWarmup;
    return std::make_unique<trace::WorkloadDriver>(sim, dc,
                                                   deployment.sink());
  };
  auto d1 = driver_for(dla, 500.0, 31);
  auto d2 = driver_for(albert, 6.0, 32);

  deployment.node(0).prewarm(dla, 6);
  deployment.node(0).prewarm(albert, 4);

  deployment.start();
  d1->start();
  d2->start();
  sim.run_until(kHorizon);
  deployment.gateway().flush_all();
  sim.run_until(kHorizon + 20.0);

  const auto& collector = deployment.collector();
  Result result;
  result.compliance = collector.slo_compliance_pct_for(&model);
  const double p99 = 99.0;
  double p99_s = 0.0;
  collector.percentiles_for(&model, /*strict=*/true, {&p99, 1}, {&p99_s, 1});
  result.p99_ms = to_ms(p99_s);
  result.tail = collector.tail_breakdown_for(&model, 99.0);
  deployment.stop();
  return result;
}

void report(const char* title, const workload::ModelProfile& model) {
  std::printf("%s — strict SLO = 3x %.0f ms ('min possible time')\n\n", title,
              to_ms(model.solo_time_7g));
  harness::Table table({"Scheme", "SLO compliance", "P99 (ms)", "Queue (ms)",
                        "Min possible (ms)", "Deficiency (ms)",
                        "Interference (ms)"});
  struct Row {
    sched::Scheme scheme;
    const char* label;
  };
  const Row rows[] = {
      {sched::Scheme::kMoleculeBeta, "No MPS or MIG"},
      {sched::Scheme::kInflessLlama, "MPS Only"},
      {sched::Scheme::kMigOnly, "MIG Only"},
      {sched::Scheme::kMpsMig, "MPS+MIG"},
      {sched::Scheme::kSmartMpsMig, "'Smart' MPS+MIG"},
  };
  for (const Row& row : rows) {
    const Result r = run(row.scheme, model);
    table.add_row({row.label, strfmt("%.2f%%", r.compliance),
                   bench::ms(r.p99_ms), bench::ms(r.tail.queue * 1e3),
                   bench::ms(r.tail.min_time * 1e3),
                   bench::ms(r.tail.deficiency * 1e3),
                   bench::ms(r.tail.interference * 1e3)});
  }
  table.print();
  std::printf("\n");
}

}  // namespace motivation

void fig2(const Data&) {
  std::printf(
      "Figure 2: tail latency breakdown vs SLO compliance for the GPU\n"
      "sharing schemes (single A100; Simplified DLA @500 rps + ALBERT @6 rps"
      ",\n50/50 strict/BE each).\n\n");
  const auto& catalog = workload::ModelCatalog::instance();
  motivation::report("(a) Simplified DLA", catalog.by_name("Simplified DLA"));
  motivation::report("(b) ALBERT", catalog.by_name("ALBERT"));
}

// Figure 3: normalized Fractional Bandwidth Requirements of the inference
// workloads, with the LI/HI (and VHI) classification, plus a demonstration
// of the profiling-side FBR estimator recovering them from co-location runs
// (Section 3's "solving the linear equations derived from Equation 1").
void fig3(const Data&) {
  const auto& catalog = workload::ModelCatalog::instance();

  double max_fbr = 0.0;
  for (const auto& m : catalog.all()) max_fbr = std::max(max_fbr, m.fbr);

  std::printf("Figure 3: normalized FBRs of inference workloads\n\n");
  harness::Table table({"Model", "Class", "FBR", "Normalized", "Bar"});
  auto models = catalog.all();
  std::sort(models.begin(), models.end(),
            [](const auto& a, const auto& b) { return a.fbr < b.fbr; });
  for (const auto& m : models) {
    const double norm = m.fbr / max_fbr;
    std::string bar(static_cast<std::size_t>(norm * 40.0), '#');
    table.add_row({m.name, to_string(m.iclass), strfmt("%.2f", m.fbr),
                   strfmt("%.2f", norm), bar});
  }
  table.print();

  // Recover each model's FBR from synthetic co-location profiling runs, the
  // way a real deployment would estimate Fig. 3 (Eq. 1 linear systems).
  std::printf("\nFBR recovery from co-location profiling (Eq. 1):\n\n");
  harness::Table est({"Model", "True FBR", "Estimated", "Error"});
  for (const char* name : {"ShuffleNet V2", "ResNet 50", "ALBERT", "GPT-2"}) {
    const auto& m = catalog.by_name(name);
    core::FbrEstimator estimator;
    for (double others : {0.6, 0.9, 1.3, 1.8, 2.4}) {
      const double slowdown = std::max(m.fbr + others, 1.0);
      estimator.observe(others, slowdown);
    }
    const double fbr_est = estimator.estimate();
    est.add_row({name, strfmt("%.2f", m.fbr), strfmt("%.2f", fbr_est),
                 strfmt("%.1e", std::abs(fbr_est - m.fbr))});
  }
  est.print();
}

struct NullListener : spot::NodeLifecycleListener {
  void on_eviction_notice(NodeId, SimTime) override {}
  void on_node_evicted(NodeId) override {}
  void on_node_restored(NodeId, spot::VmTier) override {}
};

// Table 3: on-demand vs spot hourly pricing for an 8×A100 instance, and the
// projected fleet cost per procurement policy (the model behind Fig. 9).
void table3(const Data&) {
  std::printf("Table 3: On-demand and spot hourly pricing ($/h, 8xA100)\n\n");
  harness::Table table(
      {"IaaS Provider", "On-Demand Price", "Spot Price", "Cost Savings"});
  for (const auto& row : spot::pricing_table()) {
    table.add_row({row.provider, strfmt("%.4f", row.on_demand_hourly),
                   strfmt("%.4f", row.spot_hourly),
                   strfmt("%.2f%%", row.savings_pct())});
  }
  table.print();

  std::printf(
      "\nProjected 1-hour fleet cost (8 nodes, AWS prices) by procurement "
      "policy and spot availability:\n\n");
  harness::Table cost({"Policy", "P_rev", "Cost ($)", "vs on-demand"});
  for (auto policy : {spot::ProcurementPolicy::kOnDemandOnly,
                      spot::ProcurementPolicy::kHybrid,
                      spot::ProcurementPolicy::kSpotOnly}) {
    for (double p_rev : {0.0, 0.354, 0.708}) {
      sim::Simulator sim;
      NullListener listener;
      spot::MarketConfig config;
      config.policy = policy;
      config.p_rev = p_rev;
      spot::Market market(sim, config, 8, listener);
      market.start();
      sim.run_until(3600.0);
      cost.add_row({to_string(policy), strfmt("%.3f", p_rev),
                    strfmt("%.2f", market.total_cost()),
                    strfmt("%.1f%%", 100.0 * market.total_cost() /
                                         market.on_demand_reference_cost())});
      market.stop();
      if (policy == spot::ProcurementPolicy::kOnDemandOnly) break;
    }
  }
  cost.print();
}

void fig5(const Data& d) {
  std::printf(
      "Figure 5: SLO compliance of all schemes for all vision models\n"
      "(Wiki trace @ 5000 rps, 50%% strict / 50%% BE, 8 nodes, SLO = 3x)\n\n");
  compliance_table(d, 0, d.cells.size()).print();
}

void fig6(const Data& d) {
  std::printf(
      "Figure 6: P99 latency breakdown for all schemes (Wiki trace, 50/50)\n");
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    std::printf("\n(%s) SLO = %.0f ms\n\n",
                d.cells[i].config.strict_model.c_str(), d.runs[i][0].slo_ms);
    harness::Table table({"Scheme", "P99 (ms)", "Queue", "Cold",
                          "Min possible", "Deficiency", "Interference",
                          "SLO compliance"});
    for (const auto& r : d.runs[i]) {
      const auto& b = r.tail_breakdown;
      table.add_row({r.scheme, bench::ms(r.strict_p99_ms),
                     bench::ms(b.queue * 1e3), bench::ms(b.cold * 1e3),
                     bench::ms(b.min_time * 1e3),
                     bench::ms(b.deficiency * 1e3),
                     bench::ms(b.interference * 1e3),
                     bench::pct(r.slo_compliance_pct)});
    }
    table.print();
  }
}

// Figure 7: snapshot of PROTEAN's dynamic geometry selection for the
// ShuffleNet V2 model. The BE model switches from a light LI model to the
// 14 GB DPN 92 mid-run; PROTEAN detects the footprint change and moves the
// fleet from (4g,2g,1g) to (4g,3g). A static-geometry ablation is shown for
// reference.
namespace snapshot {

constexpr Duration kHorizon = 90.0;
constexpr Duration kSwitchAt = 40.0;
constexpr Duration kBucket = 5.0;

struct Timeline {
  std::map<int, std::vector<float>> strict_latency_by_bucket;
  std::map<int, std::string> geometry_by_bucket;
  int reconfigurations = 0;
};

Timeline run(sched::Scheme scheme) {
  sim::Simulator sim;
  auto scheduler = sched::make_scheduler(scheme);
  cluster::ClusterConfig config;
  config.node_count = 8;
  cluster::Cluster deployment(sim, config, *scheduler);

  const auto& catalog = workload::ModelCatalog::instance();
  trace::DriverConfig dc;
  dc.trace.kind = trace::TraceKind::kWiki;
  dc.trace.target_rps = 5000.0;
  dc.trace.horizon = kHorizon;
  dc.strict_model = &catalog.by_name("ShuffleNet V2");
  dc.be_schedule = {{0.0, &catalog.by_name("DenseNet 121")},
                    {kSwitchAt, &catalog.by_name("DPN 92")}};
  dc.seed = 71;
  trace::WorkloadDriver driver(sim, dc, deployment.sink());
  for (NodeId id = 0; id < config.node_count; ++id) {
    deployment.node(id).prewarm(*dc.strict_model, 4);
    for (const auto* be : driver.be_models()) deployment.node(id).prewarm(*be, 2);
  }

  // Each recorded strict batch's worst latency, by completion bucket.
  Timeline timeline;
  deployment.collector().set_batch_observer(
      [&timeline](SimTime completed_at, bool strict, double worst, double,
                  int, double) {
        if (!strict) return;
        const int bucket = static_cast<int>(completed_at / kBucket);
        timeline.strict_latency_by_bucket[bucket].push_back(
            static_cast<float>(worst));
      });

  deployment.start();
  driver.start();

  for (double t = kBucket; t <= kHorizon; t += kBucket) {
    sim.run_until(t);
    const int bucket = static_cast<int>(t / kBucket) - 1;
    timeline.geometry_by_bucket[bucket] =
        deployment.node(0).gpu().reconfiguring()
            ? "reconfiguring"
            : deployment.node(0).gpu().geometry().to_string();
  }
  sim.run_until(kHorizon + 10.0);
  timeline.reconfigurations = deployment.total_reconfigurations();
  deployment.stop();
  return timeline;
}

}  // namespace snapshot

void fig7(const Data&) {
  using namespace snapshot;
  std::printf(
      "Figure 7: PROTEAN's dynamic geometry selection (ShuffleNet V2 strict;"
      "\nBE model switches to DPN 92 at t=%.0fs). SLO target = %.0f ms.\n\n",
      kSwitchAt,
      to_ms(workload::ModelCatalog::instance()
                .by_name("ShuffleNet V2")
                .slo_deadline()));

  Timeline protean = run(sched::Scheme::kProtean);
  Timeline fixed = run(sched::Scheme::kProteanStatic);
  Timeline naive = run(sched::Scheme::kNaiveSlicing);

  harness::Table table({"t (s)", "BE model", "PROTEAN p95 (ms)",
                        "PROTEAN geometry (node 0)", "static(4g,3g) p95",
                        "Naive Slicing p95"});
  for (int bucket = 0; bucket * kBucket < kHorizon; ++bucket) {
    auto p95 = [&](Timeline& tl) -> std::string {
      auto it = tl.strict_latency_by_bucket.find(bucket);
      if (it == tl.strict_latency_by_bucket.end()) return "-";
      return strfmt("%.0f",
                    to_ms(metrics::percentile(it->second, 95.0)));
    };
    const double t = bucket * kBucket;
    table.add_row({strfmt("%.0f", t),
                   t < kSwitchAt ? "DenseNet 121" : "DPN 92", p95(protean),
                   protean.geometry_by_bucket.count(bucket)
                       ? protean.geometry_by_bucket[bucket]
                       : "-",
                   p95(fixed), p95(naive)});
  }
  table.print();
  std::printf("\nPROTEAN reconfigurations across the fleet: %d\n",
              protean.reconfigurations);
}

void fig8(const Data& d) {
  const Runs& reports = d.runs[0];
  std::printf(
      "Figure 8: CDF of end-to-end job latencies, SENet 18 (SLO = %.0f ms)\n\n",
      reports[0].slo_ms);
  harness::Table table(scheme_header({"Percentile"}, d.cells[0]));
  constexpr std::array<double, 8> kPs = {10.0, 25.0, 50.0, 75.0,
                                         80.0, 90.0, 95.0, 99.0};
  // One multi-rank selection per scheme over its strict latency ramps.
  std::vector<std::array<double, kPs.size()>> columns(reports.size());
  for (std::size_t s = 0; s < reports.size(); ++s) {
    metrics::select_percentiles(reports[s].strict_latencies, kPs, columns[s]);
  }
  for (std::size_t i = 0; i < kPs.size(); ++i) {
    std::vector<std::string> row{strfmt("P%.0f", kPs[i])};
    for (const auto& column : columns) {
      row.push_back(strfmt("%.0f ms", to_ms(column[i])));
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\nSLO compliance: ");
  for (const auto& r : reports) {
    std::printf("%s %.2f%%  ", r.scheme.c_str(), r.slo_compliance_pct);
  }
  std::printf("\n");
}

void fig9(const Data& d) {
  std::printf(
      "Figure 9: normalized dollar cost vs SLO compliance under spot VM\n"
      "availability tiers (ResNet 50, Wiki trace). Costs normalized to the\n"
      "all-on-demand fleet the baseline schemes pay.\n"
      "(Revocation cadence compressed to the bench horizon.)\n\n");
  harness::Table table({"Spot availability", "Scheme", "Normalized cost",
                        "SLO compliance", "Evictions"});
  // Three procurement policies per availability tier.
  const char* const kTiers[] = {"high", "medium", "low"};
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    const auto& market = d.cells[i].config.cluster.market;
    const auto& r = d.runs[i][0];
    table.add_row(
        {i % 3 == 0 ? strfmt("%s availability (P_rev=%g)", kTiers[i / 3],
                             market.p_rev)
                    : "",
         market.policy == spot::ProcurementPolicy::kOnDemandOnly
             ? "Other schemes (on-demand)"
         : market.policy == spot::ProcurementPolicy::kSpotOnly
             ? "Spot Only"
             : "PROTEAN (hybrid)",
         strfmt("%.3f", r.cost_usd / r.cost_on_demand_ref_usd),
         bench::pct(r.slo_compliance_pct), strfmt("%d", r.evictions)});
  }
  table.print();
}

void fig10(const Data& d) {
  std::printf("Figure 10a: strict throughput, DenseNet 121 (req/GPU/s)\n\n");
  harness::Table throughput({"Scheme", "Strict throughput",
                             "SLO-good throughput", "Total throughput"});
  for (const auto& r : d.runs[0]) {
    throughput.add_row({r.scheme, strfmt("%.1f", r.throughput_strict),
                        strfmt("%.1f", r.goodput_strict),
                        strfmt("%.1f", r.throughput_total)});
  }
  throughput.print();

  std::printf("\nFigure 10b: resource utilization, EfficientNet-B0\n\n");
  harness::Table util({"Scheme", "GPU utilization", "Memory utilization"});
  for (const auto& r : d.runs[1]) {
    util.add_row(
        {r.scheme, bench::pct(r.gpu_util_pct), bench::pct(r.mem_util_pct)});
  }
  util.print();
}

void fig11(const Data& d) {
  std::printf(
      "Figure 11: MobileNet under the erratic Twitter trace (peak ~5000 rps"
      ",\nmean ~%.0f rps). SLO = %.0f ms.\n\n",
      trace::RateTrace(d.cells[0].config.trace).mean_rate(),
      d.runs[0][0].slo_ms);
  harness::Table table({"Scheme", "SLO compliance", "P99 (ms)", "Queue (ms)",
                        "Min possible", "Deficiency", "Interference"});
  for (const auto& r : d.runs[0]) {
    const auto& b = r.tail_breakdown;
    table.add_row({r.scheme, bench::pct(r.slo_compliance_pct),
                   bench::ms(r.strict_p99_ms), bench::ms(b.queue * 1e3),
                   bench::ms(b.min_time * 1e3), bench::ms(b.deficiency * 1e3),
                   bench::ms(b.interference * 1e3)});
  }
  table.print();
}

void fig12(const Data& d) {
  std::printf(
      "Figure 12: SLO compliance for the VHI language models (128 rps,\n"
      "batch 4, 50/50 strict/BE, BE rotates over the other LLMs)\n\n");
  compliance_table(d, 0, d.cells.size()).print();
  std::printf(
      "\nINFless/Llama average across VHI models: %.2f%% (paper: 5.92%%)\n",
      mean_compliance(d, 2));
}

void fig13(const Data& d) {
  std::printf(
      "Figure 13: SLO compliance for modern generative LLMs (128 rps,\n"
      "batch 4; BE requests rotate over the other LLMs)\n\n");
  compliance_table(d, 0, d.cells.size()).print();
  std::printf("\nPROTEAN average across GPT-1/GPT-2: %.2f%% (paper: ~90%%)\n",
              mean_compliance(d, 3));
}

void fig14(const Data& d) {
  std::printf("Figure 14: SLO compliance for skewed strictness ratios\n\n");
  // Two models per strictness ratio.
  for (std::size_t i = 0; i < d.cells.size(); i += 2) {
    const double strict = d.cells[i].config.strict_fraction;
    std::printf("%s (%.0f%% strict / %.0f%% BE)\n\n",
                i == 0 ? "(a) Strict skewed" : "(b) BE skewed", strict * 100.0,
                (1.0 - strict) * 100.0);
    compliance_table(d, i, i + 2).print();
    std::printf("\n");
  }
}

void table4(const Data& d) {
  std::printf("Table 4: SLO compliance for the 100%% strict case (ResNet 50)\n\n");
  harness::Table table(scheme_header({}, d.cells[0]));
  table.add_row(compliance_line({}, d.runs[0]));
  table.print();
  std::printf("\n(paper: 60.12%% / 54.31%% / 0.42%% / 94.19%%)\n");
}

void table5(const Data& d) {
  std::printf(
      "Table 5: (P50, P99) latency in ms for the 100%% BE case (HI pool)\n\n");
  harness::Table table({"Scheme", "P50 (ms)", "P99 (ms)"});
  for (const auto& r : d.runs[0]) {
    table.add_row({r.scheme, bench::ms(r.be_p50_ms), bench::ms(r.be_p99_ms)});
  }
  table.print();
  std::printf(
      "\n(paper: Molecule (68,165), Naive (50,99), INFless (57,130), "
      "PROTEAN (35,138))\n");
}

void fig15(const Data& d) {
  std::printf(
      "Figure 15: SLO compliance with a tight SLO target (2x solo latency)\n\n");
  harness::Table table(scheme_header({"Strict model", "SLO"}, d.cells[0]));
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    const auto& config = d.cells[i].config;
    const double multiplier = config.cluster.slo_multiplier;
    table.add_row(compliance_line(
        {multiplier == 3.0 ? config.strict_model : "",
         strfmt("%.0fx", multiplier)},
        d.runs[i]));
  }
  table.print();
}

void fig16(const Data& d) {
  std::printf(
      "Figure 16: SLO compliance, PROTEAN vs GPUlet (strategic MPS-only)\n\n");
  compliance_table(d, 0, d.cells.size()).print();
  std::printf("\nPROTEAN average: %.2f%% (paper: 99.65%%)\n",
              mean_compliance(d, 1));
}

void fig17(const Data& d) {
  std::printf("Figure 17: PROTEAN vs Oracle\n\n");
  harness::Table table({"Strict model", "PROTEAN SLO", "Oracle SLO", "Gap",
                        "PROTEAN P99 (ms)", "Oracle P99 (ms)"});
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    const auto& protean = d.runs[i][0];
    const auto& oracle = d.runs[i][1];
    table.add_row(
        {d.cells[i].config.strict_model,
         bench::pct(protean.slo_compliance_pct),
         bench::pct(oracle.slo_compliance_pct),
         strfmt("%+.2f",
                oracle.slo_compliance_pct - protean.slo_compliance_pct),
         bench::ms(protean.strict_p99_ms), bench::ms(oracle.strict_p99_ms)});
  }
  table.print();
  std::printf(
      "\n(paper: Oracle ahead by at most 0.42%% compliance / 17%% P99)\n");
}

// Section 7 "Statistical Significance": confidence intervals, Welch p-values
// and Cohen's d for PROTEAN vs the baselines over repeated seeded runs.
void stats(const Data& d) {
  std::printf(
      "Statistical significance of SLO compliance differences (ResNet 50,\n"
      "%zu seeded runs per scheme)\n\n",
      d.cells.size());

  const auto& schemes = d.cells[0].schemes;
  std::map<sched::Scheme, std::vector<double>> compliance;
  for (const auto& runs : d.runs) {
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      compliance[schemes[s]].push_back(runs[s].slo_compliance_pct);
    }
  }

  harness::Table table({"Scheme", "Mean compliance", "95% CI (±)",
                        "p vs PROTEAN", "Cohen's d vs PROTEAN"});
  const auto& protean = compliance[sched::Scheme::kProtean];
  for (auto scheme : schemes) {
    const auto& xs = compliance[scheme];
    std::string p = "-", cohen = "-";
    if (scheme != sched::Scheme::kProtean) {
      p = strfmt("%.2e", metrics::welch_p_value(xs, protean));
      cohen = strfmt("%.2f", std::abs(metrics::cohens_d(xs, protean)));
    }
    table.add_row({sched::scheme_name(scheme),
                   strfmt("%.2f%%", metrics::mean(xs)),
                   strfmt("%.3f", metrics::ci95_halfwidth(xs)), p, cohen});
  }
  table.print();
  std::printf(
      "\n(paper: CI < 0.1%%, p ~ 0, Cohen's d between 7.8 and 304)\n");
}

// Ablation of PROTEAN's design choices (the knobs DESIGN.md calls out):
// Eq. 2 placement (η), request reordering and dynamic reconfiguration per
// model, then the delayed-termination keep-alive.
void ablation(const Data& d) {
  std::printf("Ablation: PROTEAN design choices\n");
  harness::Table keepalive({"Keep-alive", "Cold starts", "SLO compliance",
                            "P99 (ms)"});
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    const auto& cell = d.cells[i];
    if (cell.schemes.size() == 1) {  // a keep-alive cell, PROTEAN only
      const auto& r = d.runs[i][0];
      keepalive.add_row(
          {cell.label,
           strfmt("%llu", static_cast<unsigned long long>(r.cold_starts)),
           bench::pct(r.slo_compliance_pct), bench::ms(r.strict_p99_ms)});
      continue;
    }
    std::printf("\n(%s, Wiki trace)\n\n", cell.config.strict_model.c_str());
    harness::Table table(
        {"Variant", "SLO compliance", "P99 (ms)", "BE P99 (ms)", "Reconfigs"});
    for (const auto& r : d.runs[i]) {
      table.add_row({r.scheme, bench::pct(r.slo_compliance_pct),
                     bench::ms(r.strict_p99_ms), bench::ms(r.be_p99_ms),
                     strfmt("%d", r.reconfigurations)});
    }
    table.print();
  }
  // Section 4.2: delayed termination cuts cold starts by up to 98% versus
  // immediate scale-down.
  std::printf("\nKeep-alive ablation (ResNet 50; cold start = 5 s):\n\n");
  keepalive.print();
}

struct Figure {
  const char* id;
  void (*print)(const Data&);
};

// DESIGN.md's figure order.
constexpr Figure kFigures[] = {
    {"table2", table2}, {"fig2", fig2},   {"fig3", fig3},
    {"table3", table3}, {"fig5", fig5},   {"fig6", fig6},
    {"fig7", fig7},     {"fig8", fig8},   {"fig9", fig9},
    {"fig10", fig10},   {"fig11", fig11}, {"fig12", fig12},
    {"fig13", fig13},   {"fig14", fig14}, {"table4", table4},
    {"table5", table5}, {"fig15", fig15}, {"fig16", fig16},
    {"fig17", fig17},   {"stats", stats}, {"ablation", ablation},
};

}  // namespace

int main(int argc, char** argv) {
  const Duration horizon = bench::bench_horizon();
  const int jobs = bench::bench_jobs();

  std::vector<const Figure*> figures;
  for (int i = 1; i < argc; ++i) {
    const auto* figure = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& f) { return std::strcmp(f.id, argv[i]) == 0; });
    if (figure == std::end(kFigures)) {
      std::fprintf(stderr, "error: unknown figure id '%s'; valid ids:",
                   argv[i]);
      for (const auto& f : kFigures) std::fprintf(stderr, " %s", f.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    figures.push_back(figure);
  }
  if (figures.empty()) {
    for (const auto& f : kFigures) figures.push_back(&f);
  }

  // Every selected cell runs once per scheme on one pool; the reports come
  // back in submission order.
  const auto rows = harness::paper_rows(horizon);
  std::vector<Data> data(figures.size());
  std::vector<harness::ExperimentConfig> grid;
  for (std::size_t k = 0; k < figures.size(); ++k) {
    for (const auto& row : rows) {
      if (row.id == figures[k]->id) data[k].cells = row.cells;
    }
    for (const auto& cell : data[k].cells) {
      for (auto scheme : cell.schemes) {
        grid.push_back(
            harness::ExperimentConfig(cell.config).with_scheme(scheme));
      }
    }
  }
  auto reports = harness::SweepRunner(jobs).run(grid);

  auto next = std::make_move_iterator(reports.begin());
  for (std::size_t k = 0; k < figures.size(); ++k) {
    for (const auto& cell : data[k].cells) {
      const auto count = static_cast<std::ptrdiff_t>(cell.schemes.size());
      data[k].runs.emplace_back(next, next + count);
      next += count;
    }
    if (k > 0) std::printf("\n");
    figures[k]->print(data[k]);
  }
  return 0;
}
