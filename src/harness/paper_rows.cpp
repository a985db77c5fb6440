#include "harness/paper_rows.h"

#include <stdexcept>
#include <utility>

#include "common/strfmt.h"
#include "workload/model.h"

namespace protean::harness {
namespace {

using sched::Scheme;

/// The names of the catalog's models in `domain`, in catalog order.
std::vector<std::string> models_in(workload::Domain domain) {
  std::vector<std::string> names;
  const auto& catalog = workload::ModelCatalog::instance();
  for (const auto* model : catalog.by_domain(domain)) {
    names.push_back(model->name);
  }
  return names;
}

}  // namespace

std::vector<PaperRow> paper_rows(Duration horizon) {
  const auto paper = sched::paper_schemes();
  std::vector<PaperRow> rows;
  const auto add = [&](const char* id, std::vector<PaperCell> cells) {
    rows.push_back({id, std::move(cells)});
  };
  const auto primary = [&](const std::string& model) {
    return primary_config(model, horizon);
  };
  // One cell per model, labelled by the model name, at the primary config.
  const auto per_model = [&](const std::vector<std::string>& models,
                             const std::vector<Scheme>& schemes) {
    std::vector<PaperCell> cells;
    for (const auto& model : models) {
      cells.push_back({model, primary(model), schemes});
    }
    return cells;
  };

  add("fig5", per_model(models_in(workload::Domain::kVision), paper));
  add("fig6", per_model({"DenseNet 121", "ResNet 50", "VGG 19"}, paper));
  add("fig8",
      {{"SENet 18", primary("SENet 18").with_latency_samples(), paper}});

  // Fig. 9: every cell runs PROTEAN; the on-demand-only cell prices the
  // baseline schemes' fleet. The revocation cadence is compressed to the
  // bench horizon.
  std::vector<PaperCell> fig9;
  for (double p_rev : {0.0, 0.354, 0.708}) {
    for (auto policy : {spot::ProcurementPolicy::kOnDemandOnly,
                        spot::ProcurementPolicy::kSpotOnly,
                        spot::ProcurementPolicy::kHybrid}) {
      auto config = primary("ResNet 50").with_market(policy, p_rev);
      config.cluster.market.revocation_check_interval = 20.0;
      config.cluster.market.eviction_notice = 10.0;
      config.cluster.market.vm_boot_time = 8.0;
      fig9.push_back({strfmt("%s P_rev=%g", spot::to_string(policy), p_rev),
                      std::move(config), {Scheme::kProtean}});
    }
  }
  add("fig9", std::move(fig9));

  add("fig10", per_model({"DenseNet 121", "EfficientNet-B0"}, paper));

  auto twitter =
      primary("MobileNet").with_trace_kind(trace::TraceKind::kTwitter);
  twitter.trace.scale_to_peak = true;  // peak ~5000 rps (Section 5)
  auto with_no_reorder = paper;
  with_no_reorder.push_back(Scheme::kProteanNoReorder);  // ablation
  add("fig11", {{"MobileNet", std::move(twitter), with_no_reorder}});

  add("fig12", per_model(models_in(workload::Domain::kLanguage), paper));
  add("fig13", per_model({"GPT-1", "GPT-2"}, paper));

  std::vector<PaperCell> fig14;
  for (double strict : {0.75, 0.25}) {
    for (const char* model : {"ShuffleNet V2", "DPN 92"}) {
      fig14.push_back({strfmt("%s %.0f%% strict", model, strict * 100.0),
                       primary(model).with_strict_fraction(strict), paper});
    }
  }
  add("fig14", std::move(fig14));

  add("table4",
      {{"ResNet 50", primary("ResNet 50").with_strict_fraction(1.0), paper}});
  // The strict stream is unused; BE models rotate through the HI pool.
  add("table5", {{"HI pool",
                  primary("ResNet 50")
                      .with_strict_fraction(0.0)
                      .with_be_pool({"ResNet 50", "DenseNet 121", "DPN 92",
                                     "VGG 19"})
                      .with_be_rotation_period(10.0),
                  paper}});

  std::vector<PaperCell> fig15;
  for (const char* model : {"ResNet 50", "MobileNet", "SENet 18", "VGG 19"}) {
    for (double multiplier : {3.0, 2.0}) {
      fig15.push_back({strfmt("%s %.0fx", model, multiplier),
                       primary(model).with_slo_multiplier(multiplier), paper});
    }
  }
  add("fig15", std::move(fig15));

  add("fig16", per_model({"ResNet 50", "DenseNet 121", "VGG 19", "MobileNet",
                          "SENet 18", "ShuffleNet V2"},
                         {Scheme::kGpulet, Scheme::kProtean}));
  add("fig17", per_model({"ResNet 50", "VGG 19", "MobileNet", "ShuffleNet V2",
                          "SENet 18"},
                         {Scheme::kProtean, Scheme::kOracle}));

  std::vector<PaperCell> stats;
  for (std::uint64_t seed = 1000; seed < 1005; ++seed) {
    stats.push_back({strfmt("seed %llu", static_cast<unsigned long long>(seed)),
                     primary("ResNet 50").with_seed(seed), paper});
  }
  add("stats", std::move(stats));

  auto ablation = per_model({"VGG 19", "ALBERT"},
                            {Scheme::kProtean, Scheme::kProteanNoEta,
                             Scheme::kProteanNoReorder,
                             Scheme::kProteanStatic});
  // Delayed termination vs immediate scale-down (Section 4.2).
  for (double keep : {600.0, 30.0, 0.0}) {
    auto config = primary("ResNet 50");
    config.cluster.keep_alive = keep;
    config.cluster.reaper_interval = 5.0;
    ablation.push_back(
        {keep > 0.0 ? strfmt("%.0f s", keep) : std::string("immediate"),
         std::move(config), {Scheme::kProtean}});
  }
  add("ablation", std::move(ablation));
  return rows;
}

PaperCell paper_cell(std::string_view id, std::string_view label,
                     Duration horizon) {
  for (auto& row : paper_rows(horizon)) {
    if (row.id != id) continue;
    for (auto& cell : row.cells) {
      if (cell.label == label) return std::move(cell);
    }
  }
  throw std::invalid_argument("no paper cell '" + std::string(label) +
                              "' in row '" + std::string(id) + "'");
}

}  // namespace protean::harness
