// Figure 8: CDF of end-to-end strict-request latencies for the SENet 18
// model, one series per scheme, with the SLO marked.
#include <array>
#include <cstdio>

#include "bench_common.h"
#include "metrics/stats.h"

int main() {
  using namespace protean;
  auto config = bench::bench_config("SENet 18");
  config.keep_latency_samples = true;

  std::printf(
      "Figure 8: CDF of end-to-end job latencies, SENet 18 (SLO = %.0f ms)\n\n",
      to_ms(workload::ModelCatalog::instance().by_name("SENet 18")
                .slo_deadline()));

  auto reports = harness::run_schemes(config, sched::paper_schemes());
  harness::Table table({"Percentile", "Molecule (beta)", "Naive Slicing",
                        "INFless/Llama", "PROTEAN"});
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
  return 0;
}
