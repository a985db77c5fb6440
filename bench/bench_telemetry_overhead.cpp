// Telemetry overhead bench: wall-clock cost of the scrape pipeline and
// the bytes each latency store's percentile path reads.
//
// Two claims to validate (docs/telemetry.md):
//  1. A standard wiki-trace run with `--telemetry` enabled stays within a
//     few percent of the telemetry-off wall-clock time (target < 5%).
//  2. The sketch buckets are far fewer bytes than the batch ramps the
//     exact path selects over (one per batch record; here every batch is a
//     single request, the ramps' worst case), while reporting the same
//     percentiles within the configured relative-error bound. Both modes
//     keep the batch records themselves, so neither saves run memory.
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "metrics/collector.h"

using namespace protean;

namespace {

/// The paper's standard load (primary_config: 5000 rps wiki trace), with
/// the horizon floored at 300 s so the denominator is large enough for a
/// stable percentage — at the default 60 s bench horizon a run is ~30 ms
/// of wall time and machine noise swamps the telemetry cost.
Duration overhead_horizon() {
  return std::max(bench::bench_horizon(), Duration{300.0});
}

harness::ExperimentConfig overhead_config() {
  return harness::primary_config("ResNet 50", overhead_horizon())
      .with_scheme(sched::Scheme::kProtean);
}

double wall_seconds_once(const harness::ExperimentConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  (void)harness::run_experiment(config);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Streams `n` per-request latencies (as single-request batches) into a
/// collector — the long-run memory scenario with the simulation factored
/// out.
void stream_requests(metrics::Collector& collector, int n) {
  workload::Batch batch;
  batch.count = 1;
  for (int i = 0; i < n; ++i) {
    // Latencies spread over [50 ms, ~1 s], strict/BE interleaved.
    batch.id = static_cast<BatchId>(i);
    batch.strict = (i % 2) == 0;
    batch.first_arrival = static_cast<double>(i) * 1e-3;
    batch.last_arrival = batch.first_arrival;
    batch.completed_at =
        batch.first_arrival + 0.05 + 0.001 * static_cast<double>(i % 950);
    batch.slo = 0.5;
    collector.record(batch);
  }
}

}  // namespace

int main() {
  const int kReps = 5;
  std::printf("Telemetry overhead (wiki trace @ 5000 rps, PROTEAN, %u s "
              "horizon, best of %d interleaved runs)\n\n",
              static_cast<unsigned>(overhead_horizon()), kReps);

  auto off = overhead_config();
  auto on = overhead_config();
  on.telemetry.path = "bench_telemetry_overhead_out.jsonl";
  on.telemetry.interval = 10.0;  // the CLI default scrape cadence

  // Interleave the off/on repetitions so both modes sample the same
  // machine conditions; best-of filters scheduler and allocator noise
  // (the simulation itself is deterministic).
  double t_off = 1e300;
  double t_on = 1e300;
  for (int i = 0; i < kReps; ++i) {
    t_off = std::min(t_off, wall_seconds_once(off));
    t_on = std::min(t_on, wall_seconds_once(on));
  }
  const double overhead_pct = 100.0 * (t_on - t_off) / t_off;

  harness::Table wall({"Mode", "Wall (s)", "Overhead"});
  wall.add_row({"telemetry off", strfmt("%.3f", t_off), "-"});
  wall.add_row({"telemetry on (10 s scrapes)", strfmt("%.3f", t_on),
                strfmt("%+.2f%%", overhead_pct)});
  wall.print();
  std::printf("\ntelemetry wall-clock overhead below 5%%: %s\n",
              overhead_pct < 5.0 ? "yes" : "NO");

  // ---- latency-store bytes: batch ramps vs sketches ---------------------
  const int kRequests = 2'000'000;
  metrics::Collector exact;
  metrics::Collector sk;
  sk.use_sketch_store(0.01);
  stream_requests(exact, kRequests);
  stream_requests(sk, kRequests);

  std::printf("\nLatency store after %d requests:\n\n", kRequests);
  harness::Table mem({"Store", "Bytes", "Strict p99 (ms)", "BE p99 (ms)"});
  mem.add_row({"batch ramps (exact)",
               strfmt("%zu", exact.latency_store_bytes()),
               bench::ms(exact.strict_percentile(99.0) * 1e3),
               bench::ms(exact.be_percentile(99.0) * 1e3)});
  mem.add_row({"sketches (alpha 0.01)", strfmt("%zu", sk.latency_store_bytes()),
               bench::ms(sk.strict_percentile(99.0) * 1e3),
               bench::ms(sk.be_percentile(99.0) * 1e3)});
  mem.print();

  const bool smaller = sk.latency_store_bytes() < exact.latency_store_bytes();
  const double ratio =
      static_cast<double>(exact.latency_store_bytes()) /
      static_cast<double>(std::max<std::size_t>(sk.latency_store_bytes(), 1));
  std::printf("\nsketch store smaller than the batch ramps: %s (%.0fx)\n",
              smaller ? "yes" : "NO", ratio);
  return 0;
}
