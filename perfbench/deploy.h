// A timed rebuild of harness::run_experiment's deployment.
//
// Deployment makes the same public calls run_experiment makes, in the same
// order, split into the phases the benchmark reports: rate-trace build,
// cluster build (construction, prewarm, start), the event loop, the drain,
// finalization, JSON (timed by the caller), teardown and telemetry output.
// With a Profile it also wraps the two virtual interfaces the event loop
// calls through, trace::RequestSink and cluster::Scheduler, in timing
// decorators. Without one it adds nothing, which is how the untraced run
// measures set-up time.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autoscale/controller.h"
#include "cluster/cluster.h"
#include "harness/experiment.h"
#include "sim/simulator.h"
#include "telemetry/pipeline.h"
#include "trace/driver.h"
#include "workflow/spec.h"

namespace perfbench {

/// Calls timed inside the event loop.
enum Call { kIngest, kPlace, kMakeJob, kMonitor, kObserve, kCallCount };
/// Phases timed around their public call.
enum Phase {
  kTraceBuild,
  kClusterBuild,
  kRun,
  kDrain,
  kFinalize,
  kJson,
  kTelemetryWrite,
  kTeardown,
  kPhaseCount
};

const char* call_name(Call call);
const char* phase_name(Phase phase);

/// What protean_sim --json prints for these reports.
std::string report_json(const protean::harness::ExperimentConfig& config,
                        const std::vector<protean::harness::Report>& reports);

/// The report fields the timed rebuild must reproduce exactly: events,
/// strict completions, strict p50/p99, SLO attainment, cost and scheme.
/// Empty when they all match, else one "field: want vs got; " per miss.
std::string mismatch(const protean::harness::Report& want,
                     const protean::harness::Report& got);

struct Acc {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  /// Duration minus the timed calls nested inside.
  double self_s = 0.0;
};

struct Span {
  std::string name;
  double start_s = 0.0;  ///< since the profile was created
  double end_s = 0.0;
};

/// In-memory accumulators and phase spans; written out by the caller once
/// the benchmark ends.
class Profile {
 public:
  using Clock = std::chrono::steady_clock;

  /// Times one call or phase on the stack of open scopes. A null profile
  /// makes it a no-op.
  class Scope {
   public:
    Scope(Profile* profile, Acc* acc, const char* span = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profile* profile_;
    Acc* acc_;
    const char* span_;
    double* outer_;
    double nested_ = 0.0;
    Clock::time_point start_;
  };

  Acc calls[kCallCount];
  Acc phases[kPhaseCount];
  std::vector<Span> spans;
  /// place() calls that returned a slice.
  std::uint64_t place_hits = 0;
  /// Largest simulator heap seen at an ingest call, tombstones included.
  std::size_t heap_peak = 0;

  Scope call(Call c) { return Scope(this, &calls[c]); }
  Scope phase(Phase p) { return Scope(this, &phases[p], phase_name(p)); }

 private:
  double since_origin(Clock::time_point t) const;

  Clock::time_point origin_ = Clock::now();
  double* nested_ = nullptr;  // child-time accumulator of the open scope
};

/// Counts read from public getters after the drain, summed over scenarios.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  std::uint64_t partial_batches = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t requests = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t batch_records = 0;
  std::uint64_t scrapes = 0;
  std::uint64_t attr_batches = 0;
  std::uint64_t attr_identity_violations = 0;
  std::uint64_t attr_negative_clamps = 0;
  std::uint64_t lost_batches = 0;
  std::uint64_t retries = 0;
  std::uint64_t stage_batches = 0;
  std::uint64_t transfer_hops = 0;
  std::uint64_t colocated_hops = 0;
  std::uint64_t autoscale_ticks = 0;
  double autoscale_committed_ticks = 0.0;
};

class Deployment {
 public:
  /// Builds everything run_experiment builds before the event loop, up to
  /// and including prewarm and start. `profile` may be null.
  Deployment(const protean::harness::ExperimentConfig& config,
             Profile* profile);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs to the horizon, flushes the gateways and drains.
  void run();
  /// The collector queries run_experiment makes for the report's core
  /// fields (feature blocks are left empty), plus the latency-sample copy.
  protean::harness::Report finalize();
  /// Adds this deployment's counts to `total`. Call before teardown.
  void add_counts(Counts& total);
  /// Stops and destroys the deployment, then writes telemetry files.
  void teardown();

 private:
  class TimedSink;
  class TimedScheduler;

  /// Times `p` when profiling; a no-op otherwise.
  Profile::Scope phase(Phase p);

  const protean::harness::ExperimentConfig& config_;
  Profile* profile_;
  protean::sim::Simulator sim_;
  std::optional<protean::telemetry::TelemetryPipeline> pipeline_;
  std::unique_ptr<protean::cluster::Scheduler> scheduler_;
  std::vector<std::unique_ptr<protean::cluster::Scheduler>> shard_store_;
  std::vector<std::unique_ptr<TimedScheduler>> timed_;
  protean::cluster::ClusterConfig cluster_config_;
  std::optional<protean::workflow::WorkflowSpec> wf_spec_;
  protean::trace::DriverConfig driver_config_;
  std::optional<protean::cluster::Cluster> cluster_;
  std::unique_ptr<TimedSink> sink_;
  std::optional<protean::trace::WorkloadDriver> driver_;
  std::optional<protean::autoscale::AutoscaleController> controller_;
  double gpu_util_ = 0.0;
  double mem_util_ = 0.0;
};

}  // namespace perfbench
