// Gateway ① + Dispatcher ② of Fig. 4.
//
// The gateway accumulates per-(model, strictness) request arrivals and
// seals them into batches of the model's batch size — or earlier, when the
// oldest pending request has waited `batch_timeout` (request surges never
// wait behind a full-batch requirement). Sealed batches flow to a dispatch
// function supplied by the Cluster, which load-balances them across the
// accepting worker nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "cluster/config.h"
#include "common/ring.h"
#include "sim/simulator.h"
#include "trace/driver.h"
#include "workload/batch.h"

namespace protean::cluster {

class Gateway : public trace::RequestSink {
 public:
  using DispatchFn = std::function<void(workload::Batch&&)>;

  /// `first_batch_id`/`id_stride` partition the batch-id space when several
  /// gateways run side by side (sharded control plane, docs/scale.md):
  /// shard s uses ids s+1, s+1+K, s+1+2K, ... so ids stay globally unique.
  /// The defaults reproduce the single-gateway sequence 1, 2, 3, ...
  Gateway(sim::Simulator& simulator, const ClusterConfig& config,
          DispatchFn dispatch, BatchId first_batch_id = 1,
          std::uint64_t id_stride = 1);
  ~Gateway() override;

  void on_arrivals(const workload::ModelProfile& model, bool strict, int count,
                   SimTime window_start, SimTime window_end) override;

  /// Seals every partial batch immediately (end-of-experiment drain).
  void flush_all();

  /// SLO-aware batching: a partial batch is held until a fraction of the
  /// model's SLO budget has elapsed, clamped to [floor, batch_timeout]:
  ///   timeout(m) = clamp(f × slo_multiplier × solo_7g(m), floor, cap)
  static constexpr double kWaitSloFraction = 0.45;
  static constexpr Duration kTimeoutFloor = 0.050;
  /// Cadence of the partial-batch timeout check.
  static constexpr Duration kFlushCheck = 0.005;

  static Duration timeout_for(const workload::ModelProfile& model,
                              const ClusterConfig& config);

  std::uint64_t batches_formed() const noexcept { return batches_formed_; }
  std::uint64_t partial_batches() const noexcept { return partial_batches_; }
  std::uint64_t requests_seen() const noexcept { return requests_seen_; }

  /// Requests accumulated but not yet sealed into a batch, across all
  /// (model, strictness) streams.
  std::size_t pending_requests() const noexcept;
  /// Age of the oldest accumulated request (0 when nothing is pending).
  Duration oldest_pending_age() const noexcept;

  /// Registers the gateway's instruments (src/telemetry): queue depth,
  /// backlog age, and cumulative batch-formation counts. `label` suffixes
  /// every metric name (e.g. "{shard=\"1\"}" on a sharded control plane).
  void register_telemetry(telemetry::MetricsRegistry& registry,
                          const std::string& label = "");

 private:
  /// A burst of `count` arrivals spread uniformly over [t0, t1).
  struct Grain {
    SimTime t0;
    SimTime t1;
    int count;
  };
  struct Accumulator {
    common::Ring<Grain> grains;
    int pending = 0;
  };
  using Key = std::pair<const workload::ModelProfile*, bool>;

  void seal(const Key& key, Accumulator& acc, int size);
  void flush_check();

  sim::Simulator& sim_;
  const ClusterConfig& config_;
  DispatchFn dispatch_;
  std::map<Key, Accumulator> acc_;
  std::unique_ptr<sim::PeriodicTask> flush_task_;
  BatchId next_batch_id_ = 1;
  std::uint64_t id_stride_ = 1;
  std::uint64_t batches_formed_ = 0;
  std::uint64_t partial_batches_ = 0;
  std::uint64_t requests_seen_ = 0;
};

}  // namespace protean::cluster
