// Cluster-wide configuration knobs.
#pragma once

#include <cstdint>

#include "attr/config.h"
#include "autoscale/config.h"
#include "common/types.h"
#include "fault/config.h"
#include "gpu/engine.h"
#include "memcache/config.h"
#include "softgpu/config.h"
#include "spot/market.h"
#include "workflow/config.h"

namespace protean::obs {
class Tracer;
}

namespace protean::telemetry {
class MetricsRegistry;
}

namespace protean::cluster {

/// How the Dispatcher ② spreads batches over worker nodes.
enum class DispatchPolicy {
  kRandom,       ///< classic gateway routing (default): uniform random node;
                 ///< thinned arrivals stay Poisson, so per-node burstiness
                 ///< is preserved (round-robin would phase-lock streams)
  kLeastLoaded,  ///< route to the node with the least outstanding work
  kConsolidate,  ///< INFless/Llama-style: pack the busiest GPU that still
                 ///< has headroom, to maximize per-GPU utilization
};

struct ClusterConfig {
  /// Worker nodes, each hosting one A100-class GPU (paper: 8 workers).
  std::uint32_t node_count = 8;

  /// Control-plane shards (docs/scale.md). With K > 1 the cluster runs K
  /// gateways, each batching its share of the arrival stream with its own
  /// scheduler instance over a contiguous node range, and a
  /// power-of-two-choices layer balances dispatches across shards. K = 1
  /// is byte-identical to the single-gateway control plane.
  std::uint32_t shards = 1;

  /// Cap on the gateway's SLO-aware partial-batch hold time
  /// (Gateway::timeout_for).
  Duration batch_timeout = 0.300;

  /// Container boot + model load latency paid on a cold start.
  Duration cold_start = 5.0;
  /// Delayed-termination keep-alive for warm containers (Section 4.2,
  /// ~10 minutes). Zero disables keep-alive (scale down immediately) —
  /// the ablation knob for the cold-start study.
  Duration keep_alive = 600.0;
  /// Cadence of the container reaper.
  Duration reaper_interval = 30.0;

  /// Monitor interval W of Algorithm 2 (per-node reconfiguration checks).
  Duration monitor_interval = 5.0;
  /// MIG geometry-change downtime (~2 s, Section 4.4).
  Duration reconfigure_time = 2.0;
  /// At most this fraction of GPUs may reconfigure simultaneously
  /// (Section 4.4: ~30%).
  double max_reconfig_fraction = 0.3;

  /// SLO multiplier over the 7g solo latency (Section 5: 3×; the tight-SLO
  /// sensitivity study uses 2×).
  double slo_multiplier = 3.0;

  /// Total memory of each worker's GPU (A100-40GB vs A100-80GB). MIG slice
  /// capacities scale proportionally from the Table 2 baseline.
  MemGb gpu_memory_gb = 40.0;

  /// Per-node model-weight cache (src/memcache). Disabled by default so
  /// the paper's primary experiments reproduce unchanged.
  memcache::MemCacheConfig memcache;

  /// MPS interference model knobs (see gpu/engine.h).
  gpu::InterferenceParams interference;

  /// VM market / procurement; policy kOnDemandOnly with p_rev 0 reproduces
  /// the primary experiments.
  spot::MarketConfig market;

  /// Fault injection & resilience (src/fault). Disabled by default; with
  /// faults off every run is byte-identical to a build without this knob.
  fault::FaultConfig fault;

  /// Software-defined GPU slicing substrate (src/softgpu). Disabled by
  /// default; when enabled, selected nodes build their GPU in kSoftSlice
  /// mode (or a forced hardware mode) instead of the scheduler's native
  /// sharing mode. With the substrate off every run is byte-identical to a
  /// build without this knob.
  softgpu::SoftGpuConfig softgpu;

  /// Pipeline/DAG inference workflows (src/workflow). Disabled by default;
  /// when enabled, strict requests expand into multi-stage DAG flows with
  /// one end-to-end SLO, inter-stage transfer hops, and per-stage jobs
  /// spawned as predecessors complete. With workflows off every run is
  /// byte-identical to a build without this knob.
  workflow::WorkflowConfig workflow;

  /// SLO-violation attribution (src/attr). Disabled by default; when
  /// enabled the cluster owns an AttributionEngine fed from the collector's
  /// attribution hooks, the report/JSON gain an `attribution` block, and
  /// telemetry (when also on) exports per-cause violation series. Purely
  /// observational: with attribution off every run is byte-identical to a
  /// build without this knob.
  attr::AttrConfig attr;

  /// SLO-aware online autoscaling (src/autoscale). Disabled by default;
  /// when enabled the cluster builds resolve_max(node_count) node slots,
  /// the market provisions only the base node_count at start, and the
  /// control loop acquires/releases the rest. With autoscaling off every
  /// run is byte-identical to a build without this knob.
  autoscale::AutoscaleConfig autoscale;

  /// Span tracer (src/obs); non-owning, must outlive the deployment. Null
  /// (the default) disables every hook, keeping runs byte-identical to a
  /// build without the subsystem.
  obs::Tracer* tracer = nullptr;

  /// Telemetry registry (src/telemetry); non-owning, must outlive the
  /// deployment. When set, the cluster, gateway and nodes register their
  /// instruments into it at construction. Null (the default) skips all
  /// registration — same byte-identity contract as the tracer.
  telemetry::MetricsRegistry* telemetry = nullptr;
};

}  // namespace protean::cluster
