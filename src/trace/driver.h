// Workload driver: turns a RateTrace into request arrivals.
//
// Every tick (default 5 ms) the driver draws a Poisson count from the trace
// rate, splits it into strict and best-effort portions, and pushes the
// arrivals into a RequestSink (the cluster gateway). Strict requests target
// one fixed model; BE requests target a model that rotates every ~20 s
// through the opposite interference class (Section 5), unless an explicit
// BE schedule is supplied (used to reproduce Fig. 7's DPN 92 switch).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "workload/model.h"

namespace protean::trace {

/// Receives aggregated arrivals. `count` requests of (model, strict) arrive
/// uniformly spread over [window_start, window_end).
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  virtual void on_arrivals(const workload::ModelProfile& model, bool strict,
                           int count, SimTime window_start,
                           SimTime window_end) = 0;
};

struct DriverConfig {
  TraceConfig trace;
  const workload::ModelProfile* strict_model = nullptr;
  /// Fraction of requests that are strict (default 50-50, Section 5).
  double strict_fraction = 0.5;
  /// Pool of BE models; if empty, the opposite-class pool of the strict
  /// model is used. A single-entry pool pins the BE model.
  std::vector<const workload::ModelProfile*> be_pool;
  /// Explicit (time, model) BE schedule; overrides random rotation.
  std::vector<std::pair<SimTime, const workload::ModelProfile*>> be_schedule;
  Duration be_rotation_period = 20.0;
  Duration tick = 0.005;
  /// Arrivals before this time are excluded from the emitted counters
  /// (aligned with the metrics warmup window).
  SimTime count_from = 0.0;
  std::uint64_t seed = 7;
};

class WorkloadDriver {
 public:
  WorkloadDriver(sim::Simulator& simulator, const DriverConfig& config,
                 RequestSink& sink);

  /// Starts injecting arrivals; runs until the trace horizon.
  void start();

  const workload::ModelProfile& current_be_model() const;
  /// Every model BE requests may target during the run.
  std::vector<const workload::ModelProfile*> be_models() const;
  std::uint64_t requests_emitted() const noexcept { return emitted_; }
  std::uint64_t strict_emitted() const noexcept { return strict_emitted_; }

 private:
  void tick();
  void maybe_rotate_be_model();

  sim::Simulator& sim_;
  DriverConfig config_;
  RequestSink& sink_;
  RateTrace trace_;
  Rng rng_;
  std::vector<const workload::ModelProfile*> be_pool_;
  std::size_t be_index_ = 0;
  SimTime next_rotation_ = 0.0;
  std::size_t schedule_index_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t strict_emitted_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
  // Carries the fractional expected strict count across ticks so the strict
  // share converges to strict_fraction exactly rather than only on average.
  double strict_carry_ = 0.0;
};

}  // namespace protean::trace
