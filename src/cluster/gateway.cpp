#include "cluster/gateway.h"

#include <algorithm>

#include "common/check.h"
#include "obs/trace.h"
#include "telemetry/registry.h"

namespace protean::cluster {

namespace {
/// The gateway/dispatcher shares Perfetto process lane 0; worker nodes use
/// lanes 1 + node id.
constexpr int kGatewayPid = 0;
}  // namespace

Gateway::Gateway(sim::Simulator& simulator, const ClusterConfig& config,
                 DispatchFn dispatch, BatchId first_batch_id,
                 std::uint64_t id_stride)
    : sim_(simulator),
      config_(config),
      dispatch_(std::move(dispatch)),
      next_batch_id_(first_batch_id),
      id_stride_(id_stride) {
  PROTEAN_CHECK_MSG(static_cast<bool>(dispatch_), "null dispatch function");
  PROTEAN_CHECK_MSG(id_stride_ > 0, "batch-id stride must be positive");
  if (obs::Tracer* t = config_.tracer; t != nullptr) {
    t->process_name(kGatewayPid, "gateway");
  }
  flush_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, kFlushCheck, [this] { flush_check(); });
}

Gateway::~Gateway() = default;

void Gateway::on_arrivals(const workload::ModelProfile& model, bool strict,
                          int count, SimTime window_start,
                          SimTime window_end) {
  PROTEAN_CHECK_MSG(count > 0, "empty arrival burst");
  requests_seen_ += static_cast<std::uint64_t>(count);
  const Key key{&model, strict};
  Accumulator& acc = acc_[key];
  acc.grains.push_back(Grain{window_start, window_end, count});
  acc.pending += count;
  while (acc.pending >= model.batch_size) seal(key, acc, model.batch_size);
}

void Gateway::seal(const Key& key, Accumulator& acc, int size) {
  PROTEAN_DCHECK(size > 0 && acc.pending >= 0);
  size = std::min(size, acc.pending);
  if (size == 0) return;

  workload::Batch batch;
  batch.id = next_batch_id_;
  next_batch_id_ += id_stride_;
  batch.model = key.first;
  batch.strict = key.second;
  batch.count = size;
  batch.first_arrival = acc.grains.front().t0;
  batch.formed_at = sim_.now();
  if (batch.strict) {
    batch.slo = batch.model->slo_deadline(config_.slo_multiplier);
  }

  // Consume `size` requests from the grain FIFO; the last consumed
  // request's arrival time is interpolated inside its grain.
  int remaining = size;
  SimTime last_arrival = batch.first_arrival;
  while (remaining > 0) {
    Grain& g = acc.grains.front();
    if (g.count <= remaining) {
      remaining -= g.count;
      last_arrival = g.t1;
      acc.grains.pop_front();
    } else {
      const double frac =
          static_cast<double>(remaining) / static_cast<double>(g.count);
      last_arrival = g.t0 + (g.t1 - g.t0) * frac;
      g.t0 = last_arrival;  // the rest of the grain arrives afterwards
      g.count -= remaining;
      remaining = 0;
    }
  }
  acc.pending -= size;
  batch.last_arrival = std::max(last_arrival, batch.first_arrival);

  ++batches_formed_;
  if (size < key.first->batch_size) ++partial_batches_;
  if (obs::Tracer* t = config_.tracer;
      t != nullptr && t->wants(obs::kSpans)) {
    // "form": first request arrival -> batch sealed (the batching delay).
    t->async_begin(obs::kSpans, "form", batch.id, kGatewayPid,
                   batch.first_arrival,
                   {{"model", batch.model->name},
                    {"strict", batch.strict ? 1.0 : 0.0},
                    {"count", static_cast<double>(batch.count)}});
    t->async_end(obs::kSpans, "form", batch.id, kGatewayPid, sim_.now());
  }
  dispatch_(std::move(batch));
}

Duration Gateway::timeout_for(const workload::ModelProfile& model,
                              const ClusterConfig& config) {
  const Duration budget_based =
      kWaitSloFraction * config.slo_multiplier * model.solo_time_7g;
  return std::clamp(budget_based, kTimeoutFloor, config.batch_timeout);
}

void Gateway::flush_check() {
  const SimTime now = sim_.now();
  for (auto& [key, acc] : acc_) {
    if (acc.pending == 0) continue;
    if (now - acc.grains.front().t0 >= timeout_for(*key.first, config_)) {
      seal(key, acc, key.first->batch_size);
    }
  }
}

void Gateway::flush_all() {
  for (auto& [key, acc] : acc_) {
    while (acc.pending > 0) seal(key, acc, key.first->batch_size);
  }
}

std::size_t Gateway::pending_requests() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, acc] : acc_) {
    total += static_cast<std::size_t>(acc.pending);
  }
  return total;
}

Duration Gateway::oldest_pending_age() const noexcept {
  const SimTime now = sim_.now();
  Duration oldest = 0.0;
  for (const auto& [key, acc] : acc_) {
    if (acc.pending == 0) continue;
    oldest = std::max(oldest, now - acc.grains.front().t0);
  }
  return oldest;
}

void Gateway::register_telemetry(telemetry::MetricsRegistry& registry,
                                 const std::string& label) {
  registry.gauge("gateway_pending_requests" + label, [this] {
    return static_cast<double>(pending_requests());
  });
  registry.gauge("gateway_oldest_pending_age_seconds" + label,
                 [this] { return oldest_pending_age(); });
  registry.gauge("gateway_requests_seen_total" + label, [this] {
    return static_cast<double>(requests_seen_);
  });
  registry.gauge("gateway_batches_formed_total" + label, [this] {
    return static_cast<double>(batches_formed_);
  });
  registry.gauge("gateway_partial_batches_total" + label, [this] {
    return static_cast<double>(partial_batches_);
  });
}

}  // namespace protean::cluster
