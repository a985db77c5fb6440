#include "metrics/collector.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace protean::metrics {

void Collector::use_sketch_store(double alpha) {
  PROTEAN_CHECK_MSG(strict_exact_.samples.empty() && be_exact_.samples.empty(),
                    "use_sketch_store must precede the first record()");
  strict_sketch_.emplace(alpha);
  be_sketch_.emplace(alpha);
}

std::size_t Collector::latency_store_bytes() const noexcept {
  if (strict_sketch_) {
    return strict_sketch_->approx_bytes() + be_sketch_->approx_bytes();
  }
  return (strict_exact_.samples.capacity() + be_exact_.samples.capacity()) *
         sizeof(float);
}

void Collector::record(const workload::Batch& batch) {
  PROTEAN_CHECK_MSG(batch.completed_at > 0.0, "batch not completed");
  PROTEAN_CHECK_MSG(batch.count > 0, "empty batch");
  if (dedup_ && !seen_.insert(batch.id).second) {
    // A hedged duplicate finished after the primary (or vice versa): count
    // it for the wasted-work accounting but keep the statistics clean.
    ++duplicate_hedges_;
    return;
  }
  if (batch.first_arrival < measure_from_) return;

  const double lat_first = batch.completed_at - batch.first_arrival;
  const double lat_last = batch.completed_at - batch.last_arrival;
  PROTEAN_DCHECK(lat_first >= lat_last - 1e-9);

  record_requests(batch.strict, batch.count, lat_first, lat_last, batch.slo);
  if (observer_) {
    observer_(batch.completed_at, batch.strict, lat_first, lat_last,
              batch.count, batch.slo);
  }
  if (attr_batch_hook_) attr_batch_hook_(batch, lat_first, lat_last);

  // The clamp in queue_delay() hides accounting bugs (time charged to two
  // components at once); count raw negatives so audits can assert zero.
  const double raw_queue =
      (batch.exec_start - batch.first_arrival) - batch.cold_start;
  if (raw_queue < -1e-9) ++negative_component_clamps_;

  BatchBreakdown bb;
  bb.completed_at = batch.completed_at;
  bb.worst_latency = lat_first;
  bb.best_latency = lat_last;
  bb.slo = batch.slo;
  bb.model = batch.model;
  bb.cold = batch.cold_start;
  bb.queue = batch.queue_delay();
  bb.min_time = batch.solo_min;
  bb.deficiency = batch.deficiency_delay();
  bb.interference = batch.interference_delay();
  bb.swap = batch.swap_stall_delay();
  bb.count = batch.count;
  bb.strict = batch.strict;
  batches_.push_back(bb);
}

void Collector::record_requests(bool strict, int count, double lat_first,
                                double lat_last, double slo) {
  auto& sketch = strict ? strict_sketch_ : be_sketch_;
  auto& sink = (strict ? strict_exact_ : be_exact_).samples;
  for (int i = 0; i < count; ++i) {
    // Requests are spread uniformly over [first_arrival, last_arrival];
    // request 0 is the earliest, i.e. the longest-waiting.
    const double frac =
        count == 1 ? 0.0
                   : static_cast<double>(i) / static_cast<double>(count - 1);
    const double lat = lat_first + (lat_last - lat_first) * frac;
    if (sketch) {
      sketch->add(lat);
    } else {
      sink.push_back(static_cast<float>(lat));
    }
    if (strict) {
      ++strict_total_;
      if (lat <= slo + 1e-9) ++strict_compliant_;
    } else {
      ++be_total_;
    }
  }
}

void Collector::record_stage(const workload::Batch& batch) {
  ++stages_recorded_;
  stage_queue_seconds_ += batch.stage_queue_delay();
  stage_cold_seconds_ += batch.cold_start;
  stage_exec_seconds_ += batch.exec_time;
  const SimTime since = batch.stage > 0 ? batch.formed_at : batch.first_arrival;
  const double raw_queue =
      (batch.exec_start - since) - batch.cold_start - batch.transfer;
  if (raw_queue < -1e-9) ++negative_component_clamps_;
}

bool Collector::record_flow(const FlowRecord& flow) {
  PROTEAN_CHECK_MSG(flow.completed_at > 0.0, "flow not completed");
  PROTEAN_CHECK_MSG(flow.count > 0, "empty flow");
  if (!claim(flow.id)) return false;  // raced a terminal drop under dedup
  if (flow.first_arrival < measure_from_) return false;
  ++flows_recorded_;

  const double lat_first = flow.completed_at - flow.first_arrival;
  const double lat_last = flow.completed_at - flow.last_arrival;
  PROTEAN_DCHECK(lat_first >= lat_last - 1e-9);

  record_requests(flow.strict, flow.count, lat_first, lat_last, flow.slo);
  if (observer_) {
    observer_(flow.completed_at, flow.strict, lat_first, lat_last, flow.count,
              flow.slo);
  }

  BatchBreakdown bb;
  bb.completed_at = flow.completed_at;
  bb.worst_latency = lat_first;
  bb.best_latency = lat_last;
  bb.slo = flow.slo;
  bb.model = flow.model;
  bb.cold = flow.cold;
  // BatchBreakdown has no transfer lane; inter-stage hops are wait time
  // from the request's perspective, so they fold into queueing here (the
  // workflow report block carries the exact transfer split).
  bb.queue = flow.queue + flow.transfer;
  bb.min_time = flow.min_time;
  bb.deficiency = flow.deficiency;
  bb.interference = flow.interference;
  bb.swap = flow.swap;
  bb.count = flow.count;
  bb.strict = flow.strict;
  batches_.push_back(bb);
  return true;
}

void Collector::record_dropped(bool strict, int count) {
  dropped_ += static_cast<std::uint64_t>(count);
  // A dropped strict request is an SLO violation by definition.
  if (strict) strict_total_ += static_cast<std::uint64_t>(count);
  if (attr_drop_hook_) attr_drop_hook_(strict, count);
}

double Collector::slo_compliance_pct() const noexcept {
  if (strict_total_ == 0) return 100.0;
  return 100.0 * static_cast<double>(strict_compliant_) /
         static_cast<double>(strict_total_);
}

void Collector::ExactStore::fold() noexcept {
  for (; summed < samples.size(); ++summed) {
    sum += static_cast<double>(samples[summed]);
  }
}

double Collector::ExactStore::percentile(double p) {
  fold();
  double out = 0.0;
  select_percentiles(samples, {&p, 1}, {&out, 1});
  return out;
}

double Collector::ExactStore::mean() noexcept {
  fold();
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

double Collector::strict_percentile(double p) const {
  return strict_sketch_ ? strict_sketch_->percentile(p)
                        : strict_exact_.percentile(p);
}

double Collector::be_percentile(double p) const {
  return be_sketch_ ? be_sketch_->percentile(p) : be_exact_.percentile(p);
}

double Collector::strict_mean() const {
  return strict_sketch_ ? strict_sketch_->mean() : strict_exact_.mean();
}

double Collector::be_mean() const {
  return be_sketch_ ? be_sketch_->mean() : be_exact_.mean();
}

std::vector<float> Collector::take_strict_latencies() noexcept {
  return std::exchange(strict_exact_, {}).samples;
}

namespace {
Breakdown average_over(const std::vector<const BatchBreakdown*>& batches) {
  Breakdown out;
  if (batches.empty()) return out;
  for (const auto* b : batches) {
    out.queue += b->queue;
    out.cold += b->cold;
    out.min_time += b->min_time;
    out.deficiency += b->deficiency;
    out.interference += b->interference;
    out.swap += b->swap;
  }
  const double n = static_cast<double>(batches.size());
  out.queue /= n;
  out.cold /= n;
  out.min_time /= n;
  out.deficiency /= n;
  out.interference /= n;
  out.swap /= n;
  return out;
}
}  // namespace

Breakdown Collector::tail_breakdown(double p) const {
  std::vector<float> strict_worst;
  for (const auto& b : batches_) {
    if (b.strict) strict_worst.push_back(static_cast<float>(b.worst_latency));
  }
  if (strict_worst.empty()) return {};
  const double cutoff = percentile(std::move(strict_worst), p);
  std::vector<const BatchBreakdown*> tail;
  for (const auto& b : batches_) {
    if (b.strict && b.worst_latency >= cutoff - 1e-12) tail.push_back(&b);
  }
  return average_over(tail);
}

std::vector<float> Collector::latencies_for(
    const workload::ModelProfile* model, bool strict) const {
  std::vector<float> out;
  for (const auto& b : batches_) {
    if (b.model != model || b.strict != strict) continue;
    for (int i = 0; i < b.count; ++i) {
      const double frac =
          b.count == 1 ? 0.0
                       : static_cast<double>(i) / static_cast<double>(b.count - 1);
      out.push_back(static_cast<float>(
          b.worst_latency + (b.best_latency - b.worst_latency) * frac));
    }
  }
  return out;
}

double Collector::slo_compliance_pct_for(
    const workload::ModelProfile* model) const {
  std::uint64_t total = 0, compliant = 0;
  for (const auto& b : batches_) {
    if (b.model != model || !b.strict) continue;
    for (int i = 0; i < b.count; ++i) {
      const double frac =
          b.count == 1 ? 0.0
                       : static_cast<double>(i) / static_cast<double>(b.count - 1);
      const double lat =
          b.worst_latency + (b.best_latency - b.worst_latency) * frac;
      ++total;
      if (lat <= b.slo + 1e-9) ++compliant;
    }
  }
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(compliant) / static_cast<double>(total);
}

Breakdown Collector::tail_breakdown_for(const workload::ModelProfile* model,
                                        double p) const {
  std::vector<float> worst;
  for (const auto& b : batches_) {
    if (b.model == model && b.strict) {
      worst.push_back(static_cast<float>(b.worst_latency));
    }
  }
  if (worst.empty()) return {};
  const double cutoff = percentile(std::move(worst), p);
  std::vector<const BatchBreakdown*> tail;
  for (const auto& b : batches_) {
    if (b.model == model && b.strict && b.worst_latency >= cutoff - 1e-12) {
      tail.push_back(&b);
    }
  }
  return average_over(tail);
}

Breakdown Collector::mean_breakdown() const {
  std::vector<const BatchBreakdown*> all;
  for (const auto& b : batches_) {
    if (b.strict) all.push_back(&b);
  }
  return average_over(all);
}

}  // namespace protean::metrics
