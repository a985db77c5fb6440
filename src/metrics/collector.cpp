#include "metrics/collector.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace protean::metrics {

using workload::Cause;

Breakdown fold(const workload::Decomposition& d) noexcept {
  Breakdown out;
  out.queue = d[Cause::kFormation] + d[Cause::kQueue] + d[Cause::kTransfer] +
              d[Cause::kRetry] + d[Cause::kBlackout];
  out.cold = d[Cause::kColdBoot] + d[Cause::kWeightLoad];
  out.min_time = d[Cause::kService];
  out.deficiency = d[Cause::kDeficiency];
  out.interference = d[Cause::kInterference];
  out.swap = d[Cause::kSwapStall];
  return out;
}

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
  const workload::Decomposition d = workload::decompose(batch);
  if (d.has_negative_lane()) ++negative_component_clamps_;
  if (attr_batch_hook_) attr_batch_hook_(batch, d, lat_first, lat_last);

  BatchBreakdown bb;
  bb.completed_at = batch.completed_at;
  bb.worst_latency = lat_first;
  bb.best_latency = lat_last;
  bb.breakdown = fold(d);
  bb.slo = batch.slo;
  bb.count = batch.count;
  bb.strict = batch.strict;
  bb.model = batch.model;
  batches_.push_back(bb);
}

void Collector::record_requests(bool strict, int count, double lat_first,
                                double lat_last, double slo) {
  auto& sketch = strict ? strict_sketch_ : be_sketch_;
  auto& sink = (strict ? strict_exact_ : be_exact_).samples;
  for (int i = 0; i < count; ++i) {
    const double lat = workload::request_latency(lat_first, lat_last, i, count);
    if (sketch) {
      sketch->add(lat);
    } else {
      sink.push_back(static_cast<float>(lat));
    }
    if (strict) {
      ++strict_total_;
      if (workload::meets_slo(lat, slo)) ++strict_compliant_;
    } else {
      ++be_total_;
    }
  }
}

void Collector::record_stage(const workload::Decomposition& stage) {
  ++stages_recorded_;
  if (stage.has_negative_lane()) ++negative_component_clamps_;
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
  bb.breakdown = fold(flow.chain);
  bb.slo = flow.slo;
  bb.count = flow.count;
  bb.strict = flow.strict;
  bb.model = flow.model;
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

Breakdown Collector::tail_of(const workload::ModelProfile* model,
                             double p) const {
  const auto in_scope = [model](const BatchBreakdown& b) {
    return b.strict && (model == nullptr || b.model == model);
  };
  std::vector<float> worst;
  for (const auto& b : batches_) {
    if (in_scope(b)) worst.push_back(static_cast<float>(b.worst_latency));
  }
  if (worst.empty()) return {};
  const double cutoff = percentile(std::move(worst), p);
  Breakdown sum;
  std::size_t n = 0;
  for (const auto& b : batches_) {
    if (in_scope(b) && b.worst_latency >= cutoff - 1e-12) {
      sum += b.breakdown;
      ++n;
    }
  }
  // The float-rounded cutoff can sit above every double-valued latency.
  if (n == 0) return {};
  return sum /= static_cast<double>(n);
}

std::vector<float> Collector::latencies_for(
    const workload::ModelProfile* model, bool strict) const {
  std::vector<float> out;
  for (const auto& b : batches_) {
    if (b.model != model || b.strict != strict) continue;
    for (int i = 0; i < b.count; ++i) {
      out.push_back(static_cast<float>(workload::request_latency(
          b.worst_latency, b.best_latency, i, b.count)));
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
      const double lat = workload::request_latency(
          b.worst_latency, b.best_latency, i, b.count);
      ++total;
      if (workload::meets_slo(lat, b.slo)) ++compliant;
    }
  }
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(compliant) / static_cast<double>(total);
}

}  // namespace protean::metrics
