#include "metrics/collector.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <limits>
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

namespace {

/// Requests of one ramp that meet the SLO. The ramp is monotone, so they
/// form a contiguous run at its fast end, found by one binary search over
/// the requests ordered from the fastest.
std::uint64_t slo_good(double lat_first, double lat_last, int count,
                       double slo) {
  const bool rising = lat_last > lat_first;
  int lo = 0, hi = count;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const int i = rising ? mid : count - 1 - mid;
    if (workload::meets_slo(
            workload::request_latency(lat_first, lat_last, i, count), slo)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint64_t>(lo);
}

}  // namespace

std::uint16_t Collector::intern_stream(const workload::ModelProfile* model,
                                       double slo) {
  const auto same = [model, slo](const Stream& s) {
    return s.model == model &&
           std::bit_cast<std::uint64_t>(s.slo) ==
               std::bit_cast<std::uint64_t>(slo);
  };
  if (!streams_.empty() && same(streams_[last_stream_])) return last_stream_;
  const std::size_t index = static_cast<std::size_t>(std::distance(
      streams_.begin(), std::find_if(streams_.begin(), streams_.end(), same)));
  if (index == streams_.size()) {
    PROTEAN_CHECK_MSG(index <= std::numeric_limits<std::uint16_t>::max(),
                      "more {model, slo} streams than a batch record can "
                      "index");
    streams_.push_back({model, slo});
  }
  last_stream_ = static_cast<std::uint16_t>(index);
  return last_stream_;
}

void Collector::add_record(double lat_first, double lat_last, int count,
                           bool strict, const workload::ModelProfile* model,
                           double slo, const workload::Decomposition& d) {
  const BatchRamp ramp{lat_first, lat_last, count, intern_stream(model, slo)};
  if (strict) {
    strict_ramps_.push_back(ramp);
    strict_lanes_.push_back(fold(d));
  } else {
    be_ramps_.push_back(ramp);
  }
}

std::vector<bool> Collector::streams_of(
    const workload::ModelProfile* model) const {
  std::vector<bool> out(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    out[i] = model == nullptr || streams_[i].model == model;
  }
  return out;
}

void Collector::use_sketch_store(double alpha) {
  PROTEAN_CHECK_MSG(strict_ramps_.empty() && be_ramps_.empty(),
                    "use_sketch_store must precede the first record()");
  strict_sketch_.emplace(alpha);
  be_sketch_.emplace(alpha);
}

std::size_t Collector::latency_store_bytes() const noexcept {
  if (strict_sketch_) {
    return strict_sketch_->approx_bytes() + be_sketch_->approx_bytes();
  }
  return batch_records().size() * sizeof(LatencyRamp);
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

  add_record(lat_first, lat_last, batch.count, batch.strict, batch.model,
             batch.slo, d);
}

void Collector::record_requests(bool strict, int count, double lat_first,
                                double lat_last, double slo) {
  auto& sketch = strict ? strict_sketch_ : be_sketch_;
  LatencyTotals& totals = strict ? strict_totals_ : be_totals_;
  for (int i = 0; i < count; ++i) {
    const double lat = workload::request_latency(lat_first, lat_last, i, count);
    if (sketch) {
      sketch->add(lat);
    } else {
      totals.sum += static_cast<double>(static_cast<float>(lat));
    }
  }
  totals.requests += static_cast<std::uint64_t>(count);
  ++totals.ramps;
  if (strict) {
    strict_total_ += static_cast<std::uint64_t>(count);
    strict_compliant_ += slo_good(lat_first, lat_last, count, slo);
  } else {
    be_total_ += static_cast<std::uint64_t>(count);
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

  add_record(lat_first, lat_last, flow.count, flow.strict, flow.model,
             flow.slo, flow.chain);
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

/// The ramps of one class's batch records in one stream scope, read in
/// place: a record of a stream outside the scope is an empty slot.
class Collector::ScopedRamps final : public RampSource {
 public:
  ScopedRamps(const Chunked<BatchRamp>& records, std::vector<bool> of_stream,
              std::size_t requests, std::size_t ramps)
      : records_(records),
        of_stream_(std::move(of_stream)),
        requests_(requests),
        ramps_(ramps) {}

  std::size_t slots() const override { return records_.size(); }
  LatencyRamp ramp(std::size_t slot) const override {
    const BatchRamp& b = records_[slot];
    if (!of_stream_[b.stream]) return {};
    return {b.worst_latency, b.best_latency, b.count};
  }
  std::size_t requests() const override { return requests_; }
  std::size_t ramps() const override { return ramps_; }

 private:
  const Chunked<BatchRamp>& records_;
  std::vector<bool> of_stream_;
  std::size_t requests_;
  std::size_t ramps_;
};

Collector::ScopedRamps Collector::scope(
    bool strict, const workload::ModelProfile* model) const {
  const Chunked<BatchRamp>& records = ramps_of(strict);
  std::vector<bool> of_stream = streams_of(model);
  const LatencyTotals& totals = strict ? strict_totals_ : be_totals_;
  auto requests = static_cast<std::size_t>(totals.requests);
  std::size_t ramps = totals.ramps;
  if (model != nullptr) {  // one model's share of the class's totals
    requests = ramps = 0;
    for (const BatchRamp& b : records) {
      if (!of_stream[b.stream]) continue;
      requests += static_cast<std::size_t>(b.count);
      ++ramps;
    }
  }
  return ScopedRamps(records, std::move(of_stream), requests, ramps);
}

LatencyRamps Collector::ramps(bool strict) const {
  const Chunked<BatchRamp>& records = ramps_of(strict);
  LatencyRamps out;
  out.reserve(records.size());
  for (const BatchRamp& b : records) {
    out.add(b.worst_latency, b.best_latency, b.count);
  }
  return out;
}

void Collector::percentiles(bool strict, std::span<const double> ps,
                            std::span<double> out) const {
  if (const auto& sketch = strict ? strict_sketch_ : be_sketch_) {
    PROTEAN_CHECK_MSG(out.size() == ps.size(),
                      "percentiles needs one output per percentile");
    for (std::size_t i = 0; i < ps.size(); ++i) {
      out[i] = sketch->percentile(ps[i]);
    }
    return;
  }
  select_percentiles(scope(strict, nullptr), ps, out);
}

void Collector::percentiles_for(const workload::ModelProfile* model,
                                bool strict, std::span<const double> ps,
                                std::span<double> out) const {
  select_percentiles(scope(strict, model), ps, out);
}

std::uint64_t Collector::requests_for(const workload::ModelProfile* model,
                                      bool strict) const {
  return scope(strict, model).requests();
}

double Collector::strict_percentile(double p) const {
  double out = 0.0;
  percentiles(true, {&p, 1}, {&out, 1});
  return out;
}

double Collector::be_percentile(double p) const {
  double out = 0.0;
  percentiles(false, {&p, 1}, {&out, 1});
  return out;
}

double Collector::strict_mean() const {
  return strict_sketch_ ? strict_sketch_->mean() : strict_totals_.mean();
}

double Collector::be_mean() const {
  return be_sketch_ ? be_sketch_->mean() : be_totals_.mean();
}

LatencyRamps Collector::strict_latencies() const {
  return strict_sketch_ ? LatencyRamps{} : ramps(true);
}

LatencyRamps Collector::be_latencies() const {
  return be_sketch_ ? LatencyRamps{} : ramps(false);
}

Breakdown Collector::tail_of(const workload::ModelProfile* model,
                             double p) const {
  const std::vector<bool> of_model = streams_of(model);
  std::vector<float> worst;
  for (const BatchRamp& b : strict_ramps_) {
    if (of_model[b.stream]) {
      worst.push_back(static_cast<float>(b.worst_latency));
    }
  }
  if (worst.empty()) return {};
  const double cutoff = percentile(std::move(worst), p);
  Breakdown sum;
  std::size_t n = 0;
  for (std::size_t i = 0; i < strict_ramps_.size(); ++i) {
    const BatchRamp& b = strict_ramps_[i];
    if (of_model[b.stream] && b.worst_latency >= cutoff - 1e-12) {
      sum += strict_lanes_[i];
      ++n;
    }
  }
  // The float-rounded cutoff can sit above every double-valued latency.
  if (n == 0) return {};
  return sum /= static_cast<double>(n);
}

double Collector::slo_compliance_pct_for(
    const workload::ModelProfile* model) const {
  std::uint64_t total = 0, compliant = 0;
  for (const BatchRamp& b : strict_ramps_) {
    const Stream& stream = streams_[b.stream];
    if (stream.model != model) continue;
    total += static_cast<std::uint64_t>(b.count);
    compliant +=
        slo_good(b.worst_latency, b.best_latency, b.count, stream.slo);
  }
  if (total == 0) return 100.0;
  return 100.0 * static_cast<double>(compliant) / static_cast<double>(total);
}

}  // namespace protean::metrics
