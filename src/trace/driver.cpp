#include "trace/driver.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace protean::trace {

WorkloadDriver::WorkloadDriver(sim::Simulator& simulator,
                               const DriverConfig& config, RequestSink& sink)
    : sim_(simulator),
      config_(config),
      sink_(sink),
      trace_(config.trace),
      rng_(Rng(config.seed).fork(0x7ace)) {
  PROTEAN_CHECK_MSG(config_.strict_model != nullptr, "strict model required");
  PROTEAN_CHECK_MSG(config_.tick > 0.0, "tick must be positive");
  PROTEAN_CHECK_MSG(config_.strict_fraction >= 0.0 &&
                        config_.strict_fraction <= 1.0,
                    "strict fraction out of range");
  be_pool_ = config_.be_pool;
  if (be_pool_.empty() && config_.be_schedule.empty()) {
    be_pool_ = workload::ModelCatalog::instance().opposite_class_pool(
        *config_.strict_model);
  }
  if (!be_pool_.empty()) be_index_ = rng_.index(be_pool_.size());
  next_rotation_ = config_.be_rotation_period;
}

const workload::ModelProfile& WorkloadDriver::current_be_model() const {
  if (!config_.be_schedule.empty()) {
    // Last schedule entry whose time has passed (schedule_index_ points one
    // beyond it once advanced).
    const std::size_t idx = schedule_index_ == 0 ? 0 : schedule_index_ - 1;
    return *config_.be_schedule[idx].second;
  }
  PROTEAN_CHECK_MSG(!be_pool_.empty(), "no BE model configured");
  return *be_pool_[be_index_];
}

std::vector<const workload::ModelProfile*> WorkloadDriver::be_models() const {
  if (!config_.be_schedule.empty()) {
    std::vector<const workload::ModelProfile*> out;
    for (const auto& [when, model] : config_.be_schedule) {
      if (std::find(out.begin(), out.end(), model) == out.end()) {
        out.push_back(model);
      }
    }
    return out;
  }
  return be_pool_;
}

void WorkloadDriver::start() {
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, config_.tick, [this] { tick(); }, /*fire_immediately=*/true);
}

void WorkloadDriver::maybe_rotate_be_model() {
  if (!config_.be_schedule.empty()) {
    while (schedule_index_ < config_.be_schedule.size() &&
           sim_.now() >= config_.be_schedule[schedule_index_].first) {
      ++schedule_index_;
    }
    return;
  }
  if (be_pool_.size() > 1 && sim_.now() >= next_rotation_) {
    std::size_t next = rng_.index(be_pool_.size());
    if (next == be_index_) next = (next + 1) % be_pool_.size();
    be_index_ = next;
    next_rotation_ = sim_.now() + config_.be_rotation_period;
  }
}

void WorkloadDriver::tick() {
  const SimTime now = sim_.now();
  if (now >= trace_.horizon()) {
    task_->stop();
    return;
  }
  maybe_rotate_be_model();

  const double rate = trace_.rate_at(now);
  const double expected = rate * config_.tick;
  const auto total = static_cast<int>(rng_.poisson(expected));
  if (total <= 0) return;

  // Deterministic strict/BE split with fractional carry: over any window the
  // strict share matches strict_fraction to within one request.
  int strict_count = 0;
  if (config_.strict_fraction >= 1.0) {
    strict_count = total;
  } else if (config_.strict_fraction > 0.0) {
    strict_carry_ += static_cast<double>(total) * config_.strict_fraction;
    strict_count = static_cast<int>(std::floor(strict_carry_));
    strict_carry_ -= strict_count;
    strict_count = std::min(strict_count, total);
  }
  const int be_count = total - strict_count;

  const SimTime window_end = now + config_.tick;
  if (strict_count > 0) {
    sink_.on_arrivals(*config_.strict_model, /*strict=*/true, strict_count,
                      now, window_end);
    if (now >= config_.count_from) {
      strict_emitted_ += static_cast<std::uint64_t>(strict_count);
    }
  }
  if (be_count > 0) {
    sink_.on_arrivals(current_be_model(), /*strict=*/false, be_count, now,
                      window_end);
  }
  if (now >= config_.count_from) {
    emitted_ += static_cast<std::uint64_t>(total);
  }
}

}  // namespace protean::trace
