#include "telemetry/burnrate.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace protean::telemetry {

void BurnRateMonitor::Window::init(std::size_t ticks) {
  violations.assign(ticks, 0);
  total.assign(ticks, 0);
}

void BurnRateMonitor::Window::add(std::uint64_t n_violations,
                                  std::uint64_t n_total) {
  violations[head] += n_violations;
  sum_violations += n_violations;
  total[head] += n_total;
  sum_total += n_total;
}

void BurnRateMonitor::Window::advance() {
  head = (head + 1) % total.size();
  sum_violations -= violations[head];
  sum_total -= total[head];
  violations[head] = 0;
  total[head] = 0;
}

double BurnRateMonitor::Window::burn(double budget) const noexcept {
  if (sum_total == 0) return 0.0;
  const double violation_fraction =
      static_cast<double>(sum_violations) / static_cast<double>(sum_total);
  return violation_fraction / budget;
}

BurnRateMonitor::BurnRateMonitor(const BurnRateConfig& config, Duration tick)
    : config_(config), tick_(tick), budget_(1.0 - config.slo_target) {
  PROTEAN_CHECK_MSG(tick_ > 0.0, "monitor tick must be positive");
  PROTEAN_CHECK_MSG(budget_ > 0.0 && budget_ < 1.0,
                    "slo target must be in (0, 1)");
  PROTEAN_CHECK_MSG(
      config.fast_window > 0.0 && config.slow_window >= config.fast_window,
      "windows must satisfy 0 < fast <= slow");
  PROTEAN_CHECK_MSG(config.clear_threshold <= config.fire_threshold,
                    "clear threshold must not exceed fire threshold");
  const auto ticks_for = [this](Duration window) {
    return static_cast<std::size_t>(
        std::max(1.0, std::ceil(window / tick_ - 1e-9)));
  };
  fast_.init(ticks_for(config.fast_window));
  slow_.init(ticks_for(config.slow_window));
}

void BurnRateMonitor::observe_many(SimTime when, std::uint64_t violations,
                                   std::uint64_t total) {
  (void)when;  // observations always land in the currently open tick
  pending_total_ += total;
  pending_violations_ += violations;
}

bool BurnRateMonitor::evaluate(SimTime now) {
  // Windows only rotate here, so everything observed since the previous
  // evaluate() belongs to the still-open tick.
  if (pending_total_ != 0) {
    fast_.add(pending_violations_, pending_total_);
    slow_.add(pending_violations_, pending_total_);
    pending_violations_ = 0;
    pending_total_ = 0;
  }
  const auto tick_index = static_cast<std::int64_t>(now / tick_ + 1e-9);
  while (current_tick_ < tick_index) {
    fast_.advance();
    slow_.advance();
    ++current_tick_;
  }
  fast_burn_ = fast_.burn(budget_);
  slow_burn_ = slow_.burn(budget_);

  bool edge = false;
  if (!firing_ && fast_burn_ >= config_.fire_threshold &&
      slow_burn_ >= config_.fire_threshold) {
    firing_ = true;
    edge = true;
    ++alerts_fired_;
    if (first_alert_at_ < 0.0) first_alert_at_ = now;
  } else if (firing_ && fast_burn_ < config_.clear_threshold) {
    firing_ = false;
    edge = true;
  }
  if (edge) {
    BurnAlertEvent event;
    event.at = now;
    event.fired = firing_;
    event.fast_burn = fast_burn_;
    event.slow_burn = slow_burn_;
    events_.push_back(event);
  }
  return edge;
}

Duration BurnRateMonitor::alert_active_seconds(SimTime end) const noexcept {
  Duration active = 0.0;
  SimTime fired_at = -1.0;
  for (const auto& event : events_) {
    if (event.fired) {
      fired_at = event.at;
    } else if (fired_at >= 0.0) {
      active += event.at - fired_at;
      fired_at = -1.0;
    }
  }
  if (fired_at >= 0.0 && end > fired_at) active += end - fired_at;
  return active;
}

}  // namespace protean::telemetry
