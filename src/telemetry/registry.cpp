#include "telemetry/registry.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace protean::telemetry {

std::string base_name(const std::string& metric_name) {
  const auto brace = metric_name.find('{');
  return brace == std::string::npos ? metric_name
                                    : metric_name.substr(0, brace);
}

void MetricsRegistry::check_fresh(const std::string& name) const {
  PROTEAN_CHECK_MSG(counters_.find(name) == counters_.end() &&
                        gauges_.find(name) == gauges_.end() &&
                        summaries_.find(name) == summaries_.end(),
                    "duplicate metric registration");
}

Counter* MetricsRegistry::counter(const std::string& name) {
  check_fresh(name);
  auto [it, inserted] = counters_.emplace(name, std::make_unique<Counter>());
  PROTEAN_DCHECK(inserted);
  plan_dirty_ = true;
  return it->second.get();
}

void MetricsRegistry::gauge(const std::string& name, GaugeFn fn) {
  check_fresh(name);
  PROTEAN_CHECK_MSG(static_cast<bool>(fn), "null gauge callback");
  gauges_.emplace(name, std::move(fn));
  plan_dirty_ = true;
}

Summary* MetricsRegistry::summary(const std::string& name, double alpha,
                                  std::vector<double> quantiles) {
  check_fresh(name);
  PROTEAN_CHECK_MSG(!quantiles.empty(), "summary needs at least one quantile");
  SummaryEntry entry;
  entry.summary = std::make_unique<Summary>(alpha);
  entry.quantiles = std::move(quantiles);
  auto [it, inserted] = summaries_.emplace(name, std::move(entry));
  PROTEAN_DCHECK(inserted);
  plan_dirty_ = true;
  return it->second.summary.get();
}

namespace {
std::string quantile_label(const std::string& name, double q) {
  // Render the quantile with up to 3 decimals, trimming trailing zeros so
  // 0.5 -> "0.5" and 0.99 -> "0.99" (deterministic, locale-free).
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.3f", q);
  std::string text(buf);
  while (!text.empty() && text.back() == '0') text.pop_back();
  if (!text.empty() && text.back() == '.') text.push_back('0');
  const std::string label = "quantile=\"" + text + "\"";
  if (!name.empty() && name.back() == '}') {
    // Merge into the existing label block.
    return name.substr(0, name.size() - 1) + "," + label + "}";
  }
  return name + "{" + label + "}";
}

std::string with_suffix(const std::string& name, const char* suffix) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}
}  // namespace

void MetricsRegistry::rebuild_plan() {
  plan_.clear();
  plan_.reserve(counters_.size() + gauges_.size() +
                3 * summaries_.size());
  using Kind = PlanItem::Kind;
  for (const auto& [name, counter] : counters_) {
    plan_.push_back({name, Kind::kCounter, counter.get(), nullptr, nullptr});
  }
  for (const auto& [name, fn] : gauges_) {
    plan_.push_back({name, Kind::kGauge, nullptr, &fn, nullptr});
  }
  for (const auto& [name, entry] : summaries_) {
    const Summary* summary = entry.summary.get();
    for (double q : entry.quantiles) {
      plan_.push_back({quantile_label(name, q), Kind::kSummaryQuantile,
                       nullptr, nullptr, summary, q});
    }
    plan_.push_back({with_suffix(name, "_count"), Kind::kSummaryCount,
                     nullptr, nullptr, summary});
    plan_.push_back({with_suffix(name, "_sum"), Kind::kSummarySum, nullptr,
                     nullptr, summary});
  }
  std::sort(plan_.begin(), plan_.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  names_.clear();
  names_.reserve(plan_.size());
  for (const auto& item : plan_) names_.push_back(item.name);
  ++plan_version_;
  plan_dirty_ = false;
}

std::uint64_t MetricsRegistry::plan_version() {
  if (plan_dirty_) rebuild_plan();
  return plan_version_;
}

const std::vector<std::string>& MetricsRegistry::sample_names() {
  if (plan_dirty_) rebuild_plan();
  return names_;
}

void MetricsRegistry::scrape_values(std::vector<double>* out) {
  if (plan_dirty_) rebuild_plan();
  out->clear();
  out->reserve(plan_.size());
  for (const auto& item : plan_) {
    double value = 0.0;
    switch (item.kind) {
      case PlanItem::Kind::kCounter:
        value = static_cast<double>(item.counter->value());
        break;
      case PlanItem::Kind::kGauge:
        value = (*item.gauge)();
        break;
      case PlanItem::Kind::kSummaryQuantile:
        value = item.summary->window().quantile(item.q);
        break;
      case PlanItem::Kind::kSummaryCount:
        value = static_cast<double>(item.summary->total_count());
        break;
      case PlanItem::Kind::kSummarySum:
        value = item.summary->total_sum();
        break;
    }
    out->push_back(value);
  }
  for (auto& [name, entry] : summaries_) entry.summary->reset_window();
}

std::map<std::string, std::string> MetricsRegistry::type_map() const {
  std::map<std::string, std::string> out;
  for (const auto& [name, _] : counters_) out.emplace(base_name(name), "counter");
  for (const auto& [name, _] : gauges_) out.emplace(base_name(name), "gauge");
  for (const auto& [name, _] : summaries_) {
    out.emplace(base_name(name), "summary");
  }
  return out;
}

}  // namespace protean::telemetry
