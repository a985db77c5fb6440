#include "telemetry/pipeline.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "common/json.h"
#include "obs/trace.h"

namespace protean::telemetry {
namespace {

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

constexpr double kLatencyAlpha = 0.01;

}  // namespace

std::optional<TelemetryOptions> TelemetryOptions::parse(
    const std::string& spec) {
  TelemetryOptions out;
  const std::size_t colon = spec.rfind(':');
  const std::string path =
      colon == std::string::npos ? spec : spec.substr(0, colon);
  if (path.empty()) return std::nullopt;
  out.path = path;
  if (colon == std::string::npos) return out;
  const std::string interval = spec.substr(colon + 1);
  char* end = nullptr;
  const double value = std::strtod(interval.c_str(), &end);
  if (interval.empty() || end == nullptr || *end != '\0' || value <= 0.0 ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  out.interval = value;
  return out;
}

TelemetryOptions TelemetryOptions::with_index(std::size_t index) const {
  TelemetryOptions out = *this;
  if (path.empty()) return out;
  const std::size_t slash = path.rfind('/');
  std::size_t dot = path.rfind('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    dot = path.size();
  }
  out.path =
      path.substr(0, dot) + "-" + std::to_string(index) + path.substr(dot);
  return out;
}

TelemetryPipeline::TelemetryPipeline(sim::Simulator& simulator,
                                     const TelemetryOptions& options,
                                     const BurnRateConfig& burn_config,
                                     obs::Tracer* tracer)
    : sim_(simulator),
      options_(options),
      monitor_(burn_config, options.interval),
      tracer_(tracer) {
  // An empty path is the file-less mode (autoscale control loop without
  // --telemetry): everything runs, nothing is written.
  strict_latency_ =
      registry_.summary("request_latency_seconds{class=\"strict\"}",
                        kLatencyAlpha, {0.5, 0.95, 0.99});
  be_latency_ = registry_.summary("request_latency_seconds{class=\"be\"}",
                                  kLatencyAlpha, {0.5, 0.95, 0.99});
  // Gauges are pure reads of pipeline/monitor state; the scrape routine
  // refreshes the monitor before the registry walk and resets the
  // attainment window after it.
  registry_.gauge("slo_window_attainment_pct", [this] {
    if (window_strict_total_ == 0) return 100.0;
    return 100.0 * static_cast<double>(window_strict_ok_) /
           static_cast<double>(window_strict_total_);
  });
  registry_.gauge("slo_burn_rate_fast", [this] { return monitor_.fast_burn(); });
  registry_.gauge("slo_burn_rate_slow", [this] { return monitor_.slow_burn(); });
  registry_.gauge("slo_alert_active",
                  [this] { return monitor_.firing() ? 1.0 : 0.0; });
  registry_.gauge("slo_alerts_total", [this] {
    return static_cast<double>(monitor_.alerts_fired());
  });
  task_ = std::make_unique<sim::PeriodicTask>(
      sim_, options_.interval, [this] { scrape(sim_.now()); });
}

TelemetryPipeline::~TelemetryPipeline() = default;

void TelemetryPipeline::observe_batch(SimTime when, bool strict,
                                      double lat_first, double lat_last,
                                      int count, double slo) {
  if (count <= 0) return;
  if (!strict) {
    for (int i = 0; i < count; ++i) {
      const double frac =
          count == 1 ? 0.0
                     : static_cast<double>(i) / static_cast<double>(count - 1);
      be_latency_->observe(lat_first + (lat_last - lat_first) * frac);
    }
    return;
  }
  // Same ramp (bit-identical expression) as Collector::record, so the
  // summaries and compliance counts agree exactly with the collector's.
  std::uint64_t ok = 0;
  for (int i = 0; i < count; ++i) {
    const double frac =
        count == 1 ? 0.0
                   : static_cast<double>(i) / static_cast<double>(count - 1);
    const double lat = lat_first + (lat_last - lat_first) * frac;
    strict_latency_->observe(lat);
    if (lat <= slo + 1e-9) ++ok;
  }
  const auto total = static_cast<std::uint64_t>(count);
  window_strict_total_ += total;
  window_strict_ok_ += ok;
  monitor_.observe_many(when, /*violations=*/total - ok, total);
}

void TelemetryPipeline::observe_request(SimTime when, bool strict,
                                        double latency_s, bool compliant) {
  if (strict) {
    strict_latency_->observe(latency_s);
    ++window_strict_total_;
    if (compliant) ++window_strict_ok_;
    monitor_.observe(when, /*violated=*/!compliant);
  } else {
    be_latency_->observe(latency_s);
  }
}

void TelemetryPipeline::scrape(SimTime now) {
  const bool edge = monitor_.evaluate(now);
  if (registry_.plan_version() != plan_version_) {
    // Instrument set changed: re-render the escaped `"name":` fragments
    // (names repeat every scrape; escaping them once keeps the scrape
    // itself allocation-light).
    plan_version_ = registry_.plan_version();
    const auto& names = registry_.sample_names();
    json_keys_.clear();
    json_keys_.reserve(names.size());
    for (const auto& name : names) {
      std::string key(1, '"');
      append_json_escaped(key, name);
      key += "\":";
      json_keys_.push_back(std::move(key));
    }
  }
  registry_.scrape_values(&values_);

  if (options_.enabled()) {
    // File-less mode skips the JSONL render entirely — nothing is ever
    // written, so buffering would only grow memory on long runs.
    std::string line;
    line.reserve(64 + values_.size() * 48);
    line += "{\"t\":" + format_double(now) + ",\"metrics\":{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (i != 0) line += ',';
      line += json_keys_[i];
      line += format_double(values_[i]);
    }
    line += "}}";
    lines_.push_back(std::move(line));
  }

  if (edge) {
    const BurnAlertEvent& event = monitor_.events().back();
    // The attribution enrichment names the cause currently dominating the
    // violation tally — the on-call answer to "why is this alert firing".
    const std::string cause = dominant_cause_ ? dominant_cause_() : "";
    if (options_.enabled()) {
      std::string alert = "{\"t\":" + format_double(now) +
                          ",\"event\":\"slo_burn_alert\",\"state\":\"";
      alert += event.fired ? "firing" : "cleared";
      alert += "\",\"fast_burn\":" + format_double(event.fast_burn) +
               ",\"slow_burn\":" + format_double(event.slow_burn);
      if (!cause.empty()) {
        alert += ",\"dominant_cause\":\"" + cause + "\"";
      }
      alert += "}";
      lines_.push_back(std::move(alert));
    }
    if (tracer_ != nullptr) {
      if (cause.empty()) {
        tracer_->instant(obs::kSpans, "slo_burn_alert", /*pid=*/0,
                         {{"state", event.fired ? "firing" : "cleared"},
                          {"fast_burn", event.fast_burn},
                          {"slow_burn", event.slow_burn}});
      } else {
        tracer_->instant(obs::kSpans, "slo_burn_alert", /*pid=*/0,
                         {{"state", event.fired ? "firing" : "cleared"},
                          {"fast_burn", event.fast_burn},
                          {"slow_burn", event.slow_burn},
                          {"dominant_cause", cause}});
      }
    }
  }

  // Keep the raw values; write_files() renders the final scrape's
  // OpenMetrics snapshot from them (building it every scrape would be
  // wasted work on the hot path).
  last_values_ = values_;

  // The control-loop hook runs on the still-open window; skipped on the
  // finish() scrape so no autoscale action fires after the run.
  if (scrape_listener_ && !finished_) {
    const double attainment =
        window_strict_total_ == 0
            ? 100.0
            : 100.0 * static_cast<double>(window_strict_ok_) /
                  static_cast<double>(window_strict_total_);
    scrape_listener_(now, attainment, window_strict_total_);
  }

  // The attainment gauge covered [previous scrape, now); start a fresh
  // window (the latency summaries reset inside MetricsRegistry::scrape).
  window_strict_total_ = 0;
  window_strict_ok_ = 0;
  ++scrapes_;
}

void TelemetryPipeline::finish(SimTime end) {
  PROTEAN_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;
  task_->stop();
  scrape(end);
  // Snapshot the final scrape's names for the const .om renderer.
  last_names_ = registry_.sample_names();
}

std::string TelemetryPipeline::render_exposition() const {
  const auto types = registry_.type_map();
  std::string om;
  std::string last_base;
  for (std::size_t i = 0; i < last_names_.size(); ++i) {
    const std::string& name = last_names_[i];
    const double value = i < last_values_.size() ? last_values_[i] : 0.0;
    std::string base = base_name(name);
    // `_count`/`_sum` samples belong to their summary family.
    for (const char* suffix : {"_count", "_sum"}) {
      const std::size_t len = std::string(suffix).size();
      if (types.find(base) == types.end() && base.size() > len &&
          base.compare(base.size() - len, len, suffix) == 0) {
        const std::string stripped = base.substr(0, base.size() - len);
        if (types.find(stripped) != types.end()) base = stripped;
      }
    }
    if (base != last_base) {
      const auto it = types.find(base);
      if (it != types.end()) {
        om += "# TYPE " + base + " " + it->second + "\n";
      }
      last_base = base;
    }
    om += name + " " + format_double(value) + "\n";
  }
  om += "# EOF\n";
  return om;
}

bool TelemetryPipeline::write_files() const {
  PROTEAN_CHECK_MSG(finished_, "write_files() before finish()");
  if (!options_.enabled()) return true;  // file-less mode: nothing to write
  std::string body;
  for (const auto& line : lines_) {
    body += line;
    body += '\n';
  }
  return write_text_file(options_.path, body) &&
         write_text_file(options_.path + ".om", render_exposition());
}

BurnSummary TelemetryPipeline::burn_summary() const {
  BurnSummary out;
  out.alerts_fired = monitor_.alerts_fired();
  out.first_alert_at = monitor_.first_alert_at();
  out.alert_active_seconds = monitor_.alert_active_seconds(sim_.now());
  return out;
}

}  // namespace protean::telemetry
