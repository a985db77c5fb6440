#include "telemetry/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "common/check.h"
#include "common/json.h"
#include "obs/trace.h"
#include "workload/latency.h"

namespace protean::telemetry {
namespace {

/// Writes `lines`, each followed by '\n', to `path`; false on any I/O
/// error. Streams them through stdio's buffer instead of joining a body.
bool write_lines(const std::string& path, std::span<const std::string> lines) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const std::string& line : lines) {
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
         std::fputc('\n', f) != EOF;
  }
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

constexpr double kLatencyAlpha = 0.01;

// Folds one parsed timeline line into `out`; false when it is neither a
// scrape nor an alert.
bool fold_line(const Json& doc, Timeline& out) {
  const Json::Object* fields = doc.as_object();
  if (fields == nullptr || fields->size() < 2 || (*fields)[0].first != "t") {
    return false;
  }
  const double* t = (*fields)[0].second.as_number();
  if (t == nullptr) return false;
  const auto& [kind, body] = (*fields)[1];

  if (kind == "metrics") {
    const Json::Object* metrics = body.as_object();
    if (metrics == nullptr || fields->size() != 2) return false;
    for (const auto& [name, value] : *metrics) {
      const double* v = value.as_number();
      if (v == nullptr) return false;
      out.series[name].push_back({*t, *v});
    }
    ++out.scrapes;
    return true;
  }

  const std::string* event = body.as_string();
  if (kind != "event" || event == nullptr || *event != "slo_burn_alert") {
    return false;
  }
  TimelineAlert alert;
  alert.t = *t;
  for (std::size_t i = 2; i < fields->size(); ++i) {
    const auto& [field, value] = (*fields)[i];
    if (field == "state" || field == "dominant_cause") {
      const std::string* text = value.as_string();
      if (text == nullptr) return false;
      (field == "state" ? alert.state : alert.dominant_cause) = *text;
    } else {
      const double* v = value.as_number();
      if (v == nullptr) return false;
      if (field == "fast_burn") alert.fast_burn = *v;
      if (field == "slow_burn") alert.slow_burn = *v;
    }
  }
  out.alerts.push_back(std::move(alert));
  return true;
}

}  // namespace

std::optional<Timeline> parse_timeline(std::string_view text,
                                       TimelineError* error) {
  Timeline out;
  std::size_t line_no = 0;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find('\n'), text.size());
    const std::string_view line = text.substr(0, end);
    text.remove_prefix(std::min(end + 1, text.size()));
    ++line_no;
    if (line.empty()) continue;
    std::string why;
    const std::optional<Json> doc = Json::parse(line, &why);
    if (!doc || !fold_line(*doc, out)) {
      if (error != nullptr) {
        error->line = line_no;
        error->why = doc ? "not a scrape or a burn alert" : why;
      }
      return std::nullopt;
    }
  }
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
  // Same ramp and verdict as Collector::record, so the summaries and
  // compliance counts agree exactly with the collector's.
  if (!strict) {
    for (int i = 0; i < count; ++i) {
      be_latency_->observe(
          workload::request_latency(lat_first, lat_last, i, count));
    }
    return;
  }
  std::uint64_t ok = 0;
  for (int i = 0; i < count; ++i) {
    const double lat = workload::request_latency(lat_first, lat_last, i, count);
    strict_latency_->observe(lat);
    if (workload::meets_slo(lat, slo)) ++ok;
  }
  const auto total = static_cast<std::uint64_t>(count);
  window_strict_total_ += total;
  window_strict_ok_ += ok;
  monitor_.observe_many(when, /*violations=*/total - ok, total);
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
  return write_lines(options_.path, lines_) &&
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
