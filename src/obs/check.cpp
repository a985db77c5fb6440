#include "obs/check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/json.h"
#include "obs/trace.h"

namespace protean::obs {
namespace {

/// Sum of the union of [start, end] intervals, in input units.
double interval_union(std::vector<std::pair<double, double>>& spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -1.0;
  bool open = false;
  for (const auto& [lo, hi] : spans) {
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

bool nearly_equal(double a, double b) {
  const double tol = 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol;
}

// pid/tid as an int; out-of-range numbers clamp rather than overflow the
// conversion.
int int_field(const Json& event, const char* key) {
  const double v = event.find(key).number_or(0.0);
  return static_cast<int>(std::clamp(
      v, static_cast<double>(std::numeric_limits<int>::min()),
      static_cast<double>(std::numeric_limits<int>::max())));
}

}  // namespace

std::optional<ParsedTrace> parse_trace_json(const std::string& text,
                                            std::string* error) {
  const std::optional<Json> root = Json::parse(text, error);
  if (!root) return std::nullopt;
  if (root->as_object() == nullptr) {
    if (error != nullptr) *error = "trace root is not an object";
    return std::nullopt;
  }
  const Json::Array* events = root->find("traceEvents").as_array();
  if (events == nullptr) {
    if (error != nullptr) *error = "missing traceEvents array";
    return std::nullopt;
  }

  ParsedTrace out;
  out.events.reserve(events->size());
  for (const Json& e : *events) {
    if (e.as_object() == nullptr) continue;
    ParsedEvent ev;
    if (const std::string* s = e.find("ph").as_string()) ev.ph = *s;
    if (const std::string* s = e.find("name").as_string()) ev.name = *s;
    if (const std::string* s = e.find("cat").as_string()) ev.cat = *s;
    ev.pid = int_field(e, "pid");
    ev.tid = int_field(e, "tid");
    ev.ts_us = e.find("ts").number_or(0.0);
    ev.dur_us = e.find("dur").number_or(0.0);
    if (const std::string* s = e.find("id").as_string()) ev.id = *s;
    if (const Json::Object* args = e.find("args").as_object()) {
      for (const auto& [k, v] : *args) {
        if (const double* num = v.as_number()) {
          ev.num_args[k] = *num;
        } else if (const std::string* str = v.as_string()) {
          ev.str_args[k] = *str;
        }
      }
    }
    out.events.push_back(std::move(ev));
  }

  if (const Json::Object* collector = root->find("collector").as_object()) {
    for (const auto& [k, v] : *collector) {
      if (const double* num = v.as_number()) out.collector[k] = *num;
    }
  }

  const std::string* cats = root->find("categories").as_string();
  if (cats == nullptr || cats->empty()) {
    // Traces from other producers carry no category note; assume complete.
    out.categories = kAllCategories;
  } else {
    std::size_t start = 0;
    while (start <= cats->size()) {
      std::size_t comma = cats->find(',', start);
      if (comma == std::string::npos) comma = cats->size();
      const std::string token = cats->substr(start, comma - start);
      if (token == "spans") out.categories |= kSpans;
      if (token == "counters") out.categories |= kCounters;
      if (token == "sched") out.categories |= kSched;
      start = comma + 1;
    }
  }
  return out;
}

std::optional<ParsedTrace> parse_trace_file(const std::string& path,
                                            std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_trace_json(text, error);
}

TraceStats compute_stats(const ParsedTrace& trace) {
  TraceStats stats;
  stats.events = trace.events.size();
  std::map<int, std::vector<std::pair<double, double>>> busy_spans;
  bool have_ts = false;
  for (const ParsedEvent& e : trace.events) {
    ++stats.by_phase[e.ph];
    if (e.ph == "M") continue;
    if (!have_ts || e.ts_us < stats.first_ts_us) stats.first_ts_us = e.ts_us;
    const double end = e.ts_us + (e.ph == "X" ? e.dur_us : 0.0);
    if (!have_ts || end > stats.last_ts_us) stats.last_ts_us = end;
    have_ts = true;
    if (e.ph == "i") {
      ++stats.instants[e.name];
      if (e.name == "sched") ++stats.decisions;
    } else if (e.ph == "b") {
      ++stats.async_begins[e.name];
    } else if (e.ph == "C") {
      ++stats.counter_samples;
    } else if (e.ph == "X") {
      ++stats.complete_spans;
      if (e.name == "busy") {
        busy_spans[e.pid].emplace_back(e.ts_us, e.ts_us + e.dur_us);
      } else if (e.name == "reconfigure") {
        stats.reconfigure_seconds += e.dur_us / 1e6;
      }
    }
  }
  for (auto& [pid, spans] : busy_spans) {
    const double secs = interval_union(spans) / 1e6;
    stats.busy_by_pid[pid] = secs;
    stats.busy_union_seconds += secs;
  }
  return stats;
}

CheckResult check_invariants(const ParsedTrace& trace) {
  CheckResult result;
  const TraceStats stats = compute_stats(trace);

  auto check = [&result](const std::string& name, double span_side,
                         double collector_side) {
    if (nearly_equal(span_side, collector_side)) {
      result.checked.push_back(name + ": " + format_double(span_side) +
                               " == " + format_double(collector_side));
    } else {
      result.ok = false;
      result.failures.push_back(name + ": trace says " +
                                format_double(span_side) +
                                ", collector says " +
                                format_double(collector_side));
    }
  };

  const bool have_spans = (trace.categories & kSpans) != 0;
  auto aggregate = [&trace](const char* key) -> std::optional<double> {
    auto it = trace.collector.find(key);
    if (it == trace.collector.end()) return std::nullopt;
    return it->second;
  };

  if (have_spans) {
    if (auto busy = aggregate("busy_seconds")) {
      check("busy_seconds (union of busy spans)", stats.busy_union_seconds,
            *busy);
    }
    auto count_of = [&stats](const char* name) {
      auto it = stats.instants.find(name);
      return it == stats.instants.end() ? 0.0
                                        : static_cast<double>(it->second);
    };
    if (auto v = aggregate("cold_starts")) {
      check("cold_starts (cold_start instants)", count_of("cold_start"), *v);
    }
    if (auto v = aggregate("retries")) {
      check("retries (retry instants)", count_of("retry"), *v);
    }
    if (auto v = aggregate("hedges")) {
      check("hedges (hedge instants)", count_of("hedge"), *v);
    }
    if (auto v = aggregate("lost_batches")) {
      check("lost_batches (lost instants)", count_of("lost"), *v);
    }
    // "drop" instants are viewer context only: the collector's dropped
    // counter is per *request* (batch.count) and also has a legacy
    // no-resilience path, so there is no batch-level aggregate to pin
    // them against.
  }

  // Attribution accounting health (keys present only on --attr runs).
  // Every classified violation lands in exactly one cause lane, so the
  // lanes must sum back to the violation total; the clamp and identity
  // counters are hard zeros on a healthy run — any other value means the
  // exact-decomposition contract broke somewhere upstream.
  if (auto total = aggregate("attr_violations")) {
    double lanes = 0.0;
    for (const auto& [key, value] : trace.collector) {
      if (key.rfind("attr_cause_", 0) == 0) lanes += value;
    }
    check("attr_violations (sum of attr_cause_* lanes)", lanes, *total);
  }
  if (auto clamps = aggregate("negative_component_clamps")) {
    check("negative_component_clamps (must be zero)", 0.0, *clamps);
  }
  if (auto idv = aggregate("attr_identity_violations")) {
    check("attr_identity_violations (must be zero)", 0.0, *idv);
  }

  // Structural sanity, independent of category filters.
  for (const ParsedEvent& e : trace.events) {
    if (e.ph == "X" && e.dur_us < 0.0) {
      result.ok = false;
      result.failures.push_back("negative duration on X span '" + e.name +
                                "' at ts " + format_double(e.ts_us));
    }
    if (e.ph != "M" && !std::isfinite(e.ts_us)) {
      result.ok = false;
      result.failures.push_back("non-finite timestamp on '" + e.name + "'");
    }
  }
  // Async begin/end balance per (cat, id, name).
  std::map<std::string, long> open;
  for (const ParsedEvent& e : trace.events) {
    if (e.ph != "b" && e.ph != "e") continue;
    const std::string key = e.cat + "/" + e.name + "/" + e.id;
    open[key] += e.ph == "b" ? 1 : -1;
  }
  for (const auto& [key, depth] : open) {
    if (depth < 0) {
      result.ok = false;
      result.failures.push_back("async end without begin: " + key);
    }
    // depth > 0 is legal: spans still open at the horizon (queued work).
  }
  return result;
}

}  // namespace protean::obs
