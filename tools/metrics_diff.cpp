// metrics_diff — compare two telemetry JSONL dumps.
//
//   protean_sim --telemetry a.jsonl ...   # run A
//   protean_sim --telemetry b.jsonl ...   # run B
//   metrics_diff a.jsonl b.jsonl                    # exact comparison
//   metrics_diff a.jsonl b.jsonl --rel-tol 1e-3     # CI golden-file check
//
// Scrape lines ({"t":..,"metrics":{..}}) are aligned by scrape index and
// compared per metric; alert-event lines are compared for exact structural
// equality (state sequence) but their burn values obey the tolerances.
// Exit 0 when every sample is within tolerance, 1 on any drift or
// structural mismatch (missing metric, extra scrape), 2 on usage errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"

namespace {

using protean::Json;

struct Sample {
  double t = 0.0;
  double value = 0.0;
};

struct AlertEvent {
  double t = 0.0;
  std::string state;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::string dominant_cause;  ///< present on attribution-enabled runs
};

struct Dump {
  // Metric name -> one sample per scrape it appeared in, in file order.
  std::map<std::string, std::vector<Sample>> series;
  std::vector<AlertEvent> alerts;
  std::size_t scrapes = 0;
};

// Folds one line of pipeline output into `dump`. A line is either a scrape,
// {"t":T,"metrics":{NAME:NUMBER,...}}, or an alert,
// {"t":T,"event":"slo_burn_alert",...} whose fields are numbers except the
// string-valued state and dominant_cause. Returns false on anything else.
bool fold_line(const std::string& line, Dump& dump) {
  const std::optional<Json> doc = Json::parse(line);
  const Json::Object* fields = doc ? doc->as_object() : nullptr;
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
      dump.series[name].push_back({*t, *v});
    }
    ++dump.scrapes;
    return true;
  }

  const std::string* event = body.as_string();
  if (kind != "event" || event == nullptr || *event != "slo_burn_alert") {
    return false;
  }
  AlertEvent alert;
  alert.t = *t;
  for (std::size_t i = 2; i < fields->size(); ++i) {
    const auto& [field, value] = (*fields)[i];
    if (field == "state" || field == "dominant_cause") {
      // dominant_cause appears only when the run had attribution enabled.
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
  dump.alerts.push_back(std::move(alert));
  return true;
}

std::optional<Dump> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Dump dump;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!fold_line(line, dump)) {
      std::fprintf(stderr, "metrics_diff: %s:%zu: unparseable line\n",
                   path.c_str(), line_no);
      return std::nullopt;
    }
  }
  return dump;
}

// --- comparison ---------------------------------------------------------

struct Tolerance {
  double abs = 0.0;
  double rel = 0.0;

  bool within(double a, double b) const {
    const double delta = std::fabs(a - b);
    return delta <= abs + rel * std::max(std::fabs(a), std::fabs(b));
  }
};

struct MetricDelta {
  std::string name;
  double max_delta = 0.0;
  double mean_delta = 0.0;
  std::size_t samples = 0;
  std::size_t out_of_tolerance = 0;
};

void usage(std::FILE* out) {
  std::fputs(
      "usage: metrics_diff A.jsonl B.jsonl [--abs-tol X] [--rel-tol Y]\n"
      "                    [--show N] [--top-causes N]\n"
      "  --abs-tol X      absolute tolerance per sample (default 0)\n"
      "  --rel-tol Y      relative tolerance per sample (default 0)\n"
      "  --show N         print at most N offending metrics (default 20)\n"
      "  --top-causes N   also print each dump's top-N violation causes\n"
      "                   (final attr_violations_total{cause=...} samples)\n",
      out);
}

// Final-sample cause ranking of one dump's attribution series (empty when
// the run had no --attr).
std::vector<std::pair<std::string, double>> top_causes(const Dump& dump) {
  std::vector<std::pair<std::string, double>> causes;
  const std::string prefix = "attr_violations_total{cause=\"";
  for (const auto& [name, samples] : dump.series) {
    if (name.rfind(prefix, 0) != 0 || samples.empty()) continue;
    const std::size_t open = prefix.size();
    const std::size_t close = name.find('"', open);
    if (close == std::string::npos) continue;
    causes.emplace_back(name.substr(open, close - open),
                        samples.back().value);
  }
  std::stable_sort(causes.begin(), causes.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  return causes;
}

void print_top_causes(const char* path, const Dump& dump, std::size_t n) {
  const auto causes = top_causes(dump);
  if (causes.empty()) {
    std::printf("%s: no attribution series\n", path);
    return;
  }
  std::printf("%s top causes:\n", path);
  for (std::size_t i = 0; i < causes.size() && i < n; ++i) {
    if (causes[i].second <= 0.0) break;
    std::printf("  %2zu. %-13s %.0f\n", i + 1, causes[i].first.c_str(),
                causes[i].second);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  Tolerance tol;
  std::size_t show = 20;
  std::size_t causes_n = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> std::optional<double> {
      if (i + 1 >= argc) return std::nullopt;
      char* end = nullptr;
      const double v = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0') return std::nullopt;
      return v;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--abs-tol") {
      const auto v = next_value();
      if (!v || *v < 0.0) { usage(stderr); return 2; }
      tol.abs = *v;
    } else if (arg == "--rel-tol") {
      const auto v = next_value();
      if (!v || *v < 0.0) { usage(stderr); return 2; }
      tol.rel = *v;
    } else if (arg == "--show") {
      const auto v = next_value();
      if (!v || *v < 0.0) { usage(stderr); return 2; }
      show = static_cast<std::size_t>(*v);
    } else if (arg == "--top-causes") {
      const auto v = next_value();
      if (!v || *v < 1.0) { usage(stderr); return 2; }
      causes_n = static_cast<std::size_t>(*v);
    } else if (arg.rfind("--", 0) == 0) {
      usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    usage(stderr);
    return 2;
  }

  const auto a = load(paths[0]);
  const auto b = load(paths[1]);
  if (!a || !b) {
    if (!a) std::fprintf(stderr, "metrics_diff: cannot read %s\n",
                         paths[0].c_str());
    if (!b) std::fprintf(stderr, "metrics_diff: cannot read %s\n",
                         paths[1].c_str());
    return 1;
  }

  bool structural_ok = true;
  if (a->scrapes != b->scrapes) {
    std::fprintf(stderr, "scrape count differs: %zu vs %zu\n", a->scrapes,
                 b->scrapes);
    structural_ok = false;
  }
  for (const auto& [name, samples] : a->series) {
    const auto it = b->series.find(name);
    if (it == b->series.end()) {
      std::fprintf(stderr, "metric only in %s: %s\n", paths[0].c_str(),
                   name.c_str());
      structural_ok = false;
    } else if (it->second.size() != samples.size()) {
      std::fprintf(stderr, "sample count differs for %s: %zu vs %zu\n",
                   name.c_str(), samples.size(), it->second.size());
      structural_ok = false;
    }
  }
  for (const auto& [name, samples] : b->series) {
    if (a->series.find(name) == a->series.end()) {
      std::fprintf(stderr, "metric only in %s: %s\n", paths[1].c_str(),
                   name.c_str());
      structural_ok = false;
    }
  }

  // Alert streams must agree on shape and state order; burn values drift
  // within the numeric tolerance like any other sample.
  bool alerts_ok = a->alerts.size() == b->alerts.size();
  if (alerts_ok) {
    for (std::size_t i = 0; i < a->alerts.size(); ++i) {
      const auto& ea = a->alerts[i];
      const auto& eb = b->alerts[i];
      if (ea.state != eb.state || ea.dominant_cause != eb.dominant_cause ||
          !tol.within(ea.t, eb.t) ||
          !tol.within(ea.fast_burn, eb.fast_burn) ||
          !tol.within(ea.slow_burn, eb.slow_burn)) {
        alerts_ok = false;
        break;
      }
    }
  }
  if (!alerts_ok) {
    std::fprintf(stderr, "alert event streams differ (%zu vs %zu events)\n",
                 a->alerts.size(), b->alerts.size());
  }

  std::vector<MetricDelta> offenders;
  std::size_t compared = 0;
  double global_max = 0.0;
  for (const auto& [name, sa] : a->series) {
    const auto it = b->series.find(name);
    if (it == b->series.end()) continue;
    const auto& sb = it->second;
    const std::size_t n = std::min(sa.size(), sb.size());
    MetricDelta delta;
    delta.name = name;
    delta.samples = n;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = std::fabs(sa[i].value - sb[i].value);
      total += d;
      delta.max_delta = std::max(delta.max_delta, d);
      if (!tol.within(sa[i].value, sb[i].value)) ++delta.out_of_tolerance;
    }
    delta.mean_delta = n > 0 ? total / static_cast<double>(n) : 0.0;
    global_max = std::max(global_max, delta.max_delta);
    compared += n;
    if (delta.out_of_tolerance > 0) offenders.push_back(std::move(delta));
  }

  std::printf("compared %zu samples across %zu metrics (%zu scrapes)\n",
              compared, a->series.size(), a->scrapes);
  std::printf("max |delta| = %g\n", global_max);
  if (!offenders.empty()) {
    std::printf("%zu metric(s) out of tolerance (abs %g, rel %g):\n",
                offenders.size(), tol.abs, tol.rel);
    for (std::size_t i = 0; i < offenders.size() && i < show; ++i) {
      const auto& o = offenders[i];
      std::printf("  %-48s max %-12g mean %-12g (%zu/%zu samples)\n",
                  o.name.c_str(), o.max_delta, o.mean_delta,
                  o.out_of_tolerance, o.samples);
    }
    if (offenders.size() > show) {
      std::printf("  ... and %zu more\n", offenders.size() - show);
    }
  }

  if (causes_n > 0) {
    print_top_causes(paths[0].c_str(), *a, causes_n);
    print_top_causes(paths[1].c_str(), *b, causes_n);
  }

  if (!structural_ok || !alerts_ok || !offenders.empty()) return 1;
  std::printf("dumps match within tolerance\n");
  return 0;
}
