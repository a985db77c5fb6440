// metrics_diff — compare two telemetry JSONL dumps.
//
//   protean_sim --telemetry a.jsonl ...   # run A
//   protean_sim --telemetry b.jsonl ...   # run B
//   metrics_diff a.jsonl b.jsonl                    # exact comparison
//   metrics_diff a.jsonl b.jsonl --rel-tol 1e-3     # CI golden-file check
//   slo_explain a.jsonl --top 5                     # rank violation causes
//
// Both dumps are read by telemetry::parse_timeline. Scrape lines
// ({"t":..,"metrics":{..}}) are aligned by scrape index and compared per
// metric; alert-event lines are compared for exact structural equality
// (state sequence) but their burn values obey the tolerances.
// Exit 0 when every sample is within tolerance, 1 on any drift or
// structural mismatch (missing metric, extra scrape), 2 on usage errors.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "telemetry/pipeline.h"

namespace {

// Reads one dump through the shared timeline reader. Reports an unreadable
// file, or a malformed line with its number, in one stderr line.
std::optional<protean::telemetry::Timeline> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "metrics_diff: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  protean::telemetry::TimelineError error;
  auto timeline = protean::telemetry::parse_timeline(text.str(), &error);
  if (!timeline) {
    std::fprintf(stderr, "metrics_diff: %s:%zu: unparseable line\n",
                 path.c_str(), error.line);
  }
  return timeline;
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
      "                    [--show N]\n"
      "  --abs-tol X      absolute tolerance per sample (default 0)\n"
      "  --rel-tol Y      relative tolerance per sample (default 0)\n"
      "  --show N         print at most N offending metrics (default 20)\n"
      "Rank a dump's violation causes with slo_explain FILE --top N.\n",
      out);
}
}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  Tolerance tol;
  std::size_t show = 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> std::optional<double> {
      if (i + 1 >= argc) return std::nullopt;
      char* end = nullptr;
      const double v = std::strtod(argv[++i], &end);
      if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
        return std::nullopt;
      }
      return v;
    };
    // A count must be a whole integer: "2.5", "1e30" and "nan" are usage
    // errors, not a truncated or out-of-range cast.
    const auto next_count = [&]() -> std::optional<std::uint64_t> {
      if (i + 1 >= argc) return std::nullopt;
      return protean::parse_count(argv[++i]);
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
      const auto n = next_count();
      if (!n) { usage(stderr); return 2; }
      show = *n;
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
  if (!a || !b) return 1;

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

  if (!structural_ok || !alerts_ok || !offenders.empty()) return 1;
  std::printf("dumps match within tolerance\n");
  return 0;
}
