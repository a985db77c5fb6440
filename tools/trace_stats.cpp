// trace_stats — summarize and audit a protean_sim span trace.
//
//   protean_sim --scheme protean --trace run.json
//   trace_stats run.json            # deterministic roll-up of the event stream
//   trace_stats run.json --check    # + replay invariants against the embedded
//                                   #   collector aggregates; exit 1 on drift
//   trace_stats run.json --top-causes 5
//                                   # + ranked SLO-violation causes from the
//                                   #   embedded attr_cause_* aggregates
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/check.h"

namespace {

void usage(std::FILE* out) {
  std::fputs("usage: trace_stats FILE [--check] [--top-causes N]\n", out);
}

// Ranked violation causes from the embedded attr_cause_* aggregates
// (present only on --attr runs).
void print_top_causes(const protean::obs::ParsedTrace& trace,
                      std::size_t n) {
  std::vector<std::pair<std::string, double>> causes;
  for (const auto& [key, value] : trace.collector) {
    if (key.rfind("attr_cause_", 0) == 0) {
      causes.emplace_back(key.substr(std::strlen("attr_cause_")), value);
    }
  }
  if (causes.empty()) {
    std::printf("top causes:        (no attribution aggregates)\n");
    return;
  }
  std::stable_sort(causes.begin(), causes.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  std::printf("top causes:\n");
  for (std::size_t i = 0; i < causes.size() && i < n; ++i) {
    if (causes[i].second <= 0.0) break;
    std::printf("  %2zu. %-13s %.0f\n", i + 1, causes[i].first.c_str(),
                causes[i].second);
  }
}

void print_stats(const protean::obs::ParsedTrace& trace,
                 const protean::obs::TraceStats& stats) {
  std::printf("events:            %zu\n", stats.events);
  for (const auto& [ph, count] : stats.by_phase) {
    std::printf("  ph %-4s          %zu\n", ph.c_str(), count);
  }
  std::printf("complete spans:    %zu\n", stats.complete_spans);
  std::printf("counter samples:   %zu\n", stats.counter_samples);
  std::printf("sched decisions:   %zu\n", stats.decisions);
  if (!stats.async_begins.empty()) {
    std::printf("async spans:\n");
    for (const auto& [name, count] : stats.async_begins) {
      std::printf("  %-16s %zu\n", name.c_str(), count);
    }
  }
  if (!stats.instants.empty()) {
    std::printf("instants:\n");
    for (const auto& [name, count] : stats.instants) {
      std::printf("  %-16s %zu\n", name.c_str(), count);
    }
  }
  std::printf("span window:       [%.6f s, %.6f s]\n",
              stats.first_ts_us / 1e6, stats.last_ts_us / 1e6);
  std::printf("busy union:        %.6f s\n", stats.busy_union_seconds);
  for (const auto& [pid, seconds] : stats.busy_by_pid) {
    std::printf("  pid %-4d         %.6f s\n", pid, seconds);
  }
  std::printf("reconfigure time:  %.6f s\n", stats.reconfigure_seconds);
  if (!trace.collector.empty()) {
    std::printf("collector aggregates:\n");
    for (const auto& [key, value] : trace.collector) {
      std::printf("  %-16s %.6f\n", key.c_str(), value);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool check = false;
  std::size_t causes_n = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--top-causes") == 0) {
      if (i + 1 >= argc) { usage(stderr); return 2; }
      // The whole argument must be a positive integer: "5x" is a usage
      // error, not 5.
      const char* v = argv[++i];
      const char* end = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, end, causes_n);
      if (ec != std::errc{} || ptr != end || causes_n == 0) {
        usage(stderr);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return 0;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      usage(stderr);
      return 2;
    }
  }
  if (path.empty()) {
    usage(stderr);
    return 2;
  }

  std::string error;
  const auto trace = protean::obs::parse_trace_file(path, &error);
  if (!trace) {
    std::fprintf(stderr, "trace_stats: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  print_stats(*trace, protean::obs::compute_stats(*trace));
  if (causes_n > 0) print_top_causes(*trace, causes_n);

  if (check) {
    const auto result = protean::obs::check_invariants(*trace);
    std::printf("invariants:\n");
    for (const auto& line : result.checked) {
      std::printf("  ok    %s\n", line.c_str());
    }
    for (const auto& line : result.failures) {
      std::printf("  FAIL  %s\n", line.c_str());
    }
    if (!result.ok) {
      std::fprintf(stderr, "trace_stats: %zu invariant(s) violated\n",
                   result.failures.size());
      return 1;
    }
    std::printf("all invariants hold (%zu checked)\n", result.checked.size());
  }
  return 0;
}
