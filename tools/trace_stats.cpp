// trace_stats — summarize and audit a protean_sim span trace.
//
//   protean_sim --scheme protean --trace run.json
//   trace_stats run.json            # deterministic roll-up of the event stream
//   trace_stats run.json --check    # + replay invariants against the embedded
//                                   #   collector aggregates; exit 1 on drift
//   slo_explain run.json --top 5    # ranked SLO-violation causes from the
//                                   #   embedded attr_cause_* aggregates
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/check.h"

namespace {

void usage(std::FILE* out) {
  std::fputs("usage: trace_stats FILE [--check]\n"
             "Rank violation causes with slo_explain FILE --top N.\n",
             out);
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
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
