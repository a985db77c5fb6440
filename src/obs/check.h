// Trace replay: parse a trace file back, summarize it, and cross-check the
// span stream against the Collector aggregates embedded by the harness.
//
// The invariant checker is the audit half of the tracing layer: busy "X"
// spans must union to exactly the busy-seconds the Gpu integrals report,
// and lifecycle instants (cold_start / retry / hedge / lost) must count to
// the Collector totals. A drift in either direction means the metrics path
// and the event path disagree about what the simulation did.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace protean::obs {

/// One trace event, decoded from the Chrome trace-event JSON.
struct ParsedEvent {
  std::string ph;    ///< "X", "b", "e", "i", "C", "M"
  std::string name;
  std::string cat;
  int pid = 0;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< "X" events only
  std::string id;       ///< async events only
  std::map<std::string, double> num_args;
  std::map<std::string, std::string> str_args;
};

struct ParsedTrace {
  std::vector<ParsedEvent> events;
  std::map<std::string, double> collector;  ///< embedded aggregates
  unsigned categories = 0;                  ///< Category bitmask recorded
};

/// Parses a trace document produced by Tracer::to_json(). Accepts any
/// JSON-object trace with a "traceEvents" array, read through the shared
/// Json::parse. Returns nullopt and fills `error` on malformed input.
std::optional<ParsedTrace> parse_trace_json(const std::string& text,
                                            std::string* error = nullptr);

/// Convenience: read `path` and parse it.
std::optional<ParsedTrace> parse_trace_file(const std::string& path,
                                            std::string* error = nullptr);

/// Roll-up used by tools/trace_stats.
struct TraceStats {
  std::size_t events = 0;
  std::map<std::string, std::size_t> by_phase;       ///< ph -> count
  std::map<std::string, std::size_t> instants;       ///< name -> count
  std::map<std::string, std::size_t> async_begins;   ///< name -> count
  std::size_t complete_spans = 0;
  std::size_t counter_samples = 0;
  std::size_t decisions = 0;             ///< "sched" instants
  double busy_union_seconds = 0.0;       ///< sum over pids of merged "busy"
  std::map<int, double> busy_by_pid;     ///< per-process busy union, seconds
  double reconfigure_seconds = 0.0;      ///< total "reconfigure" span time
  double first_ts_us = 0.0;
  double last_ts_us = 0.0;
};

TraceStats compute_stats(const ParsedTrace& trace);

struct CheckResult {
  bool ok = true;
  std::vector<std::string> failures;
  std::vector<std::string> checked;  ///< human-readable "name: lhs == rhs"
};

/// Replays the trace and cross-checks it against the embedded collector
/// block. Checks are skipped (not failed) when the trace was recorded with
/// the relevant category filtered out or the aggregate key is absent.
CheckResult check_invariants(const ParsedTrace& trace);

}  // namespace protean::obs
