// Offline attribution ingestion for tools/slo_explain.
//
// Reads any of the three artifacts an attribution-enabled run can leave
// behind — the harness run/sweep JSON (its `attribution` blocks), the
// telemetry JSONL timeline (final-scrape `attr_*` series, read by
// telemetry::parse_timeline), or a tracer JSON file (its `collector`
// summary, read by obs::parse_trace_summary) — and reduces each to the same
// RunExplanation: total requests, exact strict-violation count, per-cause
// violation tallies ranked by blame (ties in attr::Cause order), and the
// accounting-health counters (identity violations, negative component
// clamps) that must be zero on a healthy run. This is the one place that
// ranks violation causes.
//
// The violation count recovered from the telemetry JSONL alone equals the
// report's `strict_emitted - strict_completed·compliance` count exactly:
// the engine classifies with the collector's own arithmetic, every
// violating request lands in exactly one cause lane, and the final scrape
// snapshots the finished counters. tools/slo_explain leans on that to
// cross-check artifacts against each other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace protean::attr {

/// One ranked root-cause row.
struct CauseRow {
  std::string cause;             ///< stable lane name ("queue", ...)
  std::uint64_t violations = 0;  ///< strict violations blamed on this lane
  double seconds = -1.0;   ///< summed component seconds; negative = unknown
  double share_pct = 0.0;  ///< violations / total violations (finalized)
};

/// Per-(model, shard, strictness) drill-down row (run JSON only).
struct ExplainGroup {
  std::string model;
  int shard = 0;
  bool strict = false;
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;
  std::string dominant;
};

/// One run's reduced attribution view, whatever artifact it came from.
struct RunExplanation {
  std::string label;  ///< scheme name, or the artifact kind as fallback
  std::uint64_t requests = 0;
  std::uint64_t violations = 0;  ///< classified misses + dropped strict
  std::uint64_t identity_violations = 0;
  std::uint64_t negative_clamps = 0;
  std::string dominant = "none";
  std::vector<CauseRow> causes;      ///< ranked desc, ties in Cause order
  std::vector<ExplainGroup> groups;  ///< empty unless the source has them
};

enum class SourceKind {
  kRunJson,         ///< harness run/sweep JSON with attribution blocks
  kTelemetryJsonl,  ///< telemetry pipeline JSONL timeline
  kTraceJson,       ///< obs::Tracer trace file (collector summary)
  kUnknown,
};

/// Classifies artifact text by shape (no filename heuristics).
SourceKind sniff_source(const std::string& text);

/// Parses `text` (auto-sniffed) into zero or more explanations — one per
/// attribution block for run JSON, exactly one for JSONL/trace. False on
/// malformed input or when no attribution data is present; `error` says
/// why.
bool explain_text(const std::string& text, std::vector<RunExplanation>& out,
                  std::string& error);

/// Drill-down filters for rendering. Default-constructed = no filtering.
struct ExplainFilter {
  std::string model;    ///< keep only groups of this model ("" = all)
  int shard = -1;       ///< keep only this shard (-1 = all)
  int strict = -1;      ///< 1 strict-only, 0 BE-only, -1 both
  std::size_t top = 0;  ///< print at most N cause rows (0 = all)
};

/// Human-readable ranked root-cause report for one or more runs.
std::string render_explanations(const std::vector<RunExplanation>& runs,
                                const ExplainFilter& filter);

}  // namespace protean::attr
