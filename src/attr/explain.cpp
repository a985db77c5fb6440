#include "attr/explain.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "attr/attribution.h"
#include "common/json.h"
#include "obs/check.h"
#include "telemetry/pipeline.h"

namespace protean::attr {
namespace {

// A negative count reads as 0; values beyond the uint64 range saturate
// instead of overflowing the cast.
std::uint64_t as_count(double n) {
  if (n < 0.0) return 0;
  if (n + 0.5 >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(n + 0.5);
}

// Counts arrive as JSON numbers; anything else reads as 0.
std::uint64_t as_count(const Json& v) { return as_count(v.number_or(0.0)); }

// A lane's position in attr::Cause; names of no lane rank after them all.
int cause_rank(const std::string& name) {
  for (int c = 0; c < kCauseCount; ++c) {
    if (name == cause_name(static_cast<Cause>(c))) return c;
  }
  return kCauseCount;
}

// --- reductions per artifact kind -----------------------------------------

// Ranks the causes by violations, ties in attr::Cause order whatever order
// the artifact listed them in, and fills in the shares and the dominant.
void finalize(RunExplanation& run) {
  std::stable_sort(run.causes.begin(), run.causes.end(),
                   [](const CauseRow& a, const CauseRow& b) {
                     if (a.violations != b.violations) {
                       return a.violations > b.violations;
                     }
                     return cause_rank(a.cause) < cause_rank(b.cause);
                   });
  for (CauseRow& row : run.causes) {
    row.share_pct = run.violations > 0
                        ? 100.0 * static_cast<double>(row.violations) /
                              static_cast<double>(run.violations)
                        : 0.0;
  }
  if (run.dominant.empty() || run.dominant == "none") {
    run.dominant = !run.causes.empty() && run.causes.front().violations > 0
                       ? run.causes.front().cause
                       : "none";
  }
}

bool reduce_attribution_block(const Json& block, const char* label,
                              RunExplanation& run) {
  run.label = label;
  run.requests = as_count(block.find("requests"));
  run.violations = as_count(block.find("violations"));
  run.identity_violations = as_count(block.find("identity_violations"));
  run.negative_clamps = as_count(block.find("negative_component_clamps"));
  if (const std::string* d = block.find("dominant_cause").as_string()) {
    run.dominant = *d;
  }
  if (const Json::Array* causes = block.find("causes").as_array()) {
    for (const Json& c : *causes) {
      CauseRow row;
      if (const std::string* name = c.find("cause").as_string()) {
        row.cause = *name;
      }
      row.violations = as_count(c.find("violations"));
      row.seconds = c.find("seconds").number_or(-1.0);
      run.causes.push_back(std::move(row));
    }
  }
  if (const Json::Array* groups = block.find("groups").as_array()) {
    for (const Json& g : *groups) {
      ExplainGroup group;
      if (const std::string* m = g.find("model").as_string()) group.model = *m;
      group.shard = static_cast<int>(as_count(g.find("shard")));
      if (const bool* s = g.find("strict").as_bool()) group.strict = *s;
      group.requests = as_count(g.find("requests"));
      group.violations = as_count(g.find("violations"));
      if (const std::string* d = g.find("dominant").as_string()) {
        group.dominant = *d;
      }
      run.groups.push_back(std::move(group));
    }
  }
  finalize(run);
  return true;
}

/// Walks the run/sweep JSON tree collecting every report object that
/// carries an `attribution` block, labelling it with the nearest sibling
/// `scheme` string.
void collect_run_json(const Json& node, const std::string& scheme,
                      std::vector<RunExplanation>& out) {
  if (const Json::Array* array = node.as_array()) {
    for (const Json& child : *array) collect_run_json(child, scheme, out);
    return;
  }
  const Json::Object* object = node.as_object();
  if (object == nullptr) return;
  std::string label = scheme;
  if (const std::string* s = node.find("scheme").as_string()) label = *s;
  if (const Json& block = node.find("attribution"); block.as_object()) {
    RunExplanation run;
    reduce_attribution_block(block, label.empty() ? "run" : label.c_str(),
                             run);
    out.push_back(std::move(run));
  }
  for (const auto& [key, child] : *object) {
    if (key == "attribution") continue;
    collect_run_json(child, label, out);
  }
}

bool explain_run_json(const std::string& text,
                      std::vector<RunExplanation>& out, std::string& error) {
  std::string why;
  const std::optional<Json> root = Json::parse(text, &why);
  if (!root) {
    error = "malformed run JSON: " + why;
    return false;
  }
  collect_run_json(*root, "", out);
  if (out.empty()) {
    error = "run JSON has no attribution blocks (was the run --attr on?)";
    return false;
  }
  return true;
}

bool explain_trace_json(const std::string& text,
                        std::vector<RunExplanation>& out,
                        std::string& error) {
  std::string why;
  const std::optional<std::map<std::string, double>> summary =
      obs::parse_trace_summary(text, &why);
  if (!summary) {
    error = "malformed trace JSON: " + why;
    return false;
  }
  RunExplanation run;
  run.label = "trace";
  bool any = false;
  for (const auto& [key, value] : *summary) {
    if (key == "attr_requests") {
      run.requests = as_count(value);
      any = true;
    } else if (key == "attr_violations") {
      run.violations = as_count(value);
      any = true;
    } else if (key == "attr_identity_violations") {
      run.identity_violations = as_count(value);
      any = true;
    } else if (key == "negative_component_clamps") {
      run.negative_clamps = as_count(value);
    } else if (key.rfind("attr_cause_", 0) == 0) {
      CauseRow row;
      row.cause = key.substr(std::strlen("attr_cause_"));
      row.violations = as_count(value);
      run.causes.push_back(std::move(row));
      any = true;
    }
  }
  if (!any) {
    error = "trace summary has no attr_* keys (was the run --attr on?)";
    return false;
  }
  finalize(run);
  out.push_back(std::move(run));
  return true;
}

bool explain_telemetry_jsonl(const std::string& text,
                             std::vector<RunExplanation>& out,
                             std::string& error) {
  telemetry::TimelineError bad;
  const std::optional<telemetry::Timeline> timeline =
      telemetry::parse_timeline(text, &bad);
  if (!timeline) {
    error = "malformed JSONL line " + std::to_string(bad.line) + ": " +
            bad.why;
    return false;
  }
  // The counters are monotone, so the *last* sample of each attr series is
  // the finished-run value; the final scrape snapshots them all.
  RunExplanation run;
  run.label = "telemetry";
  bool any = false;
  const std::string lane_prefix = "attr_violations_total{cause=\"";
  for (const auto& [name, samples] : timeline->series) {
    const std::uint64_t last = as_count(samples.back().value);
    if (name == "attr_requests_total") {
      run.requests = last;
      any = true;
    } else if (name == "attr_identity_violations_total") {
      run.identity_violations = last;
      any = true;
    } else if (name == "attr_negative_clamps_total") {
      run.negative_clamps = last;
    } else if (name.rfind(lane_prefix, 0) == 0) {
      const std::size_t close = name.find('"', lane_prefix.size());
      if (close == std::string::npos) continue;
      CauseRow row;
      row.cause = name.substr(lane_prefix.size(), close - lane_prefix.size());
      row.violations = last;
      // The per-cause lanes partition the violations exactly, so the total
      // is their sum: the count slo_explain cross-checks against the
      // report.
      run.violations += last;
      run.causes.push_back(std::move(row));
      any = true;
    }
  }
  if (!any) {
    error = "JSONL has no attr_* series (was the run --attr on?)";
    return false;
  }
  finalize(run);
  out.push_back(std::move(run));
  return true;
}

}  // namespace

SourceKind sniff_source(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
          text[i] == '\r')) {
    ++i;
  }
  if (i >= text.size() || text[i] != '{') return SourceKind::kUnknown;
  // The JSONL timeline's every line starts {"t": — cheap and unambiguous.
  if (text.compare(i, 5, "{\"t\":") == 0) return SourceKind::kTelemetryJsonl;
  if (text.find("\"traceEvents\"") != std::string::npos) {
    return SourceKind::kTraceJson;
  }
  return SourceKind::kRunJson;
}

bool explain_text(const std::string& text, std::vector<RunExplanation>& out,
                  std::string& error) {
  switch (sniff_source(text)) {
    case SourceKind::kTelemetryJsonl:
      return explain_telemetry_jsonl(text, out, error);
    case SourceKind::kTraceJson:
      return explain_trace_json(text, out, error);
    case SourceKind::kRunJson:
      return explain_run_json(text, out, error);
    case SourceKind::kUnknown:
      break;
  }
  error = "unrecognized artifact (expected run JSON, telemetry JSONL, or "
          "a trace file)";
  return false;
}

std::string render_explanations(const std::vector<RunExplanation>& runs,
                                const ExplainFilter& filter) {
  std::string out;
  char buf[256];
  for (const RunExplanation& run : runs) {
    std::snprintf(buf, sizeof(buf), "run: %s\n", run.label.c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  requests %llu  strict violations %llu  dominant %s\n",
                  static_cast<unsigned long long>(run.requests),
                  static_cast<unsigned long long>(run.violations),
                  run.dominant.c_str());
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  identity violations %llu  negative component clamps %llu\n",
        static_cast<unsigned long long>(run.identity_violations),
        static_cast<unsigned long long>(run.negative_clamps));
    out += buf;
    if (run.violations == 0) {
      out += "  no SLO violations — nothing to attribute\n";
    } else {
      out += "  ranked root causes:\n";
      std::size_t shown = 0;
      for (const CauseRow& row : run.causes) {
        if (row.violations == 0) continue;
        if (filter.top > 0 && shown >= filter.top) {
          out += "    ...\n";
          break;
        }
        ++shown;
        std::snprintf(buf, sizeof(buf), "    %2zu. %-13s %10llu  %5.1f%%",
                      shown, row.cause.c_str(),
                      static_cast<unsigned long long>(row.violations),
                      row.share_pct);
        out += buf;
        if (row.seconds >= 0.0) {
          std::snprintf(buf, sizeof(buf), "  (%.3f s total)", row.seconds);
          out += buf;
        }
        out += '\n';
      }
    }
    bool header = false;
    for (const ExplainGroup& group : run.groups) {
      if (!filter.model.empty() && group.model != filter.model) continue;
      if (filter.shard >= 0 && group.shard != filter.shard) continue;
      if (filter.strict >= 0 && group.strict != (filter.strict != 0)) {
        continue;
      }
      if (!header) {
        out += "  groups (model x shard x class):\n";
        header = true;
      }
      std::snprintf(buf, sizeof(buf),
                    "    %-16s shard %-3d %-6s req %-10llu viol %-8llu",
                    group.model.c_str(), group.shard,
                    group.strict ? "strict" : "be",
                    static_cast<unsigned long long>(group.requests),
                    static_cast<unsigned long long>(group.violations));
      out += buf;
      if (group.violations > 0 && !group.dominant.empty()) {
        out += " dominant ";
        out += group.dominant;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace protean::attr
