// slo_explain — rank the root causes behind a run's SLO violations.
//
//   protean_sim --attr on --json > run.json
//   slo_explain run.json                       # ranked causes + groups
//
//   protean_sim --attr on --telemetry m.jsonl ...
//   slo_explain m.jsonl                        # same ranking from the
//                                              # final telemetry scrape
//
//   protean_sim --attr on --trace t.json ...
//   slo_explain t.json                         # from the trace summary
//
//   slo_explain run.json m.jsonl --cross-check # counts must agree exactly
//
// Drill-down filters (run JSON only — the other artifacts carry no group
// rows): --group-model NAME, --group-shard N, --strict, --be. --top N
// truncates the cause ranking.
//
// Exit status: 0 healthy, 1 broken accounting (identity violations or
// negative component clamps), mismatched --expect-violations /
// --cross-check, or unreadable input; 2 usage errors. A healthy run with
// violations still exits 0 — violations are the thing being explained,
// not an error.
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attr/explain.h"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: slo_explain FILE... [--top N] [--group-model NAME]\n"
      "                   [--group-shard N] [--strict | --be]\n"
      "                   [--expect-violations N] [--cross-check]\n"
      "  FILE                 run JSON (--json), telemetry JSONL, or a\n"
      "                       trace file from an --attr run (auto-detected)\n"
      "  --top N              print at most N ranked causes\n"
      "  --group-model NAME   drill down to one model's group rows\n"
      "  --group-shard N      drill down to one control-plane shard\n"
      "  --strict / --be      drill down to one request class\n"
      "  --expect-violations N  exit 1 unless every run counts exactly N\n"
      "  --cross-check        exit 1 unless all FILEs agree on the\n"
      "                       violation count (report vs JSONL vs trace)\n",
      out);
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  protean::attr::ExplainFilter filter;
  std::optional<unsigned long long> expect;
  bool cross_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_arg = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // The whole argument must be a non-negative integer: "12x" is a usage
    // error, not 12.
    const auto next_count = [&]() -> std::optional<unsigned long long> {
      const char* v = next_arg();
      if (v == nullptr) return std::nullopt;
      const char* end = v + std::strlen(v);
      unsigned long long n = 0;
      const auto [ptr, ec] = std::from_chars(v, end, n);
      if (ec != std::errc{} || ptr != end) return std::nullopt;
      return n;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--top") {
      const auto n = next_count();
      if (!n) { usage(stderr); return 2; }
      filter.top = static_cast<std::size_t>(*n);
    } else if (arg == "--group-model") {
      const char* v = next_arg();
      if (v == nullptr) { usage(stderr); return 2; }
      filter.model = v;
    } else if (arg == "--group-shard") {
      const auto n = next_count();
      if (!n || *n > static_cast<unsigned long long>(INT_MAX)) {
        usage(stderr);
        return 2;
      }
      filter.shard = static_cast<int>(*n);
    } else if (arg == "--strict") {
      filter.strict = 1;
    } else if (arg == "--be") {
      filter.strict = 0;
    } else if (arg == "--expect-violations") {
      expect = next_count();
      if (!expect) { usage(stderr); return 2; }
    } else if (arg == "--cross-check") {
      cross_check = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    usage(stderr);
    return 2;
  }

  std::vector<protean::attr::RunExplanation> runs;
  for (const std::string& path : paths) {
    const auto text = slurp(path);
    if (!text) {
      std::fprintf(stderr, "slo_explain: cannot read %s\n", path.c_str());
      return 1;
    }
    std::vector<protean::attr::RunExplanation> parsed;
    std::string error;
    if (!protean::attr::explain_text(*text, parsed, error)) {
      std::fprintf(stderr, "slo_explain: %s: %s\n", path.c_str(),
                   error.c_str());
      return 1;
    }
    for (auto& run : parsed) {
      run.label += " (" + path + ")";
      runs.push_back(std::move(run));
    }
  }

  std::fputs(
      protean::attr::render_explanations(runs, filter).c_str(), stdout);

  int status = 0;
  for (const auto& run : runs) {
    if (run.identity_violations > 0 || run.negative_clamps > 0) {
      std::fprintf(stderr,
                   "slo_explain: %s: broken accounting (%llu identity "
                   "violations, %llu negative clamps)\n",
                   run.label.c_str(),
                   static_cast<unsigned long long>(run.identity_violations),
                   static_cast<unsigned long long>(run.negative_clamps));
      status = 1;
    }
    if (expect && run.violations != *expect) {
      std::fprintf(stderr,
                   "slo_explain: %s: expected %llu violations, counted "
                   "%llu\n",
                   run.label.c_str(), *expect,
                   static_cast<unsigned long long>(run.violations));
      status = 1;
    }
  }
  if (cross_check) {
    for (std::size_t i = 1; i < runs.size(); ++i) {
      if (runs[i].violations != runs[0].violations) {
        std::fprintf(
            stderr,
            "slo_explain: cross-check failed: %s counts %llu violations, "
            "%s counts %llu\n",
            runs[0].label.c_str(),
            static_cast<unsigned long long>(runs[0].violations),
            runs[i].label.c_str(),
            static_cast<unsigned long long>(runs[i].violations));
        status = 1;
      }
    }
    if (runs.size() < 2) {
      std::fprintf(stderr,
                   "slo_explain: --cross-check needs at least two runs\n");
      status = 1;
    }
  }
  return status;
}
