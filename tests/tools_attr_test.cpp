// End-to-end tests for the attribution-aware CLI tools: slo_explain must
// reproduce a run's violation count from every artifact kind (and fail
// loudly when told to expect the wrong one) and is the one tool that ranks
// causes; metrics_diff must diff the dominant_cause alert field
// structurally. The binaries are invoked as subprocesses; their paths come
// from compile definitions set in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/json.h"
#include "telemetry/pipeline.h"
#include "tool_runner.h"

namespace protean {
namespace {

// One attribution-enabled violating run shared by every test below; the
// fixture materializes all three artifacts once (run JSON, telemetry
// JSONL, trace JSON).
class ToolsAttr : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new harness::ExperimentConfig(
        harness::primary_config("ResNet 50", /*horizon=*/20.0));
    config_->warmup = 10.0;
    config_->cluster.attr.enabled = true;
    config_->cluster.slo_multiplier = 1.05;  // guarantees violations
    config_->trace_out.path = trace_path();
    telemetry::TelemetryOptions telemetry;
    telemetry.path = jsonl_path();
    telemetry.interval = 2.0;
    config_->with_telemetry(telemetry);
    report_ = new harness::Report(run_experiment(*config_));
    spit(json_path(),
         harness::reports_to_json(*config_, {*report_}).dump(2) + "\n");
  }

  static void TearDownTestSuite() {
    std::remove(json_path().c_str());
    std::remove(jsonl_path().c_str());
    std::remove((jsonl_path() + ".om").c_str());
    std::remove(trace_path().c_str());
    delete report_;
    delete config_;
    report_ = nullptr;
    config_ = nullptr;
  }

  static std::string json_path() { return temp_path("tools-attr-run.json"); }
  static std::string jsonl_path() { return temp_path("tools-attr.jsonl"); }
  static std::string trace_path() {
    return temp_path("tools-attr-trace.json");
  }

  static harness::ExperimentConfig* config_;
  static harness::Report* report_;
};

harness::ExperimentConfig* ToolsAttr::config_ = nullptr;
harness::Report* ToolsAttr::report_ = nullptr;

// ------------------------------------------------------------ slo_explain --

TEST_F(ToolsAttr, SloExplainExplainsEveryArtifactKind) {
  ASSERT_GT(report_->attribution.violations, 0u);
  for (const std::string& path :
       {json_path(), jsonl_path(), trace_path()}) {
    std::string out;
    EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN) + " " + path, &out), 0)
        << path << "\n" << out;
    EXPECT_NE(out.find("ranked root causes"), std::string::npos) << path;
    EXPECT_NE(out.find(report_->attribution.dominant_cause),
              std::string::npos)
        << path;
  }
}

TEST_F(ToolsAttr, SloExplainCrossChecksArtifactsAgainstEachOther) {
  EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN) + " " + json_path() + " " +
                     jsonl_path() + " " + trace_path() + " --cross-check"),
            0);
  // --cross-check with a single run is itself an error.
  EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN) + " " + json_path() +
                     " --cross-check"),
            1);
}

TEST_F(ToolsAttr, SloExplainEnforcesExpectedViolationCount) {
  const auto violations =
      static_cast<unsigned long long>(report_->attribution.violations);
  char expect[64];
  std::snprintf(expect, sizeof(expect), " --expect-violations %llu",
                violations);
  EXPECT_EQ(
      run_tool(std::string(SLO_EXPLAIN_BIN) + " " + jsonl_path() + expect),
      0);
  std::snprintf(expect, sizeof(expect), " --expect-violations %llu",
                violations + 1);
  EXPECT_EQ(
      run_tool(std::string(SLO_EXPLAIN_BIN) + " " + jsonl_path() + expect),
      1);
}

TEST_F(ToolsAttr, SloExplainRejectsGarbageAndUsageErrors) {
  const std::string garbage = temp_path("tools-attr-garbage.json");
  spit(garbage, "not json\n");
  EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN) + " " + garbage), 1);
  std::remove(garbage.c_str());
  EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN)), 2);
  EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN) + " --bogus x"), 2);
}

TEST_F(ToolsAttr, NumericArgumentsRejectTrailingGarbage) {
  const std::string slo = std::string(SLO_EXPLAIN_BIN) + " " + jsonl_path();
  EXPECT_EQ(run_tool(slo + " --expect-violations 12x"), 2);
  EXPECT_EQ(run_tool(slo + " --expect-violations -1"), 2);
  EXPECT_EQ(run_tool(slo + " --top abc"), 2);
  EXPECT_EQ(run_tool(slo + " --top ''"), 2);
  EXPECT_EQ(run_tool(slo + " --group-shard x"), 2);
  EXPECT_EQ(run_tool(slo + " --group-shard 99999999999"), 2);
  EXPECT_EQ(run_tool(slo + " --top 3 --group-shard 0"), 0);
  const std::string diff = std::string(METRICS_DIFF_BIN) + " " +
                           jsonl_path() + " " + jsonl_path();
  EXPECT_EQ(run_tool(diff + " --show 1e30"), 2);
  EXPECT_EQ(run_tool(diff + " --show nan"), 2);
  EXPECT_EQ(run_tool(diff + " --show 2.5"), 2);
  EXPECT_EQ(run_tool(diff + " --abs-tol nan"), 2);
  EXPECT_EQ(run_tool(diff + " --rel-tol inf"), 2);
  EXPECT_EQ(run_tool(diff + " --show 2"), 0);
}

// Damaged artifacts make every reader exit 1 with a message on stderr; a
// crash (run_tool's -1, or a status of 128 and above) or any other status
// fails.
TEST_F(ToolsAttr, MalformedArtifactsAreErrorsNotCrashes) {
  const std::string trace = slurp(trace_path());
  const std::string jsonl = slurp(jsonl_path());
  const std::string broken_line = jsonl.substr(0, jsonl.find('\n') / 2);
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"truncated-trace.json", trace.substr(0, trace.size() / 2)},
      {"deep.json", "{\"traceEvents\":" + std::string(100000, '[')},
      {"broken.jsonl", broken_line + "\n" + jsonl},
  };
  for (const auto& [name, text] : inputs) {
    const std::string path = temp_path(name);
    spit(path, text);
    for (const std::string& cmd :
         {std::string(SLO_EXPLAIN_BIN) + " " + path,
          std::string(TRACE_STATS_BIN) + " " + path + " --check",
          std::string(METRICS_DIFF_BIN) + " " + path + " " + jsonl_path()}) {
      std::string err;
      EXPECT_EQ(run_tool(cmd, nullptr, &err), 1) << cmd;
      EXPECT_FALSE(err.empty()) << cmd;
    }
    std::remove(path.c_str());
  }
}

TEST_F(ToolsAttr, SloExplainRejectsTracesWithoutAttribution) {
  auto config = *config_;
  config.cluster.attr.enabled = false;
  config.telemetry = telemetry::TelemetryOptions{};
  const std::string path = temp_path("tools-noattr-trace.json");
  config.trace_out.path = path;
  run_experiment(config);
  std::string err;
  EXPECT_EQ(run_tool(std::string(SLO_EXPLAIN_BIN) + " " + path + " --top 3",
                     nullptr, &err),
            1);
  EXPECT_NE(err.find("no attr_* keys"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ----------------------------------------------------------- metrics_diff --

TEST_F(ToolsAttr, MetricsDiffMatchesItself) {
  std::string out;
  EXPECT_EQ(run_tool(std::string(METRICS_DIFF_BIN) + " " + jsonl_path() +
                     " " + jsonl_path(), &out),
            0)
      << out;
  EXPECT_NE(out.find("dumps match within tolerance"), std::string::npos);
}

TEST_F(ToolsAttr, MetricsDiffReportsEachBadInputOnce) {
  // An unparseable line is reported once, with its number, and not again
  // as an unreadable file; a missing file is reported as unreadable.
  const std::string bad = temp_path("tools-diff-bad.jsonl");
  spit(bad, slurp(jsonl_path()) + R"({"t":99,"event":"deploy"})" "\n");
  std::string err;
  EXPECT_EQ(run_tool(std::string(METRICS_DIFF_BIN) + " " + bad + " " +
                         jsonl_path(),
                     nullptr, &err),
            1);
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  EXPECT_NE(err.find("unparseable line"), std::string::npos) << err;
  EXPECT_EQ(err.find("cannot read"), std::string::npos) << err;
  std::remove(bad.c_str());

  const std::string missing = temp_path("tools-diff-missing.jsonl");
  EXPECT_EQ(run_tool(std::string(METRICS_DIFF_BIN) + " " + missing + " " +
                         jsonl_path(),
                     nullptr, &err),
            1);
  EXPECT_EQ(err, "metrics_diff: cannot read " + missing + "\n");
}

TEST_F(ToolsAttr, MetricsDiffFlagsDominantCauseDrift) {
  // Two hand-written dumps identical except for the alert's dominant
  // cause: the diff must treat that as a structural mismatch.
  const std::string scrape =
      R"({"t":10.0,"metrics":{"attr_violations_total{cause=\"queue\"}":4}})"
      "\n";
  const std::string a = temp_path("tools-alert-a.jsonl");
  const std::string b = temp_path("tools-alert-b.jsonl");
  spit(a, scrape +
              R"({"t":12.0,"event":"slo_burn_alert","state":"firing",)"
              R"("fast_burn":2.0,"slow_burn":1.5,"dominant_cause":"queue"})"
              "\n");
  spit(b, scrape +
              R"({"t":12.0,"event":"slo_burn_alert","state":"firing",)"
              R"("fast_burn":2.0,"slow_burn":1.5,"dominant_cause":"retry"})"
              "\n");
  EXPECT_EQ(run_tool(std::string(METRICS_DIFF_BIN) + " " + a + " " + a), 0);
  EXPECT_EQ(run_tool(std::string(METRICS_DIFF_BIN) + " " + a + " " + b), 1);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace protean
