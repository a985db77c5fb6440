// Tests for the shared JSON value (writing and reading) and report
// serialization, including deterministic mutation of real artifacts: every
// damaged input must end in a value or an error message, never a crash.
#include "harness/json.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "attr/explain.h"
#include "obs/check.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "telemetry/pipeline.h"

namespace protean::harness {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(3.5).dump(), "3.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersStayIntegers) {
  EXPECT_EQ(Json(1000000.0).dump(), "1000000");
  EXPECT_EQ(Json(std::uint64_t{123456789}).dump(), "123456789");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(1.0 / 0.0).dump(), "null");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ArraysAndObjectsCompact) {
  Json::Array arr{Json(1), Json("two"), Json(nullptr)};
  EXPECT_EQ(Json(arr).dump(), "[1,\"two\",null]");

  Json::Object obj;
  obj.emplace_back("a", Json(1));
  obj.emplace_back("b", Json(Json::Array{Json(2)}));
  EXPECT_EQ(Json(std::move(obj)).dump(), "{\"a\":1,\"b\":[2]}");
}

TEST(Json, IndentedOutputIsStable) {
  Json::Object obj;
  obj.emplace_back("x", Json(1));
  const std::string out = Json(std::move(obj)).dump(2);
  EXPECT_EQ(out, "{\n  \"x\": 1\n}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(Json::Array{}).dump(), "[]");
  EXPECT_EQ(Json(Json::Object{}).dump(), "{}");
  EXPECT_EQ(Json(Json::Array{}).dump(2), "[]");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json::Object obj;
  obj.emplace_back("z", Json(1));
  obj.emplace_back("a", Json(2));
  EXPECT_EQ(Json(std::move(obj)).dump(), "{\"z\":1,\"a\":2}");
}

TEST(ReportJson, ContainsKeyFields) {
  Report report;
  report.scheme = "PROTEAN";
  report.strict_model = "ResNet 50";
  report.slo_compliance_pct = 99.5;
  report.strict_p99_ms = 289.0;
  const std::string out = report_to_json(report).dump();
  EXPECT_NE(out.find("\"scheme\":\"PROTEAN\""), std::string::npos);
  EXPECT_NE(out.find("\"slo_compliance_pct\":99.5"), std::string::npos);
  EXPECT_NE(out.find("\"strict_p99_ms\":289"), std::string::npos);
  EXPECT_NE(out.find("tail_breakdown"), std::string::npos);
}

TEST(ReportJson, PercentilesOnlyWithSamples) {
  Report report;
  EXPECT_EQ(report_to_json(report).dump().find("latency_percentiles"),
            std::string::npos);
  metrics::LatencyRamps strict;
  strict.add(0.3, 0.1, 3);  // 0.3, 0.2, 0.1 s
  report.strict_latencies = strict;
  EXPECT_NE(report_to_json(report).dump().find("latency_percentiles"),
            std::string::npos);
}

TEST(ReportJson, BatchSerializationIncludesConfig) {
  ExperimentConfig config = primary_config("ResNet 50", 30.0);
  std::vector<Report> reports(2);
  reports[0].scheme = "A";
  reports[1].scheme = "B";
  const std::string out = reports_to_json(config, reports).dump();
  EXPECT_NE(out.find("\"config\""), std::string::npos);
  EXPECT_NE(out.find("\"results\""), std::string::npos);
  EXPECT_NE(out.find("\"target_rps\":5000"), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"A\""), std::string::npos);
  EXPECT_NE(out.find("\"scheme\":\"B\""), std::string::npos);
}

// ---------------------------------------------------------------- reading --

TEST(JsonParse, ReadsEveryKind) {
  std::string error;
  const auto v = Json::parse(
      R"( {"n":null,"b":true,"x":-1.5e2,"s":"a\"b\\c\/\n\u0041\u00e9",)"
      R"("a":[1,{}],"o":{}} )",
      &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_TRUE(v->find("n").is_null());
  ASSERT_NE(v->find("b").as_bool(), nullptr);
  EXPECT_TRUE(*v->find("b").as_bool());
  EXPECT_EQ(v->find("x").number_or(0.0), -150.0);
  ASSERT_NE(v->find("s").as_string(), nullptr);
  EXPECT_EQ(*v->find("s").as_string(), "a\"b\\c/\nA?");
  ASSERT_NE(v->find("a").as_array(), nullptr);
  EXPECT_EQ(v->find("a").as_array()->size(), 2u);
  ASSERT_NE(v->find("o").as_object(), nullptr);
  EXPECT_TRUE(v->find("o").as_object()->empty());
  // Missing keys, non-objects and wrong kinds read as null / fallback.
  EXPECT_TRUE(v->find("missing").is_null());
  EXPECT_TRUE(Json(1).find("k").is_null());
  EXPECT_EQ(v->find("s").number_or(7.0), 7.0);
  EXPECT_EQ(v->find("s").as_number(), nullptr);
}

TEST(JsonParse, ErrorsCarryTheByteOffset) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "unexpected end of input at offset 0"},
      {"{", "expected string at offset 1"},
      {"[1,]", "expected value at offset 3"},
      {R"({"a" 1})", "expected ':' in object at offset 5"},
      {R"({"a":1 "b":2})", "expected ',' or '}' in object at offset 7"},
      {"[1 2]", "expected ',' or ']' in array at offset 3"},
      {R"("\q")", "unknown escape at offset 2"},
      {R"("\u00zz")", "bad \\u escape at offset 3"},
      {R"("\u00)", "truncated \\u escape at offset 3"},
      {R"("abc)", "unterminated string at offset 4"},
      {"tru", "expected value at offset 0"},
      {"[-]", "expected value at offset 1"},
      {"nan", "expected value at offset 0"},
      {"[-inf]", "expected value at offset 1"},
      {"1e999", "number out of range at offset 0"},
      {"[] x", "trailing characters after document at offset 3"},
  };
  for (const auto& [text, want] : cases) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value()) << text;
    EXPECT_EQ(error, want) << text;
  }
}

TEST(JsonParse, DeepNestingIsAnErrorNotACrash) {
  const std::string deep(100000, '[');
  std::string error;
  EXPECT_FALSE(Json::parse(deep, &error).has_value());
  EXPECT_EQ(error, "nesting too deep at offset 512");
  const std::string at_limit = std::string(Json::kMaxDepth, '[') +
                               std::string(Json::kMaxDepth, ']');
  EXPECT_TRUE(Json::parse(at_limit).has_value());

  // The artifact readers sniff the leading bytes first, so give each one
  // the prefix that routes it into the parser.
  error.clear();
  EXPECT_FALSE(obs::parse_trace_json(deep, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  for (const std::string prefix :
       {"{\"traceEvents\":", "{\"results\":", "{\"t\":0,\"metrics\":"}) {
    std::vector<attr::RunExplanation> runs;
    error.clear();
    EXPECT_FALSE(attr::explain_text(prefix + deep, runs, error)) << prefix;
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  }
}

TEST(JsonParse, EscapedStringsRoundTrip) {
  const std::string raw = std::string("quote\" back\\ nl\n ctl") + '\x01';
  const std::string text = Json(raw).dump();
  EXPECT_EQ(text, "\"quote\\\" back\\\\ nl\\n ctl\\u0001\"");
  const auto back = Json::parse(text);
  ASSERT_TRUE(back.has_value());
  ASSERT_NE(back->as_string(), nullptr);
  EXPECT_EQ(*back->as_string(), raw);
}

TEST(FormatDouble, MatchesPrintfG12) {
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(std::nan("")), "0");
  EXPECT_EQ(format_double(1.0 / 0.0), "0");
  EXPECT_EQ(format_double(-42.0), "-42");
  EXPECT_EQ(format_double(999999999999.0), "999999999999");
  EXPECT_EQ(format_double(1e12), "1e+12");
  EXPECT_EQ(format_double(0.125), "0.125");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.333333333333");
}

// ------------------------------------------------- artifacts and mutation --

// One short attribution + telemetry run (report JSON and a JSONL scrape
// line) plus a hand-driven tracer document, shared by the tests below.
class JsonArtifacts : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config = primary_config("ResNet 50", /*horizon=*/20.0);
    config.warmup = 10.0;
    config.cluster.attr.enabled = true;
    // ctest runs each test in its own process, in parallel.
    const std::string jsonl = ::testing::TempDir() +
                              std::to_string(::getpid()) + "-json-test.jsonl";
    telemetry::TelemetryOptions telemetry;
    telemetry.path = jsonl;
    telemetry.interval = 5.0;
    config.with_telemetry(telemetry);
    Report report = run_experiment(config);
    // Switch every optional block on so the document exercises every
    // serializer branch.
    report.memcache.enabled = true;
    report.faults.enabled = true;
    report.autoscale.enabled = true;
    report.substrate.enabled = true;
    report.workflow.enabled = true;
    report_ = new std::string(reports_to_json(config, {report}).dump(2));

    std::ifstream in(jsonl);
    std::string line;
    jsonl_line_ = new std::string;
    while (std::getline(in, line)) {
      if (line.find("\"metrics\"") != std::string::npos) *jsonl_line_ = line;
    }
    std::remove(jsonl.c_str());
    std::remove((jsonl + ".om").c_str());

    sim::Simulator sim;
    obs::Tracer tracer(sim);
    tracer.process_name(0, "gateway");
    tracer.thread_name(1, 2, "slice \"2\"\n");
    tracer.complete(obs::kSpans, "busy", 1, 2, 0.5, 1.25, {{"jobs", 3.0}});
    tracer.async_begin(obs::kSpans, "queue", 42, 1, 0.1,
                       {{"model", "ResNet 50"}});
    tracer.async_end(obs::kSpans, "queue", 42, 1, 0.4);
    tracer.instant(obs::kSpans, "cold_start", 1, {{"spare", 0.0}});
    tracer.counter(obs::kCounters, "s2", 1, {{"pressure", 0.7}});
    tracer.set_summary("busy_seconds", 0.75);
    tracer.set_summary("attr_violations", 3.0);
    tracer.set_summary("attr_cause_queue", 3.0);
    trace_ = new std::string(tracer.to_json());
  }

  static void TearDownTestSuite() {
    delete report_;
    delete jsonl_line_;
    delete trace_;
    report_ = jsonl_line_ = trace_ = nullptr;
  }

  static std::string* report_;
  static std::string* jsonl_line_;
  static std::string* trace_;
};

std::string* JsonArtifacts::report_ = nullptr;
std::string* JsonArtifacts::jsonl_line_ = nullptr;
std::string* JsonArtifacts::trace_ = nullptr;

// Feeds `text` to the parser and to both artifact readers built on it.
// Each must return a value or say why not.
void expect_value_or_error(const std::string& text) {
  std::string error;
  const std::optional<Json> v = Json::parse(text, &error);
  EXPECT_TRUE(v.has_value() || !error.empty()) << text;
  error.clear();
  if (!obs::parse_trace_json(text, &error)) {
    EXPECT_FALSE(error.empty());
  }
  std::vector<attr::RunExplanation> runs;
  error.clear();
  if (!attr::explain_text(text, runs, error)) {
    EXPECT_FALSE(error.empty());
  }
}

// Truncates `doc` at evenly spaced offsets, then overwrites single bytes
// with JSON punctuation at seeded positions.
void mutate(const std::string& doc) {
  ASSERT_TRUE(Json::parse(doc).has_value());
  const std::size_t step = std::max<std::size_t>(1, doc.size() / 97);
  for (std::size_t cut = 0; cut < doc.size(); cut += step) {
    expect_value_or_error(doc.substr(0, cut));
  }
  static constexpr char kPunctuation[] = "{}[]\",:\\u";
  std::mt19937 rng(20240611);
  for (int i = 0; i < 300; ++i) {
    std::string damaged = doc;
    damaged[rng() % damaged.size()] =
        kPunctuation[rng() % (sizeof(kPunctuation) - 1)];
    expect_value_or_error(damaged);
  }
}

TEST_F(JsonArtifacts, ReportRoundTripsByteIdentically) {
  std::string error;
  const auto parsed = Json::parse(*report_, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->dump(2), *report_);
  EXPECT_EQ(Json::parse(parsed->dump())->dump(2), *report_);
}

TEST_F(JsonArtifacts, MutatedReportNeverCrashes) { mutate(*report_); }

TEST_F(JsonArtifacts, MutatedTelemetryLineNeverCrashes) {
  ASSERT_FALSE(jsonl_line_->empty());
  mutate(*jsonl_line_);
}

TEST_F(JsonArtifacts, MutatedTraceNeverCrashes) {
  ASSERT_TRUE(obs::parse_trace_json(*trace_).has_value());
  mutate(*trace_);
}

}  // namespace
}  // namespace protean::harness
