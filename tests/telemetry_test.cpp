// Tests for the telemetry subsystem: metrics registry exposition rules,
// burn-rate alert logic, pipeline determinism, and the timeline reader.
#include "telemetry/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "telemetry/burnrate.h"
#include "telemetry/registry.h"
#include "tool_runner.h"

namespace protean::telemetry {
namespace {

// ---- MetricsRegistry ----------------------------------------------------

// One scrape through the pipeline's own path: (name, value) pairs in
// sample_names() order.
std::vector<std::pair<std::string, double>> scrape(MetricsRegistry& registry) {
  std::vector<double> values;
  registry.scrape_values(&values);
  const std::vector<std::string>& names = registry.sample_names();
  std::vector<std::pair<std::string, double>> samples;
  for (std::size_t i = 0; i < values.size(); ++i) {
    samples.emplace_back(names[i], values[i]);
  }
  return samples;
}

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry registry;
  Counter* c = registry.counter("requests_total");
  c->inc();
  c->inc(4);
  const auto samples = scrape(registry);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].first, "requests_total");
  EXPECT_DOUBLE_EQ(samples[0].second, 5.0);
}

TEST(MetricsRegistry, GaugesSampleOnScrape) {
  MetricsRegistry registry;
  double depth = 3.0;
  registry.gauge("queue_depth", [&depth] { return depth; });
  EXPECT_DOUBLE_EQ(scrape(registry)[0].second, 3.0);
  depth = 7.0;
  EXPECT_DOUBLE_EQ(scrape(registry)[0].second, 7.0);
}

TEST(MetricsRegistry, ScrapeIsSortedByName) {
  MetricsRegistry registry;
  registry.gauge("zebra", [] { return 1.0; });
  registry.counter("alpha");
  registry.gauge("mid", [] { return 2.0; });
  const auto samples = scrape(registry);
  std::vector<std::string> names;
  names.reserve(samples.size());
  for (const auto& [name, value] : samples) names.push_back(name);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(MetricsRegistry, SummaryExpandsToQuantilesCountAndSum) {
  MetricsRegistry registry;
  Summary* s = registry.summary("latency_seconds", 0.01, {0.5, 0.99});
  s->observe(1.0);
  s->observe(2.0);
  s->observe(3.0);
  const auto samples = scrape(registry);
  std::vector<std::string> names;
  for (const auto& [name, value] : samples) names.push_back(name);
  // Lexicographic order: '_' sorts before '{'.
  EXPECT_EQ(names, (std::vector<std::string>{
                       "latency_seconds_count", "latency_seconds_sum",
                       "latency_seconds{quantile=\"0.5\"}",
                       "latency_seconds{quantile=\"0.99\"}"}));
}

TEST(MetricsRegistry, SummaryQuantileLabelMergesIntoExistingBlock) {
  MetricsRegistry registry;
  registry.summary("lat{class=\"strict\"}", 0.01, {0.5});
  const auto samples = scrape(registry);
  ASSERT_EQ(samples.size(), 3u);
  // _count/_sum keep the original labels, suffix on the base name.
  EXPECT_EQ(samples[0].first, "lat_count{class=\"strict\"}");
  EXPECT_EQ(samples[1].first, "lat_sum{class=\"strict\"}");
  EXPECT_EQ(samples[2].first, "lat{class=\"strict\",quantile=\"0.5\"}");
}

TEST(MetricsRegistry, SummaryWindowResetsAfterScrape) {
  MetricsRegistry registry;
  Summary* s = registry.summary("lat", 0.01, {0.5});
  s->observe(10.0);
  // Sorted: lat_count, lat_sum, lat{quantile="0.5"}.
  auto samples = scrape(registry);
  EXPECT_DOUBLE_EQ(samples[0].second, 1.0);  // _count is cumulative
  EXPECT_GT(samples[2].second, 0.0);
  // New window: quantile drops to 0, cumulative count stays.
  samples = scrape(registry);
  EXPECT_DOUBLE_EQ(samples[0].second, 1.0);
  EXPECT_DOUBLE_EQ(samples[2].second, 0.0);
}

TEST(MetricsRegistry, DuplicateNamesAreRejected) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.counter("x"), std::logic_error);
  EXPECT_THROW(registry.gauge("x", [] { return 0.0; }), std::logic_error);
  EXPECT_THROW(registry.summary("x", 0.01, {0.5}), std::logic_error);
}

TEST(MetricsRegistry, BaseNameStripsLabelBlock) {
  EXPECT_EQ(base_name("a{b=\"c\"}"), "a");
  EXPECT_EQ(base_name("plain"), "plain");
}

TEST(MetricsRegistry, TypeMapCoversAllInstruments) {
  MetricsRegistry registry;
  registry.counter("c_total");
  registry.gauge("g", [] { return 0.0; });
  registry.summary("s{k=\"v\"}", 0.01, {0.5});
  const auto types = registry.type_map();
  EXPECT_EQ(types.at("c_total"), "counter");
  EXPECT_EQ(types.at("g"), "gauge");
  EXPECT_EQ(types.at("s"), "summary");
}

// ---- BurnRateMonitor ----------------------------------------------------

BurnRateConfig test_burn_config() {
  BurnRateConfig config;
  config.slo_target = 0.99;
  config.fast_window = 60.0;
  config.slow_window = 300.0;
  config.fire_threshold = 10.0;
  config.clear_threshold = 5.0;
  return config;
}

TEST(BurnRateMonitor, CompliantStreamNeverFires) {
  BurnRateMonitor monitor(test_burn_config(), /*tick=*/10.0);
  for (int tick = 1; tick <= 30; ++tick) {
    monitor.observe_many(tick * 10.0 - 5.0, /*violations=*/0, 50);
    EXPECT_FALSE(monitor.evaluate(tick * 10.0));
  }
  EXPECT_FALSE(monitor.firing());
  EXPECT_EQ(monitor.alerts_fired(), 0u);
  EXPECT_LT(monitor.first_alert_at(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.alert_active_seconds(300.0), 0.0);
}

TEST(BurnRateMonitor, SustainedViolationsFireOnce) {
  BurnRateMonitor monitor(test_burn_config(), /*tick=*/10.0);
  // 100% violations: burn = 1.0 / 0.01 = 100 >> fire threshold.
  monitor.observe_many(5.0, 100, 100);
  EXPECT_TRUE(monitor.evaluate(10.0));  // FIRING edge
  EXPECT_TRUE(monitor.firing());
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  EXPECT_DOUBLE_EQ(monitor.first_alert_at(), 10.0);
  EXPECT_NEAR(monitor.fast_burn(), 100.0, 1e-9);
  // Still violating: no new edge, alert stays up.
  monitor.observe_many(15.0, 100, 100);
  EXPECT_FALSE(monitor.evaluate(20.0));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  EXPECT_DOUBLE_EQ(monitor.alert_active_seconds(20.0), 10.0);
}

TEST(BurnRateMonitor, ClearsWithHysteresisOnceFastWindowRecovers) {
  BurnRateMonitor monitor(test_burn_config(), /*tick=*/10.0);
  monitor.observe_many(5.0, 100, 100);
  ASSERT_TRUE(monitor.evaluate(10.0));
  // Healthy traffic from now on. The violations age out of the 60 s fast
  // window after 6 ticks; the clear edge appears then, even though the
  // 300 s slow window still remembers them.
  bool cleared = false;
  SimTime cleared_at = 0.0;
  for (int tick = 2; tick <= 12; ++tick) {
    monitor.observe_many(tick * 10.0 - 5.0, 0, 200);
    if (monitor.evaluate(tick * 10.0)) {
      cleared = true;
      cleared_at = tick * 10.0;
      break;
    }
  }
  ASSERT_TRUE(cleared);
  EXPECT_FALSE(monitor.firing());
  EXPECT_EQ(monitor.events().size(), 2u);
  EXPECT_FALSE(monitor.events().back().fired);
  EXPECT_DOUBLE_EQ(monitor.alert_active_seconds(200.0), cleared_at - 10.0);
}

TEST(BurnRateMonitor, BlipDoesNotFireWhenSlowWindowIsHealthy) {
  // Pre-fill the slow window with ten minutes of healthy traffic, then
  // one bad tick: the fast window spikes but the slow window holds the
  // alert back.
  BurnRateMonitor monitor(test_burn_config(), /*tick=*/10.0);
  int tick = 1;
  for (; tick <= 60; ++tick) {
    monitor.observe_many(tick * 10.0 - 5.0, 0, 100);
    ASSERT_FALSE(monitor.evaluate(tick * 10.0));
  }
  monitor.observe_many(tick * 10.0 - 5.0, 100, 100);
  EXPECT_FALSE(monitor.evaluate(tick * 10.0));
  EXPECT_GE(monitor.fast_burn(), 10.0);  // fast window alone would fire
  EXPECT_LT(monitor.slow_burn(), 10.0);
  EXPECT_EQ(monitor.alerts_fired(), 0u);
}

TEST(BurnRateMonitor, EmptyWindowsBurnZero) {
  BurnRateMonitor monitor(test_burn_config(), /*tick=*/10.0);
  EXPECT_FALSE(monitor.evaluate(10.0));
  EXPECT_DOUBLE_EQ(monitor.fast_burn(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.slow_burn(), 0.0);
}

TEST(BurnRateMonitor, RejectsBadConfig) {
  BurnRateConfig config = test_burn_config();
  config.slo_target = 1.0;  // no budget
  EXPECT_THROW(BurnRateMonitor(config, 10.0), std::logic_error);
  config = test_burn_config();
  config.fast_window = 600.0;  // fast > slow
  EXPECT_THROW(BurnRateMonitor(config, 10.0), std::logic_error);
  config = test_burn_config();
  config.clear_threshold = 20.0;  // clear > fire
  EXPECT_THROW(BurnRateMonitor(config, 10.0), std::logic_error);
  EXPECT_THROW(BurnRateMonitor(test_burn_config(), 0.0), std::logic_error);
}

// ---- TelemetryPipeline --------------------------------------------------

// Feeds `pipeline` 60 s of requests and finishes it.
void feed_and_finish(sim::Simulator& sim, TelemetryPipeline& pipeline,
                     double violation_rate) {
  pipeline.registry().gauge("custom_gauge", [&sim] { return sim.now(); });

  // Deterministic request feed: 20 strict requests per second, a fixed
  // fraction violating.
  int emitted = 0;
  sim::PeriodicTask feed(sim, 0.05, [&] {
    const bool violated =
        (emitted % 100) < static_cast<int>(violation_rate * 100.0);
    const double latency = violated ? 2.0 : 0.1;
    pipeline.observe_batch(sim.now(), /*strict=*/true, latency, latency,
                           /*count=*/1, /*slo=*/1.0);
    ++emitted;
  });
  sim.run_until(60.0);
  feed.stop();
  pipeline.finish(sim.now());
}

std::vector<std::string> run_pipeline_once(double violation_rate) {
  sim::Simulator sim;
  TelemetryOptions options;
  options.path = "unused.jsonl";
  options.interval = 5.0;
  TelemetryPipeline pipeline(sim, options, test_burn_config());
  feed_and_finish(sim, pipeline, violation_rate);
  return pipeline.jsonl_lines();
}

TEST(TelemetryPipeline, ScrapesAtIntervalPlusFinal) {
  sim::Simulator sim;
  TelemetryOptions options;
  options.path = "unused.jsonl";
  options.interval = 10.0;
  TelemetryPipeline pipeline(sim, options, BurnRateConfig{});
  sim.run_until(35.0);
  pipeline.finish(sim.now());
  // t = 10, 20, 30 periodic + final at 35.
  EXPECT_EQ(pipeline.scrape_count(), 4u);
  ASSERT_EQ(pipeline.jsonl_lines().size(), 4u);
  EXPECT_EQ(pipeline.jsonl_lines().back().rfind("{\"t\":35,", 0), 0u);
}

TEST(TelemetryPipeline, RepeatRunsAreByteIdentical) {
  const auto a = run_pipeline_once(0.5);
  const auto b = run_pipeline_once(0.5);
  EXPECT_EQ(a, b);
}

TEST(TelemetryPipeline, OverloadEmitsAlertEventCompliantDoesNot) {
  const auto bad = run_pipeline_once(1.0);
  const auto good = run_pipeline_once(0.0);
  const auto count_alerts = [](const std::vector<std::string>& lines) {
    std::size_t n = 0;
    for (const auto& line : lines) {
      if (line.find("\"event\":\"slo_burn_alert\"") != std::string::npos &&
          line.find("\"state\":\"firing\"") != std::string::npos) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GE(count_alerts(bad), 1u);
  EXPECT_EQ(count_alerts(good), 0u);
}

TEST(TelemetryPipeline, WriteFilesWritesTheJoinedLines) {
  sim::Simulator sim;
  TelemetryOptions options;
  options.path = temp_path("write-files.jsonl");
  options.interval = 5.0;
  TelemetryPipeline pipeline(sim, options, test_burn_config());
  feed_and_finish(sim, pipeline, 0.5);
  ASSERT_TRUE(pipeline.write_files());
  std::string joined;
  for (const std::string& line : pipeline.jsonl_lines()) {
    joined += line;
    joined += '\n';
  }
  ASSERT_GT(pipeline.jsonl_lines().size(), 10u);
  EXPECT_EQ(slurp(options.path), joined);
  EXPECT_TRUE(slurp(options.path + ".om").ends_with("# EOF\n"));
  std::remove(options.path.c_str());
  std::remove((options.path + ".om").c_str());
}

TEST(TelemetryPipeline, WriteFilesFailsOnAnUnwritablePath) {
  // The JSONL path names a directory, while its ".om" sibling is writable:
  // the failure must come from the line-by-line write itself.
  sim::Simulator sim;
  TelemetryOptions options;
  options.path = temp_path("unwritable.jsonl");
  ASSERT_TRUE(std::filesystem::create_directory(options.path));
  options.interval = 5.0;
  TelemetryPipeline pipeline(sim, options, test_burn_config());
  feed_and_finish(sim, pipeline, 0.0);
  EXPECT_FALSE(pipeline.write_files());
  std::filesystem::remove(options.path);
  std::filesystem::remove(options.path + ".om");
}

TEST(TelemetryPipeline, RegisteredGaugeAppearsInEveryScrape) {
  const auto lines = run_pipeline_once(0.0);
  for (const auto& line : lines) {
    if (line.find("\"metrics\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"custom_gauge\":"), std::string::npos);
    EXPECT_NE(
        line.find("\"request_latency_seconds{class=\\\"strict\\\","
                  "quantile=\\\"0.5\\\"}\":"),
        std::string::npos);
    EXPECT_NE(line.find("\"slo_burn_rate_fast\":"), std::string::npos);
    EXPECT_NE(line.find("\"slo_window_attainment_pct\":"),
              std::string::npos);
  }
}

// ---- parse_timeline -----------------------------------------------------

TEST(Timeline, ReadsTheGoldenDump) {
  const auto timeline = parse_timeline(slurp(GOLDEN_TELEMETRY));
  ASSERT_TRUE(timeline.has_value());
  EXPECT_EQ(timeline->scrapes, 10u);
  ASSERT_EQ(timeline->alerts.size(), 1u);
  EXPECT_EQ(timeline->alerts[0].state, "firing");
  EXPECT_DOUBLE_EQ(timeline->alerts[0].t, 30.0);
  EXPECT_DOUBLE_EQ(timeline->alerts[0].fast_burn, 100.0);
  EXPECT_DOUBLE_EQ(timeline->alerts[0].slow_burn, 100.0);
  EXPECT_EQ(timeline->alerts[0].dominant_cause, "");
  ASSERT_FALSE(timeline->series.empty());
  for (const auto& [name, samples] : timeline->series) {
    EXPECT_EQ(samples.size(), 10u) << name;
  }
  EXPECT_DOUBLE_EQ(timeline->series.at("cold_starts_total").front().t, 5.0);
}

TEST(Timeline, ReadsBackWhatThePipelineWrites) {
  std::string text;
  std::size_t alert_lines = 0;
  const auto lines = run_pipeline_once(1.0);
  for (const std::string& line : lines) {
    text += line + "\n";
    if (line.find("\"event\"") != std::string::npos) ++alert_lines;
  }
  const auto timeline = parse_timeline(text);
  ASSERT_TRUE(timeline.has_value());
  ASSERT_GE(alert_lines, 1u);
  EXPECT_EQ(timeline->alerts.size(), alert_lines);
  EXPECT_EQ(timeline->scrapes, lines.size() - alert_lines);
  EXPECT_EQ(timeline->alerts[0].state, "firing");
  // The custom gauge reads the scrape time; the final scrape is at 60 s.
  EXPECT_DOUBLE_EQ(timeline->series.at("custom_gauge").back().value, 60.0);
}

// Each line shape the writer never produces stops the read at its line
// number; blank lines count but are skipped. Text that is not JSON keeps
// the parser's message.
TEST(Timeline, RejectsEachMalformedLineShapeWithItsNumber) {
  const std::string good = "{\"t\":5,\"metrics\":{\"a\":1}}\n";
  const char* const kBad[] = {
      "not json",
      "[1,2]",                                             // not an object
      R"({"metrics":{"a":1}})",                            // no t
      R"({"metrics":{"a":1},"t":5})",                      // t not first
      R"({"t":"5","metrics":{"a":1}})",                    // t not a number
      R"({"t":5,"metrics":{"a":"x"}})",                    // string metric
      R"({"t":5,"metrics":{"a":1},"b":2})",                // extra field
      R"({"t":5,"event":"deploy"})",                       // unknown event
      R"({"t":5,"event":"slo_burn_alert","state":1})",     // numeric state
      R"({"t":5,"event":"slo_burn_alert","fast_burn":"x"})",
  };
  ASSERT_TRUE(parse_timeline(good + "\n" + good).has_value());
  for (const char* bad : kBad) {
    TimelineError error;
    EXPECT_FALSE(parse_timeline(good + "\n" + bad + "\n" + good, &error))
        << bad;
    EXPECT_EQ(error.line, 3u) << bad;
    EXPECT_EQ(error.why == "not a scrape or a burn alert",
              std::string(bad) != "not json")
        << bad << ": " << error.why;
  }
}

}  // namespace
}  // namespace protean::telemetry
