// perfbench_runner — the measured process behind perfbench/run.py.
//
//   perfbench_runner describe
//   perfbench_runner run   WORKLOAD SEED DIR SETUP_PASSES
//   perfbench_runner trace WORKLOAD SEED DIR REP
//
// `run` is the untraced run: every scenario of the workload, one at a time
// on this thread, through harness::run_experiment with latency samples kept
// and then harness::reports_to_json(...).dump() — the work protean_sim
// --json does. It writes each report to DIR/<scenario>.json, then builds
// each scenario's deployment SETUP_PASSES more times without running it to
// time set-up alone. `trace` runs each scenario untraced and then through
// the timed rebuild (deploy.h), checks that the two agree, and reports the
// per-layer numbers. Each mode prints one JSON object on stdout; run.py
// checks outputs and aggregates repetitions.
#include <sys/resource.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "deploy.h"
#include "harness/json.h"
#include "harness/options.h"
#include "workflow/spec.h"
#include "workload/model.h"
#include "workloads.h"

using namespace protean;
using perfbench::Profile;
using Json = harness::Json;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

const perfbench::Workload* find_workload(const std::string& name) {
  for (const auto& w : perfbench::workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// The scenario's protean_sim arguments with the temporary directory
/// filled in and the seed appended.
std::vector<std::string> scenario_args(const perfbench::Scenario& scenario,
                                       const std::string& seed,
                                       const std::string& dir) {
  std::vector<std::string> args;
  for (std::string arg : scenario.args) {
    const auto at = arg.find("{tmp}");
    if (at != std::string::npos) arg.replace(at, 5, dir);
    args.push_back(std::move(arg));
  }
  args.insert(args.end(), {"--seed", seed});
  return args;
}

/// Replaces the seeded best-effort model rotation with a fixed one: the
/// strict model's opposite-class pool in catalog order, one model per
/// rotation period. Which BE models a seed happens to draw changes how much
/// work a run does; fixed, the seed changes arrivals but not the workload.
void fix_be_rotation(harness::ExperimentConfig& config) {
  const auto& catalog = workload::ModelCatalog::instance();
  const workload::ModelProfile* strict = &catalog.by_name(config.strict_model);
  if (config.cluster.workflow.enabled) {
    strict =
        workflow::WorkflowSpec::build(config.cluster.workflow).entry_model();
  }
  const auto pool = catalog.opposite_class_pool(*strict);
  std::size_t next = 0;
  for (SimTime t = 0.0; t < config.trace.horizon;
       t += config.be_rotation_period) {
    config.be_schedule.emplace_back(t, pool[next++ % pool.size()]->name);
  }
}

/// Parses a scenario like protean_sim does, with --json's latency samples
/// and a fixed BE rotation.
harness::ExperimentConfig scenario_config(
    const std::vector<std::string>& args) {
  auto parsed = harness::parse_cli(args);
  if (!parsed.options) throw std::runtime_error(parsed.error);
  harness::ExperimentConfig config = parsed.options->config;
  config.scheme = parsed.options->schemes.front();
  config.keep_latency_samples = true;
  fix_be_rotation(config);
  return config;
}

long long file_bytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size)
                                      : -1;
}

void print(Json::Object root) {
  std::printf("%s\n", Json(std::move(root)).dump().c_str());
}

int describe() {
  Json::Array workloads;
  for (const auto& w : perfbench::workloads()) {
    Json::Array scenarios;
    for (const auto& s : w.scenarios) {
      Json::Array args;
      for (const auto& a : s.args) args.push_back(Json(a));
      Json::Array be_schedule;
      for (const auto& [when, model] :
           scenario_config(scenario_args(s, "0", "{tmp}")).be_schedule) {
        be_schedule.push_back(Json(Json::Array{Json(when), Json(model)}));
      }
      scenarios.push_back(Json(Json::Object{
          {"name", s.name},
          {"args", Json(std::move(args))},
          {"be_schedule", Json(std::move(be_schedule))}}));
    }
    workloads.push_back(Json(Json::Object{
        {"name", w.name}, {"scenarios", Json(std::move(scenarios))}}));
  }
  print({{"build_type", PERFBENCH_BUILD_TYPE},
         {"compiler", PERFBENCH_COMPILER},
         {"workloads", Json(std::move(workloads))}});
  return 0;
}

int untraced_run(const perfbench::Workload& workload,
                 const std::string& seed, const std::string& dir,
                 int setup_passes) {
  std::vector<harness::ExperimentConfig> configs;
  for (const auto& s : workload.scenarios) {
    configs.push_back(scenario_config(scenario_args(s, seed, dir)));
  }
  std::vector<std::string> texts(configs.size());
  std::vector<std::string> errors(configs.size());

  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    try {
      std::vector<harness::Report> reports;
      reports.push_back(harness::run_experiment(configs[i]));
      texts[i] = perfbench::report_json(configs[i], reports);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  }
  const double wall = seconds_since(start);
  const double cpu = cpu_seconds() - cpu0;
  const double rss = peak_rss_mb();

  Json::Array scenarios;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string path = dir + "/" + workload.scenarios[i].name + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fputs(texts[i].c_str(), f);
      std::fclose(f);
    } else if (errors[i].empty()) {
      errors[i] = "cannot write " + path;
    }
    Json telemetry_bytes = nullptr;
    if (configs[i].telemetry.enabled()) {
      telemetry_bytes = Json(static_cast<double>(
          file_bytes(configs[i].telemetry.path)));
    }
    scenarios.push_back(Json(Json::Object{
        {"name", workload.scenarios[i].name},
        {"report", path},
        {"digest", digest(texts[i])},
        {"error", errors[i]},
        {"telemetry_bytes", std::move(telemetry_bytes)}}));
  }

  Json::Array setup;
  for (int pass = 0; pass < setup_passes; ++pass) {
    double total = 0.0;
    for (const auto& config : configs) {
      const Clock::time_point t0 = Clock::now();
      perfbench::Deployment deployment(config, nullptr);
      total += seconds_since(t0);
    }
    setup.push_back(Json(total));
  }

  print({{"wall_s", wall},
         {"cpu_s", cpu},
         {"peak_rss_mb", rss},
         {"setup_s", Json(std::move(setup))},
         {"scenarios", Json(std::move(scenarios))}});
  return 0;
}

int traced_run(const perfbench::Workload& workload, const std::string& seed,
               const std::string& dir, int rep) {
  Profile profile;
  perfbench::Counts total;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  Json::Array scenarios;
  for (const auto& s : workload.scenarios) {
    const harness::ExperimentConfig config =
        scenario_config(scenario_args(s, seed, dir));

    std::vector<harness::Report> want;
    std::string want_text;
    auto untraced = [&] {
      const Clock::time_point t0 = Clock::now();
      want.push_back(harness::run_experiment(config));
      want_text = perfbench::report_json(config, want);
      untraced_s += seconds_since(t0);
    };
    std::vector<harness::Report> got;
    auto traced = [&] {
      const Clock::time_point t0 = Clock::now();
      perfbench::Deployment deployment(config, &profile);
      deployment.run();
      got.push_back(deployment.finalize());
      {
        auto timed = profile.phase(perfbench::kJson);
        (void)perfbench::report_json(config, got);
      }
      deployment.add_counts(total);
      deployment.teardown();
      traced_s += seconds_since(t0);
    };
    // Alternate the order across repetitions so neither run always gets
    // the warmer heap.
    if (rep % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    scenarios.push_back(
        Json(Json::Object{{"name", s.name},
                          {"digest", digest(want_text)},
                          {"mismatch", perfbench::mismatch(want[0], got[0])}}));
  }

  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  auto u = [](std::uint64_t v) { return Json(static_cast<double>(v)); };
  Json::Object metrics;
  for (int p = 0; p < perfbench::kPhaseCount; ++p) {
    metrics.emplace_back(
        perfbench::phase_name(static_cast<perfbench::Phase>(p)),
        profile.phases[p].total_s);
  }
  for (int c = 0; c < perfbench::kCallCount; ++c) {
    const std::string name =
        perfbench::call_name(static_cast<perfbench::Call>(c));
    metrics.emplace_back(name + ".calls", u(profile.calls[c].calls));
    metrics.emplace_back(name + ".self_s", profile.calls[c].self_s);
  }
  const auto& place = profile.calls[perfbench::kPlace];
  metrics.emplace_back("sched.place.hit_ratio",
                       ratio(static_cast<double>(profile.place_hits),
                             static_cast<double>(place.calls)));
  metrics.emplace_back("sim.self_s",
                       profile.phases[perfbench::kRun].self_s +
                           profile.phases[perfbench::kDrain].self_s);
  metrics.emplace_back("sim.events", u(total.events));
  metrics.emplace_back("sim.heap_peak", u(profile.heap_peak));
  metrics.emplace_back("cluster.batches", u(total.batches));
  metrics.emplace_back("cluster.partial_ratio",
                       ratio(static_cast<double>(total.partial_batches),
                             static_cast<double>(total.batches)));
  metrics.emplace_back("cluster.cold_starts", u(total.cold_starts));
  metrics.emplace_back("gpu.reconfigs", u(total.reconfigs));
  metrics.emplace_back("metrics.requests", u(total.requests));
  metrics.emplace_back("metrics.store_bytes", u(total.store_bytes));
  metrics.emplace_back("metrics.batch_records", u(total.batch_records));
  metrics.emplace_back("telemetry.scrapes", u(total.scrapes));
  metrics.emplace_back("attr.batches", u(total.attr_batches));
  metrics.emplace_back("attr.identity_violations",
                       u(total.attr_identity_violations));
  metrics.emplace_back("attr.negative_clamps", u(total.attr_negative_clamps));
  metrics.emplace_back("fault.lost_batches", u(total.lost_batches));
  metrics.emplace_back("fault.retries", u(total.retries));
  metrics.emplace_back("workflow.stage_batches", u(total.stage_batches));
  metrics.emplace_back(
      "workflow.transfer_hop_ratio",
      ratio(static_cast<double>(total.transfer_hops),
            static_cast<double>(total.transfer_hops + total.colocated_hops)));
  metrics.emplace_back("autoscale.ticks", u(total.autoscale_ticks));
  metrics.emplace_back("autoscale.avg_nodes",
                       ratio(total.autoscale_committed_ticks,
                             static_cast<double>(total.autoscale_ticks)));

  Json::Array spans;
  for (const auto& span : profile.spans) {
    spans.push_back(Json(Json::Object{{"name", span.name},
                                      {"start_s", span.start_s},
                                      {"end_s", span.end_s}}));
  }
  print({{"untraced_s", untraced_s},
         {"traced_s", traced_s},
         {"metrics", Json(std::move(metrics))},
         {"scenarios", Json(std::move(scenarios))},
         {"spans", Json(std::move(spans))}});
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner describe\n"
               "       perfbench_runner run WORKLOAD SEED DIR SETUP_PASSES\n"
               "       perfbench_runner trace WORKLOAD SEED DIR REP\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "describe") return describe();
  if (args.size() != 5 || (args[0] != "run" && args[0] != "trace")) {
    return usage();
  }
  const perfbench::Workload* workload = find_workload(args[1]);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload %s\n", args[1].c_str());
    return 2;
  }
  try {
    const int n = std::stoi(args[4]);
    return args[0] == "run" ? untraced_run(*workload, args[2], args[3], n)
                            : traced_run(*workload, args[2], args[3], n);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
