// perfbench_selftest — checks the timed rebuild (deploy.h) against
// harness::run_experiment on the 8-node paper cell for every scheme, and
// on a diamond workflow cell (the only place pipeline_conscious() is read).
// The paper cells enable no feature block, so their JSON must match byte
// for byte; the workflow cell compares the fidelity fields. A Scheduler
// virtual the decorator failed to forward changes some scheme's behaviour
// and fails here. Exits nonzero on any difference.
#include <cstdio>
#include <string>
#include <vector>

#include "deploy.h"
#include "harness/options.h"
#include "sched/registry.h"

using namespace protean;

namespace {

/// Returns the problems found; empty when the rebuild reproduces the run.
std::string compare(const harness::ExperimentConfig& config,
                    bool compare_json) {
  const std::vector<harness::Report> want = {harness::run_experiment(config)};
  perfbench::Profile profile;
  perfbench::Deployment deployment(config, &profile);
  deployment.run();
  const std::vector<harness::Report> got = {deployment.finalize()};
  deployment.teardown();

  std::string problems = perfbench::mismatch(want[0], got[0]);
  if (compare_json && perfbench::report_json(config, want) !=
                          perfbench::report_json(config, got)) {
    problems += "report JSON differs; ";
  }
  if (profile.calls[perfbench::kIngest].calls == 0 ||
      profile.calls[perfbench::kPlace].calls == 0 ||
      profile.calls[perfbench::kMakeJob].calls == 0 ||
      profile.calls[perfbench::kMonitor].calls == 0) {
    problems += "a decorated interface was never called; ";
  }
  return problems;
}

}  // namespace

int main() {
  int failures = 0;
  auto report = [&failures](const std::string& cell,
                            const std::string& problems) {
    std::printf("%s %s%s%s\n", problems.empty() ? "ok  " : "FAIL",
                cell.c_str(), problems.empty() ? "" : ": ", problems.c_str());
    if (!problems.empty()) ++failures;
  };

  for (sched::Scheme scheme : sched::all_schemes()) {
    const harness::ExperimentConfig config =
        harness::primary_config("ResNet 50")
            .with_scheme(scheme)
            .with_latency_samples();
    report(sched::scheme_cli_name(scheme), compare(config, true));
  }

  auto parsed = harness::parse_cli(
      {"--workflow", "diamond", "--scheme", "protean-pipe", "--shards", "2"});
  harness::ExperimentConfig workflow = parsed.options->config;
  workflow.scheme = parsed.options->schemes.front();
  report("protean-pipe diamond workflow", compare(workflow, false));

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
