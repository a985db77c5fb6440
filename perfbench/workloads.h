// The benchmark's workloads. Each scenario is a protean_sim argument list,
// parsed by harness::parse_cli exactly as the CLI parses it, so a scenario
// can be replayed by hand with `protean_sim <args> --seed N --json`.
//
// Why each workload exists, and which layer it loads, is in README.md.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Scenario {
  std::string name;
  /// protean_sim arguments without --seed. "{tmp}" stands for the run's
  /// temporary directory (telemetry output).
  std::vector<std::string> args;
};

struct Workload {
  std::string name;
  std::vector<Scenario> scenarios;
};

inline std::vector<Scenario> paper_schemes() {
  std::vector<Scenario> out;
  for (const char* scheme : {"protean", "infless", "molecule", "naive"}) {
    out.push_back({scheme,
                   {"--nodes", "256", "--trace", "wiki", "--rps", "80000",
                    "--model", "ResNet 50", "--scheme", scheme, "--horizon",
                    "90"}});
  }
  return out;
}

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fleet-640k",
       {{"protean",
         {"--nodes", "1024", "--trace", "wiki", "--rps", "640000", "--model",
          "ResNet 50", "--scheme", "protean", "--horizon", "90"}}}},
      {"llm-fleet",
       {{"protean",
         {"--nodes", "1024", "--trace", "wiki", "--rps", "12288", "--model",
          "BERT", "--scheme", "protean", "--horizon", "240"}}}},
      {"paper-schemes", paper_schemes()},
      {"composed",
       {{"protean-pipe",
         {"--nodes", "256", "--trace", "twitter", "--rps", "80000",
          "--workflow", "diamond", "--scheme", "protean-pipe", "--shards", "4",
          "--horizon", "300", "--faults",
          "crash-rate=1,kill-rate=1,ecc-rate=0.5", "--hedge", "--attr", "on",
          "--telemetry", "{tmp}/composed.telemetry.jsonl:10", "--autoscale",
          "predictive"}}}},
  };
  return all;
}

}  // namespace perfbench
