// The CLI determinism gate. A default-off feature leaves the report free of
// its key while off; while on, repeated runs give byte-identical reports
// and artifacts; a malformed flag exits 2 with its message. Each row is its
// own ctest test, so rows run in parallel, in the sanitizer build too.
// docs/ARCHITECTURE.md says how to add rows for a new feature.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "tool_runner.h"

namespace protean {
namespace {

// The report keys of the default-off features. A row without keys of its
// own asserts that its reports contain none of them.
const char* const kOffKeys[] = {
    "\"memcache\"",  "\"faults\"",   "\"telemetry\"",  "\"autoscale\"",
    "\"substrate\"", "\"workflow\"", "\"attribution\""};

/// Runs `line` in `dir` with the tools first on PATH and $GOLDEN naming
/// the committed golden telemetry dump (paths set in tests/CMakeLists.txt).
int run_in(const std::string& dir, const std::string& line,
           std::string* out = nullptr, std::string* err = nullptr) {
  std::filesystem::create_directories(dir);
  return run_tool("cd " + dir + " && PATH=" TOOLS_DIR
                  ":$PATH GOLDEN=" GOLDEN_TELEMETRY " && " + line,
                  out, err);
}

// Two protean_sim runs, each in its own directory, at --horizon 30 unless
// `args` sets one.
struct Row {
  const char* name;
  std::string args;
  /// Substrings each report must contain; none: no off-feature key.
  std::vector<const char*> keys = {};
  /// Files each run writes; both runs' copies must be byte-identical.
  std::vector<std::string> files = {};
  /// Commands run after the first run, in its directory (its stdout is
  /// report.json there); each must exit 0.
  std::vector<std::string> follow_ups = {};
  /// The second run's args; empty repeats `args`.
  std::string twin = "";
};

// Each config runs twice.
const Row kRepeat[] = {
    {"spot_off", "--spot hybrid --p-rev 0.354 --json"},
    {"memcache", "--memcache lru:8 --json", {"\"memcache\""}},
    {"faults", "--faults crash@10:n1,kill-rate=40 --spot hybrid --p-rev 0.354 "
     "--json", {"\"faults\""}},
    {"trace_sched", "--trace t.json:sched --json", {}, {"t.json"},
     {"trace_stats t.json --check"}},
    {"telemetry", "--telemetry m.jsonl:5 --json", {"\"telemetry\""},
     {"m.jsonl", "m.jsonl.om"}, {"metrics_diff m.jsonl m.jsonl"}},
    {"telemetry_trace_faults", "--telemetry c.jsonl:5 --trace ct.json "
     "--faults crash@10:n1,kill-rate=40 --json", {"\"telemetry\""},
     {"c.jsonl", "ct.json"}},
    {"sketch", "--sketch 0.01 --json"},
    {"autoscale", "--autoscale predictive --horizon 60 --json",
     {"\"autoscale\""}},
    {"autoscale_reactive", "--autoscale=reactive:max=12,settle=2 --json",
     {"\"reactive\""}},
    {"autoscale_telemetry_faults", "--autoscale predictive --telemetry "
     "am.jsonl:5 --faults kill-rate=40 --spot hybrid --p-rev 0.354 --json",
     {"\"autoscale\""}, {"am.jsonl"}},
    {"substrate", "--substrate softslice --json", {"\"substrate\""}},
    {"substrate_soft", "--scheme protean-soft --substrate softslice --json",
     {"\"substrate\""}},
    {"substrate_infless", "--scheme infless --substrate softslice --json",
     {"\"substrate\""}},
    {"substrate_timeslice", "--scheme protean-soft --substrate "
     "softslice:discipline=timeslice,nodes=0.5 --json", {"\"timeslice\""}},
    {"substrate_timeshare", "--substrate timeshare --json", {"\"substrate\""}},
    {"workflow", "--workflow diamond --json", {"\"workflow\""}},
    {"workflow_pipe", "--scheme protean-pipe --workflow diamond --json",
     {"\"workflow\""}},
    {"workflow_infless", "--scheme infless --workflow diamond --json",
     {"\"workflow\""}},
    {"workflow_chain", "--scheme protean-pipe --workflow "
     "chain:stages=5,transfer=256,bw=8,hop=0.01 --json", {"\"workflow\""}},
    {"workflow_fanout", "--workflow fanout:width=4 --json", {"\"workflow\""}},
    {"workflow_shared", "--workflow shared --json", {"\"shared\""}},
    {"workflow_faults", "--scheme protean-pipe --workflow diamond --faults "
     "crash@10:n1,kill-rate=40 --spot hybrid --p-rev 0.354 --json",
     {"\"workflow\""}},
    {"shards", "--all-schemes --nodes 9 --shards 3 --json"},
    {"attr", "--attr on --json", {"\"attribution\"",
     "\"identity_violations\": 0", "\"negative_component_clamps\": 0"}},
    {"attr_artifacts", "--attr on --slo-mult 1.2 --telemetry at.jsonl:5 "
     "--trace att.json --json", {"\"attribution\""}, {"at.jsonl", "att.json"},
     {"slo_explain report.json",
      "slo_explain report.json at.jsonl att.json --cross-check --top 5",
      "slo_explain att.json --top 5", "slo_explain at.jsonl --top 5",
      "trace_stats att.json --check", "metrics_diff at.jsonl at.jsonl"}},
    {"attr_composed", "--scheme protean-pipe --attr on:alpha=0.02 --workflow "
     "diamond --faults crash@10:n1,kill-rate=40 --spot hybrid --p-rev 0.354 "
     "--shards 3 --nodes 9 --trace atf.json --json",
     {"\"identity_violations\": 0", "\"negative_component_clamps\": 0"},
     {"atf.json"}, {"trace_stats atf.json --check", "slo_explain atf.json"}},
    // Four nodes cannot keep up with 3000 rps of BERT: a growing backlog,
    // whose placements read the node's queue sums once per queued batch.
    {"backlog", "--scheme protean --nodes 4 --rps 3000 --model BERT "
     "--warmup 5 --horizon 10 --seed 1 --json"},
    {"golden", "--rps 12000 --seed 7 --telemetry g.jsonl:5",
     {"SLO burn alerts, first at"}, {"g.jsonl"},
     {"metrics_diff g.jsonl $GOLDEN --rel-tol 1e-3 --abs-tol 1e-6"}},
};

// Two different configs whose reports must be byte-identical.
const Row kSame[] = {
    {.name = "traced", .args = "--trace t.json --json",
     .follow_ups = {"trace_stats t.json --check"}, .twin = "--json"},
    {.name = "jobs", .args = "--all-schemes --seeds 3 --jobs 1 --json",
     .twin = "--all-schemes --seeds 3 --jobs 8 --json"},
    {.name = "shards_1", .args = "--nodes 9 --json",
     .twin = "--nodes 9 --shards 1 --json"},
};

class CliGate : public ::testing::TestWithParam<Row> {};

TEST_P(CliGate, RunsMatch) {
  const Row& row = GetParam();
  const std::string dir[2] = {temp_path(row.name + std::string("0")),
                              temp_path(row.name + std::string("1"))};
  std::string report[2];
  for (int run = 0; run < 2; ++run) {
    std::string args = run == 1 && !row.twin.empty() ? row.twin : row.args;
    if (args.find("--horizon") == std::string::npos) args += " --horizon 30";
    ASSERT_EQ(run_in(dir[run], "protean_sim " + args, &report[run]), 0)
        << args;
    for (const char* key : row.keys) {
      EXPECT_NE(report[run].find(key), std::string::npos) << key;
    }
    for (const char* key : kOffKeys) {
      EXPECT_FALSE(row.keys.empty() &&
                   report[run].find(key) != std::string::npos) << key;
    }
  }
  EXPECT_TRUE(report[0] == report[1]) << "the two reports differ";
  for (const std::string& file : row.files) {
    const std::string text = slurp(dir[0] + "/" + file);
    EXPECT_FALSE(text.empty()) << file;
    EXPECT_TRUE(text == slurp(dir[1] + "/" + file)) << file << " differs";
  }
  spit(dir[0] + "/report.json", report[0]);
  for (const std::string& follow_up : row.follow_ups) {
    std::string out, err;
    EXPECT_EQ(run_in(dir[0], follow_up, &out, &err), 0)
        << follow_up << "\n" << out << err;
  }
  for (const std::string& d : dir) std::filesystem::remove_all(d);
}

// gtest_discover_tests names each ctest test after the printed row.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

INSTANTIATE_TEST_SUITE_P(Repeat, CliGate, ::testing::ValuesIn(kRepeat));
INSTANTIATE_TEST_SUITE_P(Same, CliGate, ::testing::ValuesIn(kSame));

// A malformed command exits with `status` and `message` on stderr. It runs
// in a directory that holds zero.csv, an all-zero rate table, gap.csv,
// whose second row names a second far past the parser's limit, and
// short.csv, a 10-second table.
struct Reject {
  std::string command;
  int status;
  const char* message;
};

const Reject kReject[] = {
    {"protean_sim --rps nan", 2, "--rps needs a positive number"},
    {"protean_sim --horizon nan", 2, "--horizon needs a positive number"},
    {"protean_sim --warmup nan", 2, "--warmup needs a non-negative number"},
    {"protean_sim --warmup 30 --horizon 30", 2,
     "--warmup 30 must be below --horizon 30"},
    {"protean_sim --slo-mult nan", 2, "--slo-mult needs a value >= 1"},
    {"protean_sim --strict-frac nan", 2, "--strict-frac needs a value in"},
    {"protean_sim --p-rev inf", 2, "--p-rev needs a value in [0, 1]"},
    {"protean_sim --seed -1", 2, "--seed needs an unsigned integer"},
    {"protean_sim --sweep rps=1:nan:1", 2, "bad sweep spec"},
    {"protean_sim --sweep rps=-5:0:5", 2, "bad sweep spec"},
    {"protean_sim --sweep nodes=0:1:1", 2, "bad sweep spec"},
    {"protean_sim --sweep rps=1:1e12:1e-9", 2, "bad sweep spec"},
    {"protean_sim --autoscale bogus", 2, "unknown policy 'bogus'"},
    {"protean_sim --autoscale predictive:frob=1", 2, "unknown key 'frob'"},
    {"protean_sim --substrate hami", 2, "unknown substrate 'hami'"},
    {"protean_sim --substrate mps:penalty=1", 2, "unknown key 'penalty'"},
    {"protean_sim --workflow ring", 2, "unknown workflow 'ring'"},
    {"protean_sim --workflow chain:frob=1", 2, "unknown key 'frob'"},
    {"protean_sim --workflow chain:stages=100", 2, "bad value for 'stages'"},
    {"protean_sim --attr off", 2, "unknown attr mode 'off'"},
    {"protean_sim --attr on:alpha=9", 2, "bad value for 'alpha'"},
    {"protean_sim --trace-file zero.csv --rps 100", 2,
     "rate CSV has no positive rate"},
    {"protean_sim --trace-file gap.csv --rps 100", 2, "rate CSV line 2: "},
    {"protean_sim --trace-file short.csv", 2,
     "--warmup 20 must be below the 10 s of short.csv"},
    {"protean_sim --trace-file ''", 2, "--trace-file needs a file path"},
    {"protean_sim --memcache lru:16 --dump-mem-timeline ''", 2,
     "--dump-mem-timeline needs a file path"},
    // Only slo_explain ranks violation causes.
    {"trace_stats short.csv --top-causes 5", 2, "usage: trace_stats"},
    {"metrics_diff short.csv short.csv --top-causes 5", 2,
     "usage: metrics_diff"},
};

// "protean_sim --p-rev inf" prints as "p_rev_inf", and
// "trace_stats t.json --top-causes 5" as "trace_stats_top_causes_5".
void PrintTo(const Reject& row, std::ostream* os) {
  const std::size_t tool_end = row.command.find(' ');
  std::string name = row.command.substr(row.command.find(" --") + 3);
  if (row.command.compare(0, tool_end, "protean_sim") != 0) {
    name = row.command.substr(0, tool_end) + " " + name;
  }
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  *os << name;
}

class CliGateReject : public ::testing::TestWithParam<Reject> {};

TEST_P(CliGateReject, ExitsWithMessage) {
  const Reject& row = GetParam();
  const std::string dir = temp_path("reject");
  std::filesystem::create_directories(dir);
  spit(dir + "/zero.csv", "second,rps\n0,0\n1,0\n");
  spit(dir + "/gap.csv", "0,1\n99999999999,1\n");
  std::string ten_seconds;
  for (int t = 0; t < 10; ++t) ten_seconds += std::to_string(t) + ",100\n";
  spit(dir + "/short.csv", ten_seconds);
  std::string err;
  EXPECT_EQ(run_in(dir, row.command, nullptr, &err), row.status) << err;
  EXPECT_NE(err.find(row.message), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Reject, CliGateReject, ::testing::ValuesIn(kReject));

}  // namespace
}  // namespace protean
