// Tests for the CLI option parser.
#include "harness/options.h"

#include <gtest/gtest.h>

#include <cctype>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace protean::harness {
namespace {

CliOptions must_parse(const std::vector<std::string>& args) {
  auto result = parse_cli(args);
  EXPECT_TRUE(result.options) << result.error;
  return std::move(*result.options);
}

std::string must_fail(const std::vector<std::string>& args) {
  auto result = parse_cli(args);
  EXPECT_FALSE(result.options);
  return result.error;
}

TEST(Cli, DefaultsMatchPrimaryConfig) {
  const auto opts = must_parse({});
  EXPECT_EQ(opts.config.strict_model, "ResNet 50");
  EXPECT_EQ(opts.config.cluster.node_count, 8u);
  EXPECT_DOUBLE_EQ(opts.config.trace.target_rps, 5000.0);
  EXPECT_EQ(opts.schemes, std::vector<sched::Scheme>{sched::Scheme::kProtean});
  EXPECT_FALSE(opts.json);
  EXPECT_EQ(opts.config.cluster.market.policy,
            spot::ProcurementPolicy::kOnDemandOnly);
}

TEST(Registry, ParseSchemeRoundTripsEveryScheme) {
  // Both the display name and the CLI name must parse back to the same
  // enumerator, for every scheme, so tool listings can never drift.
  EXPECT_EQ(sched::all_schemes().size(), 14u);
  for (sched::Scheme scheme : sched::all_schemes()) {
    EXPECT_EQ(sched::parse_scheme(sched::scheme_name(scheme)), scheme)
        << sched::scheme_name(scheme);
    EXPECT_EQ(sched::parse_scheme(sched::scheme_cli_name(scheme)), scheme)
        << sched::scheme_cli_name(scheme);
    // The CLI accepts every name the registry lists.
    EXPECT_EQ(scheme_from_alias(sched::scheme_cli_name(scheme)), scheme);
  }
  EXPECT_EQ(sched::parse_scheme("no-such-scheme"), std::nullopt);
}

TEST(Cli, SweepFlags) {
  const auto opts = must_parse(
      {"--seeds", "5", "--jobs", "8", "--sweep", "rps=1000:3000:1000"});
  EXPECT_EQ(opts.seeds, 5u);
  EXPECT_EQ(opts.jobs, 8);
  EXPECT_TRUE(opts.is_sweep());
  EXPECT_EQ(opts.sweep_axis.param, SweepAxis::Param::kRps);
  EXPECT_EQ(opts.sweep_axis.values().size(), 3u);

  const auto sweep = opts.sweep_config();
  EXPECT_EQ(sweep.replications, 5u);
  EXPECT_EQ(sweep.grid().size(), 3u * 1u * 5u);

  EXPECT_FALSE(must_parse({}).is_sweep());
  EXPECT_FALSE(parse_cli({"--seeds", "0"}).options);
  EXPECT_FALSE(parse_cli({"--jobs", "0"}).options);
  EXPECT_FALSE(parse_cli({"--sweep", "bogus"}).options);
  EXPECT_FALSE(parse_cli({"--sweep", "rps=5:1:1"}).options);
  // Non-finite, out-of-range and oversized axes (the full range table is
  // in sweep_test.cpp) fail at parse time, not mid-grid.
  for (const char* bad : {"rps=1:nan:1", "nodes=0:1:1", "rps=1:1e12:1e-9"}) {
    EXPECT_NE(must_fail({"--sweep", bad}).find("bad sweep spec"),
              std::string::npos)
        << bad;
  }
}

TEST(Cli, SchemeAliases) {
  EXPECT_EQ(scheme_from_alias("protean"), sched::Scheme::kProtean);
  EXPECT_EQ(scheme_from_alias("INFless"), sched::Scheme::kInflessLlama);
  EXPECT_EQ(scheme_from_alias("Molecule"), sched::Scheme::kMoleculeBeta);
  EXPECT_EQ(scheme_from_alias("protean-no-eta"),
            sched::Scheme::kProteanNoEta);
  EXPECT_EQ(scheme_from_alias("bogus"), std::nullopt);
}

TEST(Cli, SchemeFlagIsRepeatable) {
  const auto opts =
      must_parse({"--scheme", "protean", "--scheme", "molecule"});
  ASSERT_EQ(opts.schemes.size(), 2u);
  EXPECT_EQ(opts.schemes[1], sched::Scheme::kMoleculeBeta);
}

TEST(Cli, AllSchemesExpandsPaperList) {
  const auto opts = must_parse({"--all-schemes"});
  EXPECT_EQ(opts.schemes.size(), 4u);
}

TEST(Cli, ModelSelectionAdjustsLanguageRate) {
  const auto opts = must_parse({"--model", "ALBERT"});
  EXPECT_EQ(opts.config.strict_model, "ALBERT");
  EXPECT_DOUBLE_EQ(opts.config.trace.target_rps, 128.0);
}

TEST(Cli, ExplicitRpsOverridesModelDefault) {
  const auto opts = must_parse({"--model", "ALBERT", "--rps", "256"});
  EXPECT_DOUBLE_EQ(opts.config.trace.target_rps, 256.0);
}

TEST(Cli, UnknownModelFails) {
  EXPECT_NE(must_fail({"--model", "GPT-9"}).find("unknown model"),
            std::string::npos);
}

TEST(Cli, TwitterTraceScalesToPeak) {
  const auto opts = must_parse({"--trace", "twitter"});
  EXPECT_EQ(opts.config.trace.kind, trace::TraceKind::kTwitter);
  EXPECT_TRUE(opts.config.trace.scale_to_peak);
}

TEST(Cli, TraceFileValueEnablesTimelineOutput) {
  // A --trace value that is not a built-in workload kind is a span-trace
  // output spec; the workload trace kind stays at its default.
  const auto opts = must_parse({"--trace", "out/run.json"});
  EXPECT_EQ(opts.config.trace.kind, trace::TraceKind::kWiki);
  EXPECT_TRUE(opts.config.trace_out.enabled());
  EXPECT_EQ(opts.config.trace_out.path, "out/run.json");
  EXPECT_EQ(opts.config.trace_out.categories, obs::kAllCategories);
}

TEST(Cli, TraceFilterSelectsCategories) {
  const auto opts = must_parse({"--trace", "run.json:sched,counters"});
  EXPECT_TRUE(opts.config.trace_out.enabled());
  EXPECT_EQ(opts.config.trace_out.path, "run.json");
  EXPECT_EQ(opts.config.trace_out.categories,
            obs::kSched | obs::kCounters);
  EXPECT_FALSE((opts.config.trace_out.categories & obs::kSpans) != 0);
}

// parse_cli is the only parser of the --trace and --telemetry FILE specs.
TEST(Cli, TraceAndTelemetrySpecsParseOrFail) {
  const auto trace = must_parse({"--trace", "t.json:sched,spans"});
  EXPECT_EQ(trace.config.trace_out.path, "t.json");
  EXPECT_EQ(trace.config.trace_out.categories, obs::kSpans | obs::kSched);
  const auto plain = must_parse({"--telemetry", "out.jsonl"});
  EXPECT_EQ(plain.config.telemetry.path, "out.jsonl");
  EXPECT_DOUBLE_EQ(plain.config.telemetry.interval, 10.0);
  const auto timed = must_parse({"--telemetry", "out.jsonl:2.5"});
  EXPECT_EQ(timed.config.telemetry.path, "out.jsonl");
  EXPECT_DOUBLE_EQ(timed.config.telemetry.interval, 2.5);

  const std::pair<std::string, std::string> kRejected[] = {
      {"--trace", "t.json:"},        {"--trace", "t.json:bogus"},
      {"--trace", "t.json:spans,"},  {"--trace", ":spans"},
      {"--trace", ""},               {"--telemetry", "f.jsonl:0"},
      {"--telemetry", "f.jsonl:-1"}, {"--telemetry", "f.jsonl:abc"},
      {"--telemetry", ":5"},         {"--telemetry", ""},
  };
  for (const auto& [flag, spec] : kRejected) {
    EXPECT_NE(must_fail({flag, spec}).find("bad " + flag + " value"),
              std::string::npos)
        << flag << " '" << spec << "'";
  }
}

TEST(Cli, EmptyFilePathsFail) {
  EXPECT_NE(must_fail({"--trace-file", ""}).find(
                "--trace-file needs a file path"),
            std::string::npos);
  EXPECT_NE(must_fail({"--trace-file"}).find("--trace-file needs a file path"),
            std::string::npos);
  EXPECT_NE(must_fail({"--memcache", "lru:16", "--dump-mem-timeline", ""})
                .find("--dump-mem-timeline needs a file path"),
            std::string::npos);
}

TEST(Cli, BadTraceFilterFails) {
  EXPECT_NE(must_fail({"--trace", "run.json:bogus"}).find("bad --trace"),
            std::string::npos);
}

TEST(Cli, NumericValidation) {
  EXPECT_FALSE(parse_cli({"--rps", "-5"}).options);
  EXPECT_FALSE(parse_cli({"--rps", "abc"}).options);
  EXPECT_FALSE(parse_cli({"--strict-frac", "1.5"}).options);
  EXPECT_FALSE(parse_cli({"--nodes", "0"}).options);
  EXPECT_FALSE(parse_cli({"--slo-mult", "0.5"}).options);
  EXPECT_FALSE(parse_cli({"--p-rev", "2"}).options);
  EXPECT_FALSE(parse_cli({"--horizon"}).options);  // missing value
}

TEST(Cli, UnknownFlagFails) {
  EXPECT_NE(must_fail({"--frobnicate"}).find("unknown option"),
            std::string::npos);
}

TEST(Cli, SpotPolicyAndPrev) {
  const auto opts = must_parse({"--spot", "hybrid", "--p-rev", "0.354"});
  EXPECT_EQ(opts.config.cluster.market.policy,
            spot::ProcurementPolicy::kHybrid);
  EXPECT_DOUBLE_EQ(opts.config.cluster.market.p_rev, 0.354);
}

struct SpotCase {
  const char* name;
  spot::ProcurementPolicy policy;
};

class SpotFlag : public ::testing::TestWithParam<SpotCase> {};

TEST_P(SpotFlag, PicksItsPolicyInAnyCase) {
  const SpotCase& c = GetParam();
  EXPECT_EQ(must_parse({"--spot", c.name}).config.cluster.market.policy,
            c.policy);
  std::string upper = c.name;
  for (char& ch : upper) {
    ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  }
  EXPECT_EQ(must_parse({"--spot", upper}).config.cluster.market.policy,
            c.policy);
}

INSTANTIATE_TEST_SUITE_P(
    Cli, SpotFlag,
    ::testing::Values(
        SpotCase{"on-demand", spot::ProcurementPolicy::kOnDemandOnly},
        SpotCase{"spot-only", spot::ProcurementPolicy::kSpotOnly},
        SpotCase{"hybrid", spot::ProcurementPolicy::kHybrid}),
    [](const ::testing::TestParamInfo<SpotCase>& param) {
      std::string name = param.param.name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Cli, SpotRejectsPolicyNamesItDoesNotList) {
  for (const char* bad : {"on-demand-only", "spot", "ondemand", ""}) {
    EXPECT_NE(must_fail({"--spot", bad}).find("unknown spot policy"),
              std::string::npos)
        << "--spot '" << bad << "'";
  }
  EXPECT_NE(must_fail({"--spot"}).find("--spot needs a value"),
            std::string::npos);
}

TEST(Cli, ClusterKnobsApply) {
  const auto opts = must_parse({"--nodes", "4", "--slo-mult", "2",
                                "--horizon", "30", "--warmup", "5",
                                "--strict-frac", "0.75", "--seed", "7"});
  EXPECT_EQ(opts.config.cluster.node_count, 4u);
  EXPECT_DOUBLE_EQ(opts.config.cluster.slo_multiplier, 2.0);
  EXPECT_DOUBLE_EQ(opts.config.trace.horizon, 30.0);
  EXPECT_DOUBLE_EQ(opts.config.warmup, 5.0);
  EXPECT_DOUBLE_EQ(opts.config.strict_fraction, 0.75);
  EXPECT_EQ(opts.config.seed, 7u);
}

TEST(Cli, ScaleFlagsApply) {
  // Default: one shard (docs/scale.md).
  EXPECT_EQ(must_parse({}).config.cluster.shards, 1u);
  EXPECT_EQ(must_parse({"--nodes", "16", "--shards", "4"}).config.cluster.shards,
            4u);

  EXPECT_FALSE(parse_cli({"--shards", "0"}).options);
  EXPECT_FALSE(parse_cli({"--shards", "2000"}).options);
  EXPECT_FALSE(parse_cli({"--shards"}).options);
  // The full-scan placement mode is gone; its flag is an unknown option.
  EXPECT_NE(must_fail({"--scale-mode", "legacy"}).find("unknown option"),
            std::string::npos);
}

TEST(Cli, NumbersRejectNonFiniteAndNegativeWrap) {
  // Every float flag goes through parse_spec_number, so nan/inf never reach
  // a CHECK or the JSON config; an unsigned flag never wraps "-1".
  for (const char* flag : {"--rps", "--horizon", "--warmup", "--strict-frac",
                           "--slo-mult", "--p-rev", "--gpu-mem", "--sketch"}) {
    for (const char* bad : {"nan", "inf", "-inf", ""}) {
      EXPECT_FALSE(parse_cli({flag, bad}).options) << flag << ' ' << bad;
    }
  }
  for (const char* flag :
       {"--seed", "--nodes", "--shards", "--seeds", "--jobs",
        "--fault-retries"}) {
    for (const char* bad : {"-1", " -1", "+1", "", "1.5"}) {
      EXPECT_FALSE(parse_cli({flag, bad}).options) << flag << " '" << bad
                                                   << "'";
    }
  }
  EXPECT_EQ(must_parse({"--seed", "18446744073709551615"}).config.seed,
            18446744073709551615ull);
  EXPECT_FALSE(parse_cli({"--seed", "18446744073709551616"}).options);
  EXPECT_NE(must_fail({"--seed", "-1"}).find("--seed"), std::string::npos);
}

TEST(Cli, HelpAndListFlags) {
  EXPECT_TRUE(must_parse({"--help"}).help);
  EXPECT_TRUE(must_parse({"--list-models"}).list_models);
  EXPECT_TRUE(must_parse({"--list-schemes"}).list_schemes);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(Cli, MissingTraceFileFails) {
  const std::string error = must_fail({"--trace-file", "/no/such/file.csv"});
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Cli, MemcacheDisabledByDefault) {
  const auto opts = must_parse({});
  EXPECT_FALSE(opts.config.cluster.memcache.enabled);
  EXPECT_DOUBLE_EQ(opts.config.cluster.gpu_memory_gb, 40.0);
  EXPECT_TRUE(opts.mem_timeline_file.empty());
  EXPECT_FALSE(opts.config.keep_mem_timeline);
}

TEST(Cli, MemcacheSpecRoundTrips) {
  const auto opts = must_parse({"--memcache", "gdsf:12.5"});
  EXPECT_TRUE(opts.config.cluster.memcache.enabled);
  EXPECT_EQ(opts.config.cluster.memcache.policy,
            memcache::EvictionPolicy::kGdsf);
  EXPECT_DOUBLE_EQ(opts.config.cluster.memcache.capacity_gb, 12.5);
  EXPECT_FALSE(opts.config.cluster.memcache.oversubscribe);

  // The --flag=value spelling parses identically.
  const auto eq = must_parse({"--memcache=lru:16"});
  EXPECT_TRUE(eq.config.cluster.memcache.enabled);
  EXPECT_EQ(eq.config.cluster.memcache.policy, memcache::EvictionPolicy::kLru);
  EXPECT_DOUBLE_EQ(eq.config.cluster.memcache.capacity_gb, 16.0);

  const auto oracle = must_parse({"--memcache", "ORACLE:4"});
  EXPECT_EQ(oracle.config.cluster.memcache.policy,
            memcache::EvictionPolicy::kOracle);
}

TEST(Cli, MemcacheOversubscribeComposesInAnyOrder) {
  const auto after = must_parse(
      {"--memcache", "lru:8", "--memcache-oversubscribe"});
  EXPECT_TRUE(after.config.cluster.memcache.enabled);
  EXPECT_TRUE(after.config.cluster.memcache.oversubscribe);
  const auto before = must_parse(
      {"--memcache-oversubscribe", "--memcache", "lru:8"});
  EXPECT_TRUE(before.config.cluster.memcache.enabled);
  EXPECT_TRUE(before.config.cluster.memcache.oversubscribe);
}

TEST(Cli, MemcacheBadSpecsFail) {
  for (const char* spec : {"bogus:4", "lru", "lru:", ":4", "lru:-2", "lru:0",
                           "lru:nan", "lru:12GB"}) {
    EXPECT_NE(must_fail({"--memcache", spec}).find("bad memcache spec"),
              std::string::npos)
        << spec;
  }
  EXPECT_FALSE(parse_cli({"--memcache"}).options);
}

TEST(Cli, GpuMemFlag) {
  const auto opts = must_parse({"--gpu-mem", "80"});
  EXPECT_DOUBLE_EQ(opts.config.cluster.gpu_memory_gb, 80.0);
  EXPECT_FALSE(parse_cli({"--gpu-mem", "0.5"}).options);
  EXPECT_FALSE(parse_cli({"--gpu-mem", "2048"}).options);
  EXPECT_FALSE(parse_cli({"--gpu-mem"}).options);
}

TEST(Cli, DumpMemTimelineFlag) {
  const auto opts = must_parse({"--dump-mem-timeline", "/tmp/timeline.json"});
  EXPECT_EQ(opts.mem_timeline_file, "/tmp/timeline.json");
  EXPECT_TRUE(opts.config.keep_mem_timeline);
  EXPECT_FALSE(parse_cli({"--dump-mem-timeline"}).options);
}

TEST(Cli, FaultsDisabledByDefault) {
  const auto opts = must_parse({});
  EXPECT_FALSE(opts.config.cluster.fault.enabled);
  EXPECT_TRUE(opts.config.cluster.fault.script.empty());
}

TEST(Cli, FaultSpecFlagParses) {
  const auto opts =
      must_parse({"--faults", "crash@10:n1,kill-rate=40,reconfig-fail=0.2"});
  const auto& fc = opts.config.cluster.fault;
  EXPECT_TRUE(fc.enabled);
  ASSERT_EQ(fc.script.size(), 1u);
  EXPECT_EQ(fc.script[0].node, 1u);
  EXPECT_DOUBLE_EQ(fc.kill_rate, 40.0);
  EXPECT_DOUBLE_EQ(fc.reconfig_fail_prob, 0.2);

  // The --flag=value spelling parses identically.
  const auto eq = must_parse({"--faults=ecc-rate=15"});
  EXPECT_TRUE(eq.config.cluster.fault.enabled);
  EXPECT_DOUBLE_EQ(eq.config.cluster.fault.ecc_rate, 15.0);

  EXPECT_NE(must_fail({"--faults", "bogus"}).find("bad fault spec"),
            std::string::npos);
  EXPECT_FALSE(parse_cli({"--faults"}).options);
}

TEST(Cli, FaultRetriesAndHedgeRequireFaults) {
  const auto opts = must_parse(
      {"--faults", "crash-rate=30", "--fault-retries", "5", "--hedge"});
  EXPECT_EQ(opts.config.cluster.fault.retry.max_retries, 5);
  EXPECT_TRUE(opts.config.cluster.fault.hedge.enabled);

  EXPECT_NE(must_fail({"--fault-retries", "5"}).find("require --faults"),
            std::string::npos);
  EXPECT_NE(must_fail({"--hedge"}).find("require --faults"),
            std::string::npos);
  EXPECT_FALSE(parse_cli({"--faults", "crash-rate=1", "--fault-retries", "-1"})
                   .options);
}

TEST(Cli, AutoscaleDisabledByDefault) {
  const auto opts = must_parse({});
  EXPECT_FALSE(opts.config.cluster.autoscale.enabled);
}

TEST(Cli, AutoscaleFlagParses) {
  const auto opts = must_parse(
      {"--autoscale",
       "predictive:tick=5,min=4,max=12,step-up=3,step-down=2,settle=2,"
       "util=55,warm=6,headroom=1.3,no-vertical,no-prefetch,on-demand"});
  const auto& ac = opts.config.cluster.autoscale;
  EXPECT_TRUE(ac.enabled);
  EXPECT_EQ(ac.policy, autoscale::PolicyKind::kPredictive);
  EXPECT_DOUBLE_EQ(ac.tick, 5.0);
  EXPECT_EQ(ac.min_nodes, 4u);
  EXPECT_EQ(ac.max_nodes, 12u);
  EXPECT_EQ(ac.max_step_up, 3);
  EXPECT_EQ(ac.max_step_down, 2);
  EXPECT_EQ(ac.settle_ticks, 2);
  EXPECT_DOUBLE_EQ(ac.target_util_pct, 55.0);
  EXPECT_EQ(ac.warm_target, 6);
  EXPECT_DOUBLE_EQ(ac.headroom, 1.3);
  EXPECT_FALSE(ac.vertical);
  EXPECT_FALSE(ac.prefetch);
  EXPECT_FALSE(ac.prefer_spot);

  // A bare policy and the --flag=value spelling both parse.
  const auto eq = must_parse({"--autoscale=reactive"});
  EXPECT_TRUE(eq.config.cluster.autoscale.enabled);
  EXPECT_EQ(eq.config.cluster.autoscale.policy,
            autoscale::PolicyKind::kReactive);
  EXPECT_TRUE(eq.config.cluster.autoscale.vertical);
}

TEST(Cli, AutoscaleErrorPathsAreClear) {
  // FlagSpec's uniform errors surface through the flag's message: unknown
  // policy / unknown key / malformed value / stray token all name the
  // offending part.
  EXPECT_NE(must_fail({"--autoscale", "bogus"}).find("unknown policy 'bogus'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--autoscale", "predictive:frob=1"})
                .find("unknown key 'frob'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--autoscale", "reactive:tick=fast"})
                .find("bad value for 'tick'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--autoscale", "reactive:frobnob"})
                .find("unexpected token 'frobnob'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--autoscale", "predictive:min=9,max=4"})
                .find("min > max"),
            std::string::npos);
  EXPECT_FALSE(parse_cli({"--autoscale"}).options);
  EXPECT_FALSE(parse_cli({"--autoscale", "predictive:"}).options);
}

TEST(Cli, SubstrateDisabledByDefault) {
  const auto opts = must_parse({});
  EXPECT_FALSE(opts.config.cluster.softgpu.enabled);
}

TEST(Cli, SubstrateFlagParses) {
  const auto opts = must_parse(
      {"--substrate",
       "softslice:discipline=timeslice,penalty=0.4,oversub=2,switch=0.05,"
       "swap=1.5,nodes=0.5"});
  const auto& sg = opts.config.cluster.softgpu;
  EXPECT_TRUE(sg.enabled);
  EXPECT_EQ(sg.mode, gpu::SharingMode::kSoftSlice);
  EXPECT_EQ(sg.discipline, softgpu::Discipline::kTimeSlice);
  EXPECT_DOUBLE_EQ(sg.cross_penalty, 0.4);
  EXPECT_DOUBLE_EQ(sg.mem_oversub, 2.0);
  EXPECT_DOUBLE_EQ(sg.switch_overhead, 0.05);
  EXPECT_DOUBLE_EQ(sg.swap_penalty, 1.5);
  EXPECT_DOUBLE_EQ(sg.node_fraction, 0.5);

  // Bare modes and the --flag=value spelling both parse.
  const auto mps = must_parse({"--substrate=mps"});
  EXPECT_TRUE(mps.config.cluster.softgpu.enabled);
  EXPECT_EQ(mps.config.cluster.softgpu.mode, gpu::SharingMode::kMps);
  const auto ts = must_parse({"--substrate", "timeshare"});
  EXPECT_EQ(ts.config.cluster.softgpu.mode, gpu::SharingMode::kTimeShare);
}

TEST(Cli, SubstrateErrorPathsAreClear) {
  EXPECT_NE(must_fail({"--substrate", "hami"}).find("unknown substrate"),
            std::string::npos);
  EXPECT_NE(must_fail({"--substrate", "softslice:discipline=rr"})
                .find("bad discipline 'rr'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--substrate", "softslice:frob=1"})
                .find("unknown key 'frob'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--substrate", "softslice:penalty=hot"})
                .find("bad value for 'penalty'"),
            std::string::npos);
  // Soft-model knobs are meaningless on a hardware substrate.
  EXPECT_NE(must_fail({"--substrate", "mps:penalty=0.4"})
                .find("unknown key 'penalty'"),
            std::string::npos);
  EXPECT_FALSE(parse_cli({"--substrate"}).options);
  EXPECT_FALSE(parse_cli({"--substrate", "softslice:oversub=32"}).options);
  EXPECT_FALSE(parse_cli({"--substrate", "softslice:nodes=1.5"}).options);
}

TEST(Cli, WorkflowDisabledByDefault) {
  const auto opts = must_parse({});
  EXPECT_FALSE(opts.config.cluster.workflow.enabled);
}

TEST(Cli, WorkflowFlagParses) {
  const auto opts = must_parse(
      {"--workflow", "diamond:transfer=256,bw=8,hop=0.01"});
  const auto& wf = opts.config.cluster.workflow;
  EXPECT_TRUE(wf.enabled);
  EXPECT_EQ(wf.shape, workflow::DagShape::kDiamond);
  EXPECT_DOUBLE_EQ(wf.transfer_mb, 256.0);
  EXPECT_DOUBLE_EQ(wf.bw_gbps, 8.0);
  EXPECT_DOUBLE_EQ(wf.hop_latency, 0.01);

  // Bare shapes, shape-specific knobs and the --flag=value spelling.
  const auto chain = must_parse({"--workflow=chain:stages=5"});
  EXPECT_EQ(chain.config.cluster.workflow.shape, workflow::DagShape::kChain);
  EXPECT_EQ(chain.config.cluster.workflow.chain_stages, 5);
  const auto fanout = must_parse({"--workflow", "fanout:width=4"});
  EXPECT_EQ(fanout.config.cluster.workflow.fanout_width, 4);
  const auto shared = must_parse({"--workflow", "shared"});
  EXPECT_EQ(shared.config.cluster.workflow.shape,
            workflow::DagShape::kShared);
}

TEST(Cli, WorkflowErrorPathsAreClear) {
  EXPECT_NE(must_fail({"--workflow", "tree"}).find("unknown workflow"),
            std::string::npos);
  EXPECT_NE(must_fail({"--workflow", "chain:frob=1"})
                .find("unknown key 'frob'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--workflow", "chain:stages=ten"})
                .find("bad value for 'stages'"),
            std::string::npos);
  EXPECT_FALSE(parse_cli({"--workflow"}).options);
  EXPECT_FALSE(parse_cli({"--workflow", "chain:"}).options);
  EXPECT_FALSE(parse_cli({"--workflow", "chain:stages=100"}).options);
  EXPECT_FALSE(parse_cli({"--workflow", "fanout:width=1"}).options);
}

// --model sets only the strict model and, unless --rps is given, its
// default rate; every other flag keeps its value in either flag order.
TEST(Cli, FlagsSurviveModelSelectionInEitherOrder) {
  using Check = std::function<void(const ExperimentConfig&)>;
  const std::vector<std::pair<std::vector<std::string>, Check>> cases = {
      {{"--trace", "run.json:spans"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.trace_out.enabled());
         EXPECT_EQ(c.trace_out.categories, static_cast<unsigned>(obs::kSpans));
       }},
      {{"--faults", "crash-rate=30"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.cluster.fault.enabled);
         EXPECT_DOUBLE_EQ(c.cluster.fault.crash_rate, 30.0);
       }},
      {{"--autoscale", "predictive:max=12"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.cluster.autoscale.enabled);
         EXPECT_EQ(c.cluster.autoscale.max_nodes, 12u);
       }},
      {{"--substrate", "softslice:penalty=0.4"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.cluster.softgpu.enabled);
         EXPECT_DOUBLE_EQ(c.cluster.softgpu.cross_penalty, 0.4);
       }},
      {{"--workflow", "diamond:transfer=128"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.cluster.workflow.enabled);
         EXPECT_DOUBLE_EQ(c.cluster.workflow.transfer_mb, 128.0);
       }},
      {{"--memcache", "gdsf:12.5"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.cluster.memcache.enabled);
         EXPECT_DOUBLE_EQ(c.cluster.memcache.capacity_gb, 12.5);
       }},
      {{"--telemetry", "m.jsonl:5"},
       [](const ExperimentConfig& c) {
         EXPECT_EQ(c.telemetry.path, "m.jsonl");
         EXPECT_DOUBLE_EQ(c.telemetry.interval, 5.0);
       }},
      {{"--attr", "on:alpha=0.02"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.cluster.attr.enabled);
         EXPECT_DOUBLE_EQ(c.cluster.attr.sketch_alpha, 0.02);
       }},
      {{"--sketch", "0.05"},
       [](const ExperimentConfig& c) {
         EXPECT_TRUE(c.sketch_collector);
         EXPECT_DOUBLE_EQ(c.sketch_alpha, 0.05);
       }},
      {{"--dump-mem-timeline", "mem.json"},
       [](const ExperimentConfig& c) { EXPECT_TRUE(c.keep_mem_timeline); }},
      {{"--warmup", "7"},
       [](const ExperimentConfig& c) { EXPECT_DOUBLE_EQ(c.warmup, 7.0); }},
      {{"--seed", "9"},
       [](const ExperimentConfig& c) { EXPECT_EQ(c.seed, 9u); }},
  };
  const std::vector<std::string> model = {"--model", "ALBERT"};
  for (const auto& [flag, check] : cases) {
    for (const bool model_first : {true, false}) {
      SCOPED_TRACE(flag[0] + (model_first ? " after" : " before") + " --model");
      auto args = flag;
      args.insert(model_first ? args.begin() : args.end(), model.begin(),
                  model.end());
      const auto opts = must_parse(args);
      EXPECT_EQ(opts.config.strict_model, "ALBERT");
      EXPECT_DOUBLE_EQ(opts.config.trace.target_rps, 128.0);
      check(opts.config);
    }
  }
}

TEST(Cli, SpecFlagsReportFlagSpecDetail) {
  // The legacy spec flags ride the same FlagSpec layer; their pinned
  // "bad ... spec" prefixes now carry the uniform detail.
  EXPECT_NE(must_fail({"--memcache", "lru"}).find("missing capacity"),
            std::string::npos);
  EXPECT_NE(must_fail({"--memcache", "frob:16"}).find("unknown policy 'frob'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--faults", "crash-rate=abc"})
                .find("bad value for 'crash-rate'"),
            std::string::npos);
  EXPECT_NE(must_fail({"--faults", "bogus"}).find("bad token 'bogus'"),
            std::string::npos);
}

// ---- --help audit: the usage text and the parser can never drift ----------

TEST(Cli, EveryAcceptedFlagIsDocumented) {
  const std::string usage = cli_usage();
  for (const std::string& flag : cli_flags()) {
    EXPECT_NE(usage.find(flag), std::string::npos)
        << flag << " accepted by the parser but missing from --help";
  }
}

TEST(Cli, EveryDocumentedFlagIsAccepted) {
  // Extract every --token mentioned anywhere in the usage text (including
  // examples) and require the parser to know it.
  const std::string usage = cli_usage();
  std::vector<std::string> mentioned;
  for (std::size_t pos = usage.find("--"); pos != std::string::npos;
       pos = usage.find("--", pos + 2)) {
    std::size_t end = pos + 2;
    while (end < usage.size() &&
           (std::isalnum(static_cast<unsigned char>(usage[end])) != 0 ||
            usage[end] == '-')) {
      ++end;
    }
    if (end > pos + 2) mentioned.push_back(usage.substr(pos, end - pos));
    pos = end;
  }
  EXPECT_FALSE(mentioned.empty());
  const auto& known = cli_flags();
  for (const std::string& flag : mentioned) {
    EXPECT_NE(std::find(known.begin(), known.end(), flag), known.end())
        << flag << " appears in --help but the parser does not accept it";
  }
}

TEST(Cli, FlagListHasNoDuplicates) {
  auto flags = cli_flags();
  std::sort(flags.begin(), flags.end());
  EXPECT_EQ(std::adjacent_find(flags.begin(), flags.end()), flags.end());
}

// ---- spec flags under one-byte mutations ------------------------------------

// Deterministic mutation loop: every one-byte deletion, insertion or
// replacement (from a fixed alphabet) of a valid spec for each spec-valued
// flag either parses or returns an error. It never throws or aborts.
TEST(Cli, SpecFlagMutantsParseOrFail) {
  const std::pair<const char*, std::string> kValid[] = {
      {"--faults", "crash@10:n1,kill-rate=40,reconfig-fail=0.2,ecc-rate=15"},
      {"--autoscale",
       "predictive:tick=5,min=4,max=12,step-up=3,settle=2,util=55,"
       "headroom=1.3,no-prefetch"},
      {"--memcache", "gdsf:12.5"},
      {"--substrate",
       "softslice:discipline=timeslice,penalty=0.4,oversub=2,nodes=0.5"},
      {"--workflow", "diamond:transfer=256,bw=8,hop=0.01"},
      {"--workflow", "chain:stages=5"},
      {"--attr", "on:alpha=0.02"},
  };
  const std::string alphabet = "0123456789.,:=@-+_eEnaxiz ";
  std::size_t parsed = 0, failed = 0;
  for (const auto& [flag, valid] : kValid) {
    ASSERT_TRUE(parse_cli({flag, valid}).options) << flag << " " << valid;
    std::vector<std::string> mutants;
    for (std::size_t i = 0; i <= valid.size(); ++i) {
      if (i < valid.size()) {
        mutants.push_back(valid.substr(0, i) + valid.substr(i + 1));
      }
      for (char c : alphabet) {
        mutants.push_back(valid.substr(0, i) + c + valid.substr(i));
        if (i < valid.size() && valid[i] != c) {
          std::string replaced = valid;
          replaced[i] = c;
          mutants.push_back(std::move(replaced));
        }
      }
    }
    for (const std::string& mutant : mutants) {
      CliParseResult result;
      EXPECT_NO_THROW(result = parse_cli({flag, mutant}))
          << flag << " " << mutant;
      if (result.options) {
        ++parsed;
      } else {
        EXPECT_FALSE(result.error.empty()) << flag << " " << mutant;
        ++failed;
      }
    }
  }
  // Both outcomes occur, so the loop reaches past the lexer.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace protean::harness
