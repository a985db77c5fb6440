#include "harness/options.h"

#include <algorithm>
#include <cctype>
#include <map>

#include "attr/config.h"
#include "autoscale/policy.h"
#include "common/parse.h"
#include "common/strfmt.h"
#include "fault/config.h"
#include "harness/flagspec.h"
#include "memcache/config.h"
#include "gpu/sharing.h"
#include "obs/trace.h"
#include "softgpu/substrate.h"
#include "workflow/config.h"
#include "telemetry/pipeline.h"
#include "trace/io.h"
#include "workload/model.h"

namespace protean::harness {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// The spec-valued flags below all sit on harness::FlagSpec, which owns the
// lexical layer (head split, comma list, KEY=VALUE items, uniform error
// strings); only the value semantics stay per-flag.

/// Parses a "POLICY:GB" memcache spec (e.g. "lru:16" or "gdsf:12.5").
std::optional<memcache::MemCacheConfig> parse_memcache_spec(
    const std::string& spec, memcache::MemCacheConfig base,
    std::string* why = nullptr) {
  FlagSpec fs(spec, FlagSpec::Head::kFirstColon);
  std::optional<memcache::EvictionPolicy> policy;
  if (fs.ok()) {
    policy = memcache::parse_policy(lower(fs.head()));
    if (!policy) fs.fail("unknown policy '" + fs.head() + "'");
  }
  const auto capacity = fs.positional(0);
  if (fs.ok() && !capacity) fs.fail("missing capacity");
  std::optional<double> gb;
  if (capacity) {
    gb = parse_spec_number(*capacity);
    if (!gb || !(*gb > 0.0)) {
      fs.fail("bad capacity '" + *capacity + "' (want GB > 0)");
    }
  }
  if (!fs.finish()) {
    if (why != nullptr) *why = fs.error();
    return std::nullopt;
  }
  base.enabled = true;
  base.policy = *policy;
  base.capacity_gb = *gb;
  return base;
}

/// Parses a `--faults` item list (no head) into `base` via the fault
/// subsystem's leaf parsers: bare tokens are scripted events, KEY=VALUE
/// items are rate/recovery knobs.
std::optional<fault::FaultConfig> parse_faults_flag(
    const std::string& spec, fault::FaultConfig base,
    std::string* why = nullptr) {
  FlagSpec fs(spec, FlagSpec::Head::kNone);
  for (std::size_t i = 0; i < fs.items().size() && fs.ok(); ++i) {
    const SpecItem& item = fs.items()[i];
    if (!item.keyed) {
      const auto scripted = fault::parse_scripted_fault(item.key);
      if (!scripted) {
        fs.fail("bad token '" + item.key + "' (want KIND@T:nID)");
        break;
      }
      base.script.push_back(*scripted);
    } else {
      const auto value = parse_spec_number(item.value);
      if (!value || !fault::apply_fault_knob(base, item.key, *value)) {
        fs.fail("bad value for '" + item.key + "': '" + item.value + "'");
        break;
      }
    }
    fs.consume(i);
  }
  if (!fs.finish()) {
    if (why != nullptr) *why = fs.error();
    return std::nullopt;
  }
  base.enabled = true;
  return base;
}

/// Parses a timeline-trace output spec, FILE[:FILTER] with FILTER a comma
/// list from spans | counters | sched.
std::optional<obs::TraceOptions> parse_trace_out_spec(const std::string& spec) {
  FlagSpec fs(spec, FlagSpec::Head::kLastColon);
  obs::TraceOptions out;
  out.path = fs.head();
  if (!fs.items().empty()) {
    out.categories = 0;
    while (fs.present("spans")) out.categories |= obs::kSpans;
    while (fs.present("counters")) out.categories |= obs::kCounters;
    while (fs.present("sched")) out.categories |= obs::kSched;
  }
  if (!fs.finish()) return std::nullopt;
  return out;
}

/// Parses a `--telemetry` FILE[:INTERVAL] spec.
std::optional<telemetry::TelemetryOptions> parse_telemetry_spec(
    const std::string& spec) {
  FlagSpec fs(spec, FlagSpec::Head::kLastColon);
  telemetry::TelemetryOptions out;
  out.path = fs.head();
  if (!fs.items().empty()) {
    const auto interval = fs.positional_num(0, 1e-9, 1e12);
    if (interval) out.interval = *interval;
  }
  if (!fs.finish()) return std::nullopt;
  return out;
}

/// Parses an `--autoscale` POLICY[:KEY=V,...] spec (docs/autoscale.md).
std::optional<autoscale::AutoscaleConfig> parse_autoscale_spec(
    const std::string& spec, autoscale::AutoscaleConfig base,
    std::string* why = nullptr) {
  FlagSpec fs(spec, FlagSpec::Head::kFirstColon);
  if (fs.ok()) {
    const auto policy = autoscale::parse_policy(fs.head());
    if (!policy) {
      fs.fail("unknown policy '" + fs.head() +
              "' (want reactive | predictive)");
    } else {
      base.policy = *policy;
    }
  }
  if (const auto v = fs.num("tick", 0.1, 3600.0)) base.tick = *v;
  if (const auto v = fs.count("min", 1, 1024)) base.min_nodes = *v;
  if (const auto v = fs.count("max", 1, 1024)) base.max_nodes = *v;
  if (const auto v = fs.count("step-up", 1, 64)) {
    base.max_step_up = static_cast<int>(*v);
  }
  if (const auto v = fs.count("step-down", 1, 64)) {
    base.max_step_down = static_cast<int>(*v);
  }
  if (const auto v = fs.count("settle", 1, 100)) {
    base.settle_ticks = static_cast<int>(*v);
  }
  if (const auto v = fs.num("util", 1.0, 100.0)) base.target_util_pct = *v;
  if (const auto v = fs.count("warm", 0, 64)) {
    base.warm_target = static_cast<int>(*v);
  }
  if (const auto v = fs.num("headroom", 1.0, 4.0)) base.headroom = *v;
  if (fs.present("no-vertical")) base.vertical = false;
  if (fs.present("no-prefetch")) base.prefetch = false;
  if (fs.present("on-demand")) base.prefer_spot = false;
  if (fs.ok() && base.min_nodes != 0 && base.max_nodes != 0 &&
      base.min_nodes > base.max_nodes) {
    fs.fail("min > max");
  }
  if (!fs.finish()) {
    if (why != nullptr) *why = fs.error();
    return std::nullopt;
  }
  base.enabled = true;
  return base;
}

/// Parses a `--substrate` MODE[:KEY=V,...] spec (docs/softgpu.md).
std::optional<softgpu::SoftGpuConfig> parse_substrate_spec(
    const std::string& spec, softgpu::SoftGpuConfig base,
    std::string* why = nullptr) {
  FlagSpec fs(spec, FlagSpec::Head::kFirstColon);
  if (fs.ok()) {
    const auto mode = gpu::parse_sharing_mode(fs.head());
    if (!mode) {
      fs.fail("unknown substrate '" + fs.head() +
              "' (want timeshare | mps | softslice)");
    } else {
      base.mode = *mode;
    }
  }
  if (fs.ok() && base.mode == gpu::SharingMode::kSoftSlice) {
    // The soft-model knobs only mean something on the soft substrate;
    // finish() rejects them (unknown key) after a hardware-mode head.
    if (const auto v = fs.str("discipline")) {
      const auto discipline = softgpu::parse_discipline(*v);
      if (!discipline) {
        fs.fail("bad discipline '" + *v + "' (want fraction | timeslice)");
      } else {
        base.discipline = *discipline;
      }
    }
    if (const auto v = fs.num("penalty", 0.0, 10.0)) base.cross_penalty = *v;
    if (const auto v = fs.num("oversub", 1.0, 16.0)) base.mem_oversub = *v;
    if (const auto v = fs.num("switch", 0.0, 1.0)) base.switch_overhead = *v;
    if (const auto v = fs.num("swap", 0.0, 100.0)) base.swap_penalty = *v;
    if (const auto v = fs.num("nodes", 0.0, 1.0)) base.node_fraction = *v;
  }
  if (!fs.finish()) {
    if (why != nullptr) *why = fs.error();
    return std::nullopt;
  }
  base.enabled = true;
  return base;
}

/// Parses a `--workflow` SHAPE[:KEY=V,...] spec (docs/workflows.md).
std::optional<workflow::WorkflowConfig> parse_workflow_spec(
    const std::string& spec, workflow::WorkflowConfig base,
    std::string* why = nullptr) {
  FlagSpec fs(spec, FlagSpec::Head::kFirstColon);
  if (fs.ok()) {
    const auto shape = workflow::parse_shape(fs.head());
    if (!shape) {
      fs.fail("unknown workflow '" + fs.head() +
              "' (want chain | fanout | diamond | shared)");
    } else {
      base.shape = *shape;
    }
  }
  if (const auto v = fs.count("stages", 2, 8)) {
    base.chain_stages = static_cast<int>(*v);
  }
  if (const auto v = fs.count("width", 2, 6)) {
    base.fanout_width = static_cast<int>(*v);
  }
  if (const auto v = fs.num("transfer", 0.0, 65536.0)) base.transfer_mb = *v;
  if (const auto v = fs.num("bw", 0.1, 1024.0)) base.bw_gbps = *v;
  if (const auto v = fs.num("hop", 0.0, 1.0)) base.hop_latency = *v;
  if (!fs.finish()) {
    if (why != nullptr) *why = fs.error();
    return std::nullopt;
  }
  base.enabled = true;
  return base;
}

/// Parses an `--attr` on[:KEY=V,...] spec (docs/attribution.md).
std::optional<attr::AttrConfig> parse_attr_spec(const std::string& spec,
                                                attr::AttrConfig base,
                                                std::string* why = nullptr) {
  FlagSpec fs(spec, FlagSpec::Head::kFirstColon);
  if (fs.ok() && fs.head() != "on") {
    fs.fail("unknown attr mode '" + fs.head() + "' (want on)");
  }
  if (const auto v = fs.num("alpha", 0.0001, 0.5)) base.sketch_alpha = *v;
  if (!fs.finish()) {
    if (why != nullptr) *why = fs.error();
    return std::nullopt;
  }
  base.enabled = true;
  return base;
}

}  // namespace

std::optional<sched::Scheme> scheme_from_alias(const std::string& alias) {
  // Canonical CLI names and display names come from the registry, so the
  // parser accepts exactly what the enum defines; only historical synonyms
  // live here.
  if (const auto scheme = sched::parse_scheme(alias)) return scheme;
  static const std::map<std::string, sched::Scheme> synonyms = {
      {"llama", sched::Scheme::kInflessLlama},
      {"naive-slicing", sched::Scheme::kNaiveSlicing},
      {"smart-mps-mig", sched::Scheme::kSmartMpsMig},
  };
  const auto it = synonyms.find(lower(alias));
  if (it == synonyms.end()) return std::nullopt;
  return it->second;
}

std::string cli_usage() {
  return R"(protean_sim — replay a serverless GPU-inference scenario

Usage: protean_sim [options]

Workload:
  --model NAME          strict model (catalog name; default "ResNet 50")
  --strict-frac F       fraction of strict requests (default 0.5)
  --trace KIND          wiki | twitter | constant (default wiki)
  --trace-file PATH     replay a "second,rps" CSV instead
  --rps N               target mean rps (peak for twitter; default 5000,
                        128 for language models)
  --horizon S           trace length in seconds (default 120)
  --warmup S            measurement warmup, below the horizon (default 20)

Cluster:
  --scheme NAME         protean | oracle | infless | molecule | naive |
                        mig-only | mps-mig | smart | gpulet |
                        protean-static | protean-no-reorder |
                        protean-no-eta | protean-soft | protean-pipe
                        (repeatable; default protean)
  --all-schemes         run the paper's four primary schemes
  --nodes N             worker nodes (default 8)
  --shards K            split the control plane into K gateway shards, each
                        with its own scheduler over a contiguous node range;
                        power-of-two-choices balances arrivals across shards
                        (default 1 = the classic single gateway, which stays
                        byte-identical; clamped to --nodes; see docs/scale.md)
  --gpu-mem GB          per-GPU memory: 40 (A100-40GB, default) or 80;
                        MIG slice capacities scale proportionally
  --memcache POLICY:GB  enable the per-node model-weight cache with the
                        given eviction policy (lru | gdsf | oracle) and
                        per-node capacity in GB, e.g. --memcache lru:16
  --memcache-oversubscribe
                        let resident weights exceed the slice budget at an
                        nvshare-style swap slowdown
  --slo-mult M          SLO multiplier over solo latency (default 3)
  --spot POLICY         on-demand | spot-only | hybrid (default on-demand)
  --p-rev F             spot revocation probability (default 0)
  --seed N              RNG seed (default 42)

Faults (see docs/faults.md; off unless --faults is given):
  --faults SPEC         comma-separated fault plan: scripted entries
                        KIND@T:nID (KIND: crash | kill | ecc, T seconds,
                        nID node) and/or hazard rates per node-hour
                        (crash-rate=R | kill-rate=R | ecc-rate=R) plus
                        knobs reconfig-fail=P, reboot=S, ecc-repair=S;
                        e.g. --faults crash@10:n1,kill-rate=40
  --fault-retries N     retry budget per aborted batch, 0..100 (default 3)
  --hedge               duplicate strict batches that linger past half
                        their SLO budget; duplicates are de-duplicated at
                        the collector

Autoscaling (see docs/autoscale.md; off unless --autoscale is given):
  --autoscale POLICY[:OPTS]
                        close an SLO-aware scaling loop on the telemetry
                        scrape tick. POLICY: reactive | predictive. OPTS
                        is a comma list of KEY=VALUE knobs (tick=S, min=N,
                        max=N, step-up=N, step-down=N, settle=N, util=PCT,
                        warm=N, headroom=F) and bare switches no-vertical,
                        no-prefetch, on-demand;
                        e.g. --autoscale predictive:max=12,settle=2

Substrate (see docs/softgpu.md; off unless --substrate is given):
  --substrate MODE[:OPTS]
                        override the per-node GPU sharing substrate. MODE:
                        timeshare | mps | softslice. With softslice, OPTS
                        is a comma list of KEY=VALUE knobs
                        (discipline=fraction|timeslice, penalty=F,
                        oversub=F, switch=F, swap=F, nodes=F);
                        e.g. --substrate softslice:discipline=timeslice

Workflows (see docs/workflows.md; off unless --workflow is given):
  --workflow SHAPE[:OPTS]
                        expand each strict request into a DAG of model
                        stages with one end-to-end SLO. SHAPE: chain |
                        fanout | diamond | shared. OPTS is a comma list of
                        KEY=VALUE knobs (stages=N for chain, width=N for
                        fanout, transfer=MB, bw=GBPS, hop=S);
                        e.g. --workflow diamond:transfer=256,bw=8.
                        Pipeline-conscious placement: --scheme protean-pipe

Attribution (see docs/attribution.md; off unless --attr is given):
  --attr on[:OPTS]      exact per-request SLO-violation attribution: every
                        strict latency decomposes into named components
                        (formation, queue, cold boot, weight load, swap
                        stall, deficiency, interference, transfer, retry,
                        blackout, service) whose sum equals the observed
                        latency; the report/JSON gain an attribution
                        block and telemetry exports per-cause series.
                        OPTS: alpha=F (per-cause sketch relative error,
                        default 0.01). Explore runs with tools/slo_explain

Sweep:
  --seeds N             replications per configuration with seeds
                        seed..seed+N-1; reports mean / stddev / 95% CI
                        (default 1)
  --jobs N              worker threads executing the grid (default 1;
                        results are identical for any N)
  --sweep AXIS=LO:HI:STEP
                        sweep a numeric parameter, e.g. rps=1000:5000:500;
                        axes: rps | nodes | slo-mult | strict-frac | p-rev

Output:
  --json                emit a JSON document instead of a table
  --trace FILE[:FILTER] any --trace value that is not a built-in kind above
                        writes a Chrome trace-event timeline (open in
                        Perfetto) to FILE after the run; FILTER is a comma
                        list of spans | counters | sched (default all).
                        Multi-run grids write FILE-0.json, FILE-1.json, ...
                        See docs/observability.md
  --telemetry FILE[:INTERVAL]
                        scrape live metrics every INTERVAL sim-seconds
                        (default 10) and write a JSONL timeline to FILE
                        plus an OpenMetrics snapshot to FILE.om after the
                        run. Multi-run grids write FILE-0, FILE-1, ...
                        See docs/telemetry.md
  --sketch ALPHA        report latency percentiles and means from
                        relative-error quantile sketches (ALPHA in
                        (0, 0.5], e.g. 0.01) instead of exactly: they
                        carry an ALPHA relative-error bound
  --dump-mem-timeline FILE
                        write per-node resident-weight timelines as JSON
                        (requires --memcache; classic runs only)
  --list-models         print the model catalog and exit
  --list-schemes        print scheme aliases and exit
  --help                this text
)";
}

const std::vector<std::string>& cli_flags() {
  // Every flag parse_cli accepts. The options test cross-checks this list
  // against the --help text, so a flag added to the parser without a usage
  // entry (or vice versa) fails CI.
  static const std::vector<std::string> flags = {
      "--help",          "--list-models",
      "--list-schemes",  "--json",
      "--all-schemes",   "--scheme",
      "--model",         "--trace",
      "--trace-file",    "--rps",
      "--horizon",       "--warmup",
      "--strict-frac",   "--nodes",
      "--shards",        "--slo-mult",
      "--spot",          "--p-rev",
      "--faults",        "--fault-retries",
      "--hedge",         "--autoscale",
      "--substrate",     "--workflow",
      "--attr",          "--seed",
      "--seeds",
      "--jobs",          "--gpu-mem",
      "--memcache",      "--memcache-oversubscribe",
      "--telemetry",     "--sketch",
      "--dump-mem-timeline", "--sweep",
  };
  return flags;
}

CliParseResult parse_cli(const std::vector<std::string>& args) {
  CliOptions opts;
  opts.config = primary_config("ResNet 50");
  opts.config.cluster.market.policy = spot::ProcurementPolicy::kOnDemandOnly;
  opts.schemes.clear();

  bool rps_given = false;
  bool fault_retries_given = false;
  bool hedge_given = false;

  auto fail = [](const std::string& message) {
    CliParseResult r;
    r.error = message;
    return r;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    // Spec flags take their SPEC as `--X SPEC` or `--X=SPEC`.
    auto is_spec_flag = [&](const std::string& flag) {
      return arg == flag || arg.rfind(flag + "=", 0) == 0;
    };
    auto spec_of = [&](const std::string& flag) -> std::optional<std::string> {
      if (arg == flag) return next();
      return arg.substr(flag.size() + 1);
    };

    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--list-models") {
      opts.list_models = true;
    } else if (arg == "--list-schemes") {
      opts.list_schemes = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--all-schemes") {
      for (auto scheme : sched::paper_schemes()) {
        opts.schemes.push_back(scheme);
      }
    } else if (arg == "--scheme") {
      const auto value = next();
      if (!value) return fail("--scheme needs a value");
      const auto scheme = scheme_from_alias(*value);
      if (!scheme) return fail("unknown scheme: " + *value);
      opts.schemes.push_back(*scheme);
    } else if (arg == "--model") {
      const auto value = next();
      if (!value) return fail("--model needs a value");
      if (workload::ModelCatalog::instance().find(*value) == nullptr) {
        return fail("unknown model: " + *value +
                    " (see --list-models)");
      }
      // The model sets the default rate (language models run at 128 rps),
      // unless --rps already set one.
      opts.config.strict_model = *value;
      if (!rps_given) {
        opts.config.trace.target_rps = primary_config(*value).trace.target_rps;
      }
    } else if (arg == "--trace") {
      const auto value = next();
      if (!value) return fail("--trace needs a value");
      const std::string kind = lower(*value);
      if (kind == "wiki") {
        opts.config.trace.kind = trace::TraceKind::kWiki;
      } else if (kind == "twitter") {
        opts.config.trace.kind = trace::TraceKind::kTwitter;
        opts.config.trace.scale_to_peak = true;
      } else if (kind == "constant") {
        opts.config.trace.kind = trace::TraceKind::kConstant;
      } else {
        // Any other value is a timeline-trace output spec, FILE[:FILTER]
        // (docs/observability.md).
        const auto trace_out = parse_trace_out_spec(*value);
        if (!trace_out) {
          return fail("bad --trace value: " + *value +
                      " (want wiki | twitter | constant, or FILE[:FILTER] "
                      "with FILTER from spans,counters,sched)");
        }
        opts.config.trace_out = *trace_out;
      }
    } else if (arg == "--trace-file") {
      const auto value = next();
      if (!value || value->empty()) {
        return fail("--trace-file needs a file path");
      }
      opts.trace_file = *value;
    } else if (arg == "--rps") {
      const auto value = next();
      const auto rps = value ? parse_spec_number(*value) : std::nullopt;
      if (!rps || *rps <= 0.0) return fail("--rps needs a positive number");
      opts.config.trace.target_rps = *rps;
      rps_given = true;
    } else if (arg == "--horizon") {
      const auto value = next();
      const auto h = value ? parse_spec_number(*value) : std::nullopt;
      if (!h || *h <= 0.0) return fail("--horizon needs a positive number");
      opts.config.trace.horizon = *h;
    } else if (arg == "--warmup") {
      const auto value = next();
      const auto w = value ? parse_spec_number(*value) : std::nullopt;
      if (!w || *w < 0.0) return fail("--warmup needs a non-negative number");
      opts.config.warmup = *w;
    } else if (arg == "--strict-frac") {
      const auto value = next();
      const auto f = value ? parse_spec_number(*value) : std::nullopt;
      if (!f || *f < 0.0 || *f > 1.0) {
        return fail("--strict-frac needs a value in [0, 1]");
      }
      opts.config.strict_fraction = *f;
    } else if (arg == "--nodes") {
      const auto value = next();
      const auto n = value ? parse_count(*value) : std::nullopt;
      if (!n || *n == 0 || *n > 1024) return fail("--nodes needs 1..1024");
      opts.config.cluster.node_count = static_cast<std::uint32_t>(*n);
    } else if (arg == "--shards") {
      const auto value = next();
      const auto n = value ? parse_count(*value) : std::nullopt;
      if (!n || *n == 0 || *n > 1024) return fail("--shards needs 1..1024");
      opts.config.cluster.shards = static_cast<std::uint32_t>(*n);
    } else if (arg == "--slo-mult") {
      const auto value = next();
      const auto m = value ? parse_spec_number(*value) : std::nullopt;
      if (!m || *m < 1.0) return fail("--slo-mult needs a value >= 1");
      opts.config.cluster.slo_multiplier = *m;
    } else if (arg == "--spot") {
      const auto value = next();
      if (!value) return fail("--spot needs a value");
      const std::string policy = lower(*value);
      if (policy == "on-demand") {
        opts.config.cluster.market.policy =
            spot::ProcurementPolicy::kOnDemandOnly;
      } else if (policy == "spot-only") {
        opts.config.cluster.market.policy = spot::ProcurementPolicy::kSpotOnly;
      } else if (policy == "hybrid") {
        opts.config.cluster.market.policy = spot::ProcurementPolicy::kHybrid;
      } else {
        return fail("unknown spot policy: " + *value);
      }
    } else if (arg == "--p-rev") {
      const auto value = next();
      const auto p = value ? parse_spec_number(*value) : std::nullopt;
      if (!p || *p < 0.0 || *p > 1.0) {
        return fail("--p-rev needs a value in [0, 1]");
      }
      opts.config.cluster.market.p_rev = *p;
    } else if (is_spec_flag("--faults")) {
      const auto spec = spec_of("--faults");
      if (!spec) return fail("--faults needs a spec");
      std::string why;
      const auto fc = parse_faults_flag(*spec, opts.config.cluster.fault, &why);
      if (!fc) {
        return fail("bad fault spec: " + *spec + " (" + why +
                    "; want e.g. crash@10:n1,kill-rate=40 — see docs/faults.md)");
      }
      opts.config.cluster.fault = *fc;
    } else if (arg == "--fault-retries") {
      const auto value = next();
      const auto n = value ? parse_count(*value) : std::nullopt;
      if (!n || *n > 100) return fail("--fault-retries needs 0..100");
      opts.config.cluster.fault.retry.max_retries = static_cast<int>(*n);
      fault_retries_given = true;
    } else if (arg == "--hedge") {
      opts.config.cluster.fault.hedge.enabled = true;
      hedge_given = true;
    } else if (arg == "--seed") {
      const auto value = next();
      const auto seed = value ? parse_count(*value) : std::nullopt;
      if (!seed) return fail("--seed needs an unsigned integer");
      opts.config.seed = *seed;
    } else if (arg == "--seeds") {
      const auto value = next();
      const auto n = value ? parse_count(*value) : std::nullopt;
      if (!n || *n == 0 || *n > 10000) return fail("--seeds needs 1..10000");
      opts.seeds = static_cast<std::uint32_t>(*n);
    } else if (arg == "--jobs") {
      const auto value = next();
      const auto n = value ? parse_count(*value) : std::nullopt;
      if (!n || *n == 0 || *n > 1024) return fail("--jobs needs 1..1024");
      opts.jobs = static_cast<int>(*n);
    } else if (arg == "--gpu-mem") {
      const auto value = next();
      const auto gb = value ? parse_spec_number(*value) : std::nullopt;
      if (!gb || !(*gb >= 1.0 && *gb <= 1024.0)) {
        return fail("--gpu-mem needs a GB value in [1, 1024]");
      }
      opts.config.cluster.gpu_memory_gb = *gb;
    } else if (arg == "--memcache-oversubscribe") {
      opts.config.cluster.memcache.oversubscribe = true;
    } else if (is_spec_flag("--memcache")) {
      const auto spec = spec_of("--memcache");
      if (!spec) return fail("--memcache needs POLICY:GB");
      std::string why;
      const auto mc =
          parse_memcache_spec(*spec, opts.config.cluster.memcache, &why);
      if (!mc) {
        return fail("bad memcache spec: " + *spec + " (" + why +
                    "; want POLICY:GB, policies: lru | gdsf | oracle)");
      }
      opts.config.cluster.memcache = *mc;
    } else if (arg == "--telemetry") {
      const auto value = next();
      if (!value) return fail("--telemetry needs FILE[:INTERVAL]");
      const auto telemetry = parse_telemetry_spec(*value);
      if (!telemetry) {
        return fail("bad --telemetry value: " + *value +
                    " (want FILE[:INTERVAL] with a positive INTERVAL in "
                    "seconds)");
      }
      opts.config.telemetry = *telemetry;
    } else if (is_spec_flag("--autoscale")) {
      const auto spec = spec_of("--autoscale");
      if (!spec) return fail("--autoscale needs POLICY[:OPTS]");
      std::string why;
      const auto ac =
          parse_autoscale_spec(*spec, opts.config.cluster.autoscale, &why);
      if (!ac) {
        return fail("bad --autoscale value: " + *spec + " (" + why +
                    "; want POLICY[:KEY=V,...] with POLICY reactive | "
                    "predictive — see docs/autoscale.md)");
      }
      opts.config.cluster.autoscale = *ac;
    } else if (is_spec_flag("--substrate")) {
      const auto spec = spec_of("--substrate");
      if (!spec) return fail("--substrate needs MODE[:OPTS]");
      std::string why;
      const auto sg =
          parse_substrate_spec(*spec, opts.config.cluster.softgpu, &why);
      if (!sg) {
        return fail("bad --substrate value: " + *spec + " (" + why +
                    "; want MODE[:KEY=V,...] with MODE timeshare | mps | "
                    "softslice — see docs/softgpu.md)");
      }
      opts.config.cluster.softgpu = *sg;
    } else if (is_spec_flag("--workflow")) {
      const auto spec = spec_of("--workflow");
      if (!spec) return fail("--workflow needs SHAPE[:OPTS]");
      std::string why;
      const auto wf =
          parse_workflow_spec(*spec, opts.config.cluster.workflow, &why);
      if (!wf) {
        return fail("bad --workflow value: " + *spec + " (" + why +
                    "; want SHAPE[:KEY=V,...] with SHAPE chain | fanout | "
                    "diamond | shared — see docs/workflows.md)");
      }
      opts.config.cluster.workflow = *wf;
    } else if (is_spec_flag("--attr")) {
      const auto spec = spec_of("--attr");
      if (!spec) return fail("--attr needs on[:OPTS]");
      std::string why;
      const auto ac = parse_attr_spec(*spec, opts.config.cluster.attr, &why);
      if (!ac) {
        return fail("bad --attr value: " + *spec + " (" + why +
                    "; want on[:alpha=F] — see docs/attribution.md)");
      }
      opts.config.cluster.attr = *ac;
    } else if (arg == "--sketch") {
      const auto value = next();
      const auto alpha = value ? parse_spec_number(*value) : std::nullopt;
      if (!alpha || !(*alpha > 0.0 && *alpha <= 0.5)) {
        return fail("--sketch needs an ALPHA in (0, 0.5]");
      }
      opts.config.sketch_collector = true;
      opts.config.sketch_alpha = *alpha;
    } else if (arg == "--dump-mem-timeline") {
      const auto value = next();
      if (!value || value->empty()) {
        return fail("--dump-mem-timeline needs a file path");
      }
      opts.mem_timeline_file = *value;
      opts.config.keep_mem_timeline = true;
    } else if (arg == "--sweep") {
      const auto value = next();
      if (!value) return fail("--sweep needs AXIS=LO:HI:STEP");
      const auto axis = SweepAxis::parse(*value);
      if (!axis) {
        return fail("bad sweep spec: " + *value +
                    " (want e.g. rps=1000:5000:500)");
      }
      opts.sweep_axis = *axis;
    } else {
      return fail("unknown option: " + arg + " (see --help)");
    }
  }

  if (!opts.trace_file.empty()) {
    opts.config.trace.kind = trace::TraceKind::kTable;
    try {
      opts.config.trace.table = trace::load_rate_csv(opts.trace_file);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
    if (!rps_given) opts.config.trace.target_rps = 0.0;  // keep raw rates
    // Arrivals end with the table, so a warmup past it measures nothing.
    const auto seconds = static_cast<double>(opts.config.trace.table.size());
    if (opts.config.warmup >= seconds) {
      return fail(strfmt("--warmup %g must be below the %g s of %s",
                         opts.config.warmup, seconds, opts.trace_file.c_str()));
    }
  }
  if (opts.config.warmup >= opts.config.trace.horizon) {
    // The measurement window would be empty: every figure would read 0 and
    // compliance a vacuous 100%.
    return fail(strfmt("--warmup %g must be below --horizon %g",
                       opts.config.warmup, opts.config.trace.horizon));
  }
  if (opts.schemes.empty()) opts.schemes.push_back(sched::Scheme::kProtean);
  if ((fault_retries_given || hedge_given) &&
      !opts.config.cluster.fault.enabled) {
    return fail("--fault-retries/--hedge require --faults");
  }

  CliParseResult result;
  result.options = std::move(opts);
  return result;
}

}  // namespace protean::harness
