#!/usr/bin/env python3
"""Simulator benchmark: wall time, memory and per-layer cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet-640k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload composed --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --selftest

The first call builds the simulator and the runner (Release) under
$CARGO_TARGET_DIR (default .bench_build). A run repeats the workload in
fresh runner processes until --seconds have passed (at least three times
untraced, two times traced) and reports medians. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. Every
metric is printed by name with its unit; the last stdout line is the JSON
result. Each run also writes a results file with its provenance under
$CARGO_TARGET_DIR/perfbench/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_UNTRACED_REPS = 3
MIN_TRACED_REPS = 2
SETUP_PASSES = 10
# A run must end within 180 s; no repetition starts after this point.
LAST_START_S = 120.0
REP_TIMEOUT_S = 150.0
# Per-layer counts that must repeat exactly across runs of one seed.
DETERMINISTIC_COUNTS = [
    "sim.events", "sched.place.calls", "cluster.batches", "telemetry.scrapes",
    "attr.batches", "fault.retries", "workflow.stage_batches",
    "autoscale.ticks",
]


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def work_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = work_dir() / "cmake"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(len(os.sched_getaffinity(0)))])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, timeout=800).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def runner(build_dir, *args):
    """Runs the runner once; returns its JSON output, or None if it failed."""
    try:
        proc = subprocess.run([str(build_dir / "perfbench_runner"), *args],
                              capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def repeat(run_once, min_reps, seconds):
    """Calls run_once(rep) until `seconds` have passed and min_reps ran."""
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed >= seconds:
            break
        if reps and elapsed > LAST_START_S:
            break
        reps.append(run_once(len(reps)))
    return reps


def check_report(path, telemetry_bytes):
    """Returns (report, problem) for one scenario's --json output."""
    try:
        with open(path) as f:
            report = json.load(f)["results"][0]
    except (OSError, ValueError, KeyError, IndexError) as e:
        return None, f"report does not parse: {e}"
    if report["strict_completed"] > report["strict_emitted"]:
        return report, "strict_completed > strict_emitted"
    if not 0.0 <= report["slo_compliance_pct"] <= 100.0:
        return report, "SLO attainment outside [0, 100]"
    attribution = report.get("attribution")
    if attribution and attribution["identity_violations"] != 0:
        return report, "attribution identity violations"
    if telemetry_bytes is not None and telemetry_bytes <= 0:
        return report, "telemetry file empty"
    return report, None


class Tally:
    """Scenario outcomes: attempts, failed scenarios, first-run digests, and
    every problem found (run-level ones included)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}

    def record(self, rep, scenario, digest, problem=None):
        self.attempted += 1
        if problem is None and \
                self.digests.setdefault(scenario, digest) != digest:
            problem = "report bytes differ from the first run"
        if problem:
            self.failed += 1
            self.failures.append(f"rep {rep} {scenario}: {problem}")
        return problem is None


def untraced(build_dir, workload, seed, tmp, seconds, tally):
    def once(rep):
        out = runner(build_dir, "run", workload["name"], str(seed), str(tmp),
                     str(SETUP_PASSES))
        if out is None:
            for s in workload["scenarios"]:
                tally.record(rep, s["name"], None, "runner failed")
            return None
        reports = []
        for s in out["scenarios"]:
            report, problem = None, s["error"] or None
            if problem is None:
                report, problem = check_report(s["report"],
                                               s["telemetry_bytes"])
            if tally.record(rep, s["name"], s["digest"], problem):
                reports.append(report)
        out["reports"] = reports
        return out

    reps = [r for r in repeat(once, MIN_UNTRACED_REPS, seconds) if r]
    metrics = {}
    if reps:
        def requests(rep):
            return sum(r["strict_completed"] + r["be_completed"]
                       for r in rep["reports"])

        first = reps[0]["reports"]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "sim_req_per_s": statistics.median(
                requests(r) / r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(
                s for r in reps for s in r["setup_s"]),
            "sim_slo_pct": statistics.fmean(
                r["slo_compliance_pct"] for r in first) if first else 0.0,
            "sim_p99_ms": statistics.fmean(
                r["strict_p99_ms"] for r in first) if first else 0.0,
            "sim_cost_usd": statistics.fmean(
                r["cost_usd"] for r in first) if first else 0.0,
        }
    metrics["pass_pct"] = (100.0 * (tally.attempted - tally.failed) /
                           tally.attempted)
    return metrics, [{k: v for k, v in r.items() if k != "reports"}
                     for r in reps]


def traced(build_dir, workload, seed, tmp, seconds, tally):
    def once(rep):
        out = runner(build_dir, "trace", workload["name"], str(seed), str(tmp),
                     str(rep))
        if out is None:
            for s in workload["scenarios"]:
                tally.record(rep, s["name"], None, "runner failed")
            return None
        for s in out["scenarios"]:
            problem = None
            if s["mismatch"]:
                problem = "traced run differs: " + s["mismatch"]
            tally.record(rep, s["name"], s["digest"], problem)
        if out["metrics"]["attr.identity_violations"] != 0:
            tally.failures.append(f"rep {rep}: attribution identity violations")
        return out

    reps = [r for r in repeat(once, MIN_TRACED_REPS, seconds) if r]
    metrics = {}
    if reps:
        for name in DETERMINISTIC_COUNTS:
            values = {r["metrics"][name] for r in reps}
            if len(values) > 1:
                tally.failures.append(f"{name} differs across runs: {values}")
        for name in reps[0]["metrics"]:
            metrics[name] = statistics.median(r["metrics"][name] for r in reps)
        metrics["trace_overhead_pct"] = statistics.median(
            100.0 * (r["traced_s"] - r["untraced_s"]) / r["untraced_s"]
            for r in reps)
    return metrics, reps


def provenance(description, workload, seed):
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True, env=env,
                                  timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": revision or "unknown",
        "git_dirty": None if status is None else bool(status),
        "build_type": description["build_type"],
        "compiler": description["compiler"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
        "workload": {
            "name": workload["name"],
            "scenarios": [{"name": s["name"],
                           "args": s["args"] + ["--seed", str(seed)],
                           "be_schedule": s["be_schedule"]}
                          for s in workload["scenarios"]],
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the timed rebuild against the simulator")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    seconds = args.seconds or spec["run_seconds"]

    build_dir = build()
    if args.selftest:
        sys.exit(subprocess.run([str(build_dir / "perfbench_selftest")],
                                timeout=REP_TIMEOUT_S).returncode)
    description = runner(build_dir, "describe")
    if description is None:
        fail("runner does not start")
    workloads = {w["name"]: w for w in description["workloads"]}
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[args.workload]

    tmp = work_dir() / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        measure = traced if args.trace else untraced
        measured, reps = measure(build_dir, workload, args.seed, tmp,
                                 seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    correct = not tally.failures and all(m["name"] in measured for m in listed)
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in listed}

    info = provenance(description, workload, args.seed)
    results_dir = work_dir() / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_file = (results_dir /
                    f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_file, "w") as f:
        json.dump({"provenance": info, "seconds": seconds,
                   "trace": args.trace, "correct": correct,
                   "attempted": tally.attempted, "failures": tally.failures,
                   "metrics": measured, "repetitions": reps}, f, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"revision {info['git_revision']}"
          f"{' (dirty)' if info['git_dirty'] else ''}  "
          f"{info['build_type']} {info['compiler']}  "
          f"nproc {info['nproc']}  {info['cpu_model']}")
    print(f"repetitions {len(reps)}  scenarios attempted {tally.attempted}  "
          f"failed {tally.failed}  results {results_file}")
    for problem in tally.failures:
        print(f"FAILED {problem}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in measured.items():
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
