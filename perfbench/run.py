#!/usr/bin/env python3
"""Benchmark of the slmob measurement loop: collect -> trace on disk -> streaming analysis.

Run from the root of a checkout:

    python3 perfbench/run.py --workload isle_paper --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call builds perfbench/slbench and the slmob libraries from src/
into .bench_build/perfbench. A run repeats the workload's job until
--seconds have passed (at least one job) and reports the median of each
metric over the jobs. A job is `slbench collect` followed by
`slbench analyze`, in two processes, so the analysis process's peak RSS is
the analysis stage's own; each process repeats its stage a few times and
keeps the fastest repetition. With --trace 1 the run also makes one traced
run (`slbench trace`) and reports the per-layer metrics instead.

collect_s and failed_frac are printed but are not metrics of
BENCHMARK.json: collect_s spreads more across runs than the largest
regression bound allows (e2e_s includes it), and failed_frac is 0 on a
correct run (the result line carries attempted and failed).

Every shard's trace digest and every report's analysis_fingerprint is
checked: against the golden values in perfbench/spec.json for a workload's
default seed at 24 h, otherwise against the first job of the invocation.
The traced run must reproduce the same digests and fingerprints. An
operation is one shard collected or one report produced; it fails on an
exception or a mismatch. The last line of stdout is one JSON object; any
failed operation makes the exit status 1.

Thread counts are passed to slbench explicitly (default min(4, cores)) and
a request for more threads than cores is refused; SLMOB_THREADS is removed
from the environment of every child.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
SLBENCH = BUILD / "slbench"
SPEC = HERE / "spec.json"
BENCHMARK = ROOT / "BENCHMARK.json"
MAX_THREADS = 4
FULL_HOURS = 24.0
SELF_TEST_HOURS = 1.0
CHILD_TIMEOUT_S = 170
MIB = float(1 << 20)
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "SLMOB_THREADS"}
CHILD_ERRORS = (RuntimeError, ValueError, subprocess.TimeoutExpired)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cores():
    return len(os.sched_getaffinity(0))


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: src/ is missing next to perfbench/; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "slbench",
                    "--parallel", str(min(MAX_THREADS, cores()))],
                   stdout=sys.stderr, check=True)


def slbench(*args):
    proc = subprocess.run([str(SLBENCH), *map(str, args)], stdout=subprocess.PIPE,
                          env=CHILD_ENV, timeout=CHILD_TIMEOUT_S, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"slbench {args[0]} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Reference:
    """Expected digests and fingerprints: the golden values, else the first job's."""

    def __init__(self, golden):
        golden = golden or {}
        self.expected = {"digests": golden.get("digests"),
                         "fingerprints": golden.get("fingerprints")}

    def mismatches(self, kind, got):
        want = self.expected[kind]
        if want is None:
            self.expected[kind] = dict(got)
            return 0
        return sum(1 for name in want.keys() | got.keys() if want.get(name) != got.get(name))

    def check(self, out):
        """Failed operations among one child's digests and fingerprints."""
        return sum(self.mismatches(kind, out[kind]) for kind in self.expected if kind in out)


class Result:
    def __init__(self):
        self.jobs = []        # one dict of end-to-end values per job
        self.per_layer = {}   # traced run only
        self.attempted = 0
        self.failed = 0
        self.threads = {}     # threads per stage
        self.reference = {}


def run_workload(workload, seed, hours, seconds, trace, threads, golden):
    """Runs jobs for `seconds`, then the traced run when `trace`."""
    ref = Reference(golden)
    res = Result()
    jobdir = WORK / f"{workload}-{os.getpid()}"
    try:
        start = time.monotonic()
        while not res.jobs or time.monotonic() - start < seconds:
            shutil.rmtree(jobdir, ignore_errors=True)
            try:
                c = slbench("collect", workload, seed, hours, threads, jobdir)
                a = slbench("analyze", workload, threads, jobdir)
            except CHILD_ERRORS as e:
                log(f"perfbench: {workload}: {e}")
                res.attempted += 1
                res.failed += 1
                break
            res.attempted += len(c["digests"]) + len(a["fingerprints"])
            res.failed += ref.check(c) + ref.check(a)
            res.threads = {"collect": int(c["threads"]), "analyze": int(a["threads"])}
            res.jobs.append({
                "e2e_s": c["collect_s"] + a["analyze_s"],
                "collect_s": c["collect_s"],
                "analyze_s": a["analyze_s"],
                "setup_s": c["setup_s"] + a["setup_s"],
                "cpu_s": c["cpu_s"] + a["cpu_s"],
                "peak_rss_mib": a["peak_rss_bytes"] / MIB,
                "written_mib": c["written_bytes"] / MIB,
            })
        if trace and res.jobs:
            shutil.rmtree(jobdir, ignore_errors=True)
            try:
                t = slbench("trace", workload, seed, hours, jobdir)
            except CHILD_ERRORS as e:
                log(f"perfbench: {workload}: traced run: {e}")
                res.attempted += 1
                res.failed += 1
            else:
                # Hooked rigs must reproduce the unhooked digests, and the
                # one-thread replay the timed run's fingerprints.
                res.attempted += len(t["digests"]) + len(t["fingerprints"])
                res.failed += ref.check(t)
                res.per_layer = dict(t["metrics"])
                timed = statistics.median(j["analyze_s"] for j in res.jobs)
                res.per_layer["analysis.timed_s"] = timed
                res.per_layer["analysis.parallel_speedup"] = (
                    res.per_layer["analysis.serial_s"] / timed)
    finally:
        shutil.rmtree(jobdir, ignore_errors=True)
    res.reference = ref.expected
    return res


def values_of(res, trace):
    if trace:
        return dict(res.per_layer)
    if not res.jobs:
        return {}
    return {name: statistics.median(j[name] for j in res.jobs) for name in res.jobs[0]}


def report(workload, res, trace, bench, env):
    """Prints one line per metric, the failure share and the environment,
    then the JSON result line. Returns whether every operation succeeded."""
    values = values_of(res, trace)
    metrics = {}
    group = bench["per_layer" if trace else "end_to_end"]
    printed_only = [] if trace else [{"name": "collect_s", "unit": "s"}]
    for m in group + printed_only:
        name, unit = m["name"], m["unit"]
        if name not in values:
            log(f"perfbench: {workload}: metric {name} was not measured")
            res.failed += 1
            continue
        if m in group:
            metrics[name] = {"value": values[name], "unit": unit}
        line = f"{workload} {name} = {values[name]:.6g} {unit}"
        if not trace:
            samples = [j[name] for j in res.jobs]
            line += f" (median of {len(samples)} jobs"
            if len(samples) >= 2:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                line += f"; q1 {q1:.6g}, q3 {q3:.6g}"
            line += ")"
        print(line)
    attempted = max(res.attempted, 1)
    print(f"{workload} failed_frac = {res.failed / attempted:.6g} ratio "
          f"({res.failed} of {attempted} operations)")
    print("env " + json.dumps({
        "nproc": cores(),
        "hardware_concurrency": env["hardware_concurrency"],
        "compiler": env["compiler"],
        "build_type": env["build_type"],
        "threads": res.threads,
    }, sort_keys=True))
    print(json.dumps({"correct": res.failed == 0, "attempted": attempted,
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return res.failed == 0


def golden_for(spec, workload, seed, hours):
    entry = spec["workloads"][workload]
    if seed == entry["default_seed"] and hours == FULL_HOURS:
        return entry["golden"]
    return None


def self_test(threads, bench, spec):
    """Short runs of every workload check that every metric named in
    BENCHMARK.json is emitted with its unit; then a wrong golden fingerprint
    must count as a failure and make the command exit non-zero."""
    problems = []
    for w in bench["workloads"]:
        name = w["name"]
        seed = spec["workloads"][name]["default_seed"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run_workload(name, seed, SELF_TEST_HOURS, 0, trace, threads, None)
            if res.failed:
                problems.append(f"{name} trace={trace}: {res.failed} failed operations")
            values = values_of(res, trace)
            missing = [m["name"] for m in bench[group]
                       if m["name"] not in values or not m.get("unit")]
            if missing:
                problems.append(f"{name} trace={trace}: not emitted: {', '.join(missing)}")
            log(f"self-test: {name} trace={trace}: {len(values)} metrics, "
                f"{res.attempted} operations, {res.failed} failed")

    name = bench["workloads"][0]["name"]
    seed = spec["workloads"][name]["default_seed"]
    good = run_workload(name, seed, SELF_TEST_HOURS, 0, 0, threads, None)
    bad = {"fingerprints": {k: f"0x{int(v, 16) ^ 1:08x}"
                            for k, v in good.reference["fingerprints"].items()}}
    if run_workload(name, seed, SELF_TEST_HOURS, 0, 0, threads, bad).failed == 0:
        problems.append("a wrong golden fingerprint was not counted as a failure")
    WORK.mkdir(parents=True, exist_ok=True)
    bad_path = WORK / f"bad-golden-{os.getpid()}.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--hours", str(SELF_TEST_HOURS), "--seconds", "0",
             "--threads", str(threads), "--golden", str(bad_path)],
            stdout=subprocess.PIPE, text=True, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S,
            check=False)
    finally:
        bad_path.unlink(missing_ok=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode == 0 or last["correct"] or last["failed"] == 0:
        problems.append("a wrong golden fingerprint did not make the command exit non-zero")

    for p in problems:
        log(f"self-test FAILED: {p}")
    if not problems:
        log(f"self-test passed ({threads} threads of {cores()} cores)")
    return not problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=min(MAX_THREADS, cores()))
    p.add_argument("--hours", type=float, default=FULL_HOURS,
                   help="simulated hours per shard (golden values exist for 24)")
    p.add_argument("--golden", type=Path,
                   help="JSON file of expected digests/fingerprints replacing spec.json's")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    build()
    if not 1 <= args.threads <= cores():
        sys.exit(f"perfbench: --threads {args.threads} refused: this machine has "
                 f"{cores()} cores")
    bench = load_json(BENCHMARK)
    spec = load_json(SPEC)

    if args.self_test:
        return 0 if self_test(args.threads, bench, spec) else 1
    if args.workload not in spec["workloads"]:
        p.error(f"--workload must be one of {', '.join(spec['workloads'])}")
    seed = spec["workloads"][args.workload]["default_seed"] if args.seed is None else args.seed
    golden = (load_json(args.golden) if args.golden
              else golden_for(spec, args.workload, seed, args.hours))
    env = slbench("env")
    res = run_workload(args.workload, seed, args.hours, args.seconds, args.trace,
                       args.threads, golden)
    return 0 if report(args.workload, res, args.trace, bench, env) else 1


if __name__ == "__main__":
    sys.exit(main())
