#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run of one workload:
    python3 perfbench/run.py --workload kcompile --seed 1 --seconds 10 --trace 0
All four workloads from one process, with a table of every end-to-end metric:
    python3 perfbench/run.py --workload all --seconds 10
Steadiness: K runs per workload on seeds 1..K, each metric's median, quartiles and
spread against its bound in BENCHMARK.json; --save keeps the medians, --against compares
them with medians saved earlier (for example from the parent commit):
    python3 perfbench/run.py --steady 10 --workload all --save base.json
    python3 perfbench/run.py --steady 10 --workload all --against base.json
Smoke test, every workload at a tiny size, both trace modes:
    python3 perfbench/run.py --smoke

The program is built from source into .bench_build/ at the repository root. Run from a
full checkout: without the simulator sources next to perfbench/ the build fails and the
command exits nonzero.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
WORKLOADS = ["kcompile", "translate", "mmap_churn", "config_sweep"]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def git_head():
    """HEAD's commit id, or None when the checkout is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_id():
    """A digest of the sources the program is built from, plus the git commit if any."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    source = "src-" + digest.hexdigest()[:16]
    head = git_head()
    return "git-%s+%s" % (head[:12], source) if head else source


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are missing next to perfbench/; "
             "run from a full checkout")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail("%s is not installed" % tool)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark build failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def command(workload, seed, seconds, trace, tiny, source):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", SPANS_DIR, "--source-id", source]
    return cmd + (["--tiny"] if tiny else [])


def run_captured(workload, seed, seconds, trace, tiny, source):
    """Runs one workload and returns (exit code, parsed result or None)."""
    try:
        proc = subprocess.run(command(workload, seed, seconds, trace, tiny, source),
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def selected(workload):
    if workload == "all":
        return WORKLOADS
    if workload not in WORKLOADS:
        fail("unknown workload '%s'" % workload)
    return [workload]


def smoke(source):
    """Every workload at a tiny size, both trace modes: the runs pass their checks, and every
    metric has a valid name and unit and appears for every workload (and in BENCHMARK.json)."""
    spec = load_spec()
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        seen = {}
        for workload in WORKLOADS:
            code, result = run_captured(workload, 1, 0.2, trace, True, source)
            if code != 0 or result is None or result.get("correct") is not True:
                problems.append("%s trace=%d: exit %d, no correct result" % (
                    workload, trace, code))
                continue
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append("%s trace=%d: attempted %s failed %s" % (
                    workload, trace, result["attempted"], result["failed"]))
            metrics = result["metrics"]
            for name, entry in metrics.items():
                if not NAME_RE.match(name):
                    problems.append("%s: bad metric name %r" % (workload, name))
                if not UNIT_RE.match(entry.get("unit", "")):
                    problems.append("%s: metric %s has no valid unit" % (workload, name))
            seen[workload] = {name: entry["unit"] for name, entry in metrics.items()}
        reference = seen.get(WORKLOADS[0], {})
        for workload, units in seen.items():
            if units != reference:
                problems.append("trace=%d: %s reports a different metric set than %s" % (
                    trace, workload, WORKLOADS[0]))
        if spec is not None and reference:
            declared = {m["name"]: m["unit"] for m in spec[section]}
            if declared != reference:
                missing = sorted(set(declared) - set(reference))
                extra = sorted(set(reference) - set(declared))
                problems.append("trace=%d: metrics differ from BENCHMARK.json %s "
                                "(missing %s, undeclared %s, or units differ)" % (
                                    trace, section, missing, extra))
    for problem in problems:
        print("smoke: " + problem)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def steady(workloads, runs, seconds, first_seed, save, against, source):
    """Runs each workload `runs` times on consecutive seeds and reports the spread of every
    end-to-end metric as (q3 - q1) / median against its bound."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]} if spec else {}
    summary = {}
    status = 0
    for workload in workloads:
        values = {}
        for i in range(runs):
            seed = first_seed + i
            code, result = run_captured(workload, seed, seconds, 0, False, source)
            if code != 0 or result is None or result.get("correct") is not True:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, code))
                status = 1
                continue
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, entry["value"]) for name, entry in result["metrics"].items())),
                flush=True)
        summary[workload] = {}
        print("%s (%d runs, seeds %d..%d):" % (workload, runs, first_seed, first_seed + runs - 1))
        print("  %-16s %14s %14s %14s %8s %7s  %s" % ("metric", "q1", "median", "q3",
                                                   "spread", "bound", "verdict"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, {}).get("bound")
            if bound is None:
                verdict = "-"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                status = 1
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %7s  %s" % (
                name, q1, med, q3, spread, "-" if bound is None else bound, verdict))
    if against:
        with open(against) as f:
            base = json.load(f)
        print("medians against %s:" % against)
        for workload, metrics in summary.items():
            for name, now in metrics.items():
                before = base.get(workload, {}).get(name)
                spec_entry = bounds.get(name)
                if before is None or spec_entry is None or not before["median"]:
                    continue
                change = now["median"] / before["median"] - 1
                worse = -change if spec_entry["better"] == "higher" else change
                verdict = "REGRESSED" if worse > spec_entry["bound"] else "ok"
                if verdict != "ok":
                    status = 1
                print("  %-13s %-16s %+8.2f%%  %s" % (workload, name, 100 * change, verdict))
    if save:
        with open(save, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="|".join(WORKLOADS + ["all"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K", help="K runs per workload")
    parser.add_argument("--save", help="with --steady: write the medians to this JSON file")
    parser.add_argument("--against", help="with --steady: compare with medians saved earlier")
    parser.add_argument("--smoke", action="store_true", help="run the smoke test")
    args = parser.parse_args()
    if args.seconds < 0:
        fail("--seconds must not be negative")

    build()
    source = source_id()
    if args.smoke:
        return smoke(source)
    if args.steady:
        return steady(selected(args.workload), args.steady, args.seconds, args.seed,
                      args.save, args.against, source)
    selected(args.workload)
    try:
        return subprocess.run(command(args.workload, args.seed, args.seconds, args.trace,
                                      False, source),
                              timeout=RUN_TIMEOUT_S * len(selected(args.workload))).returncode
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish in time", 1)


if __name__ == "__main__":
    sys.exit(main())
