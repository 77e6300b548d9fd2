#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

One run of one workload; the last stdout line is the JSON result:

    python3 perfbench/run.py --workload kv-slo --seed 7 --seconds 20 --trace 0

Repeat mode: K untraced runs on consecutive seeds, then the median,
quartiles and spread of every end-to-end metric next to its bound:

    python3 perfbench/run.py --repeat 10 --workload kv-slo --seed 1 --seconds 20

Self-test of the metric arithmetic:

    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(
    os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
    "perfbench")
TARGETS = ["cruz_perfbench", "perfbench_selftest"]


def build():
    """Configures and builds the benchmark; exits 3 on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def load_spec():
    """BENCHMARK.json as a dict, or None where the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    cmd = [os.path.join(BUILD, "cruz_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def check_names(result, trace, spec):
    """The printed metrics must be exactly the declared set."""
    if spec is None:
        return True
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"] for m in spec[key]}
    got = set(result["metrics"])
    if want != got:
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json "
                         "%s: missing %s, extra %s\n" %
                         (key, sorted(want - got), sorted(got - want)))
        return False
    return True


def repeat(args, spec):
    bounds = {}
    if spec is not None:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    series = {}
    ok = True
    for seed in range(args.seed, args.seed + args.repeat):
        code, out = run_once(args.workload, seed, args.seconds, 0)
        result = json.loads(out.strip().splitlines()[-1])
        ok = ok and code == 0 and result["correct"]
        print("seed %d: correct=%s %s" % (seed, result["correct"], " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            series.setdefault(name, []).append(m["value"])
    print("%-22s %14s %14s %14s %8s %6s" %
          ("metric", "q1", "median", "q3", "spread", "bound"))
    for name, values in series.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  over a third of the bound"
        print("%-22s %14.6g %14.6g %14.6g %8.4f %6s%s" %
              (name, q1, med, q3, spread,
               "-" if bound is None else bound, flag))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD,
                                            "perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    spec = load_spec()
    if args.repeat > 0:
        return repeat(args, spec)

    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        return code
    lines = out.strip().splitlines()
    if not lines or not check_names(json.loads(lines[-1]), args.trace, spec):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
