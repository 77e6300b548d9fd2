#!/usr/bin/env python3
"""Bench regression gate.

Compares BENCH_*.json metric files produced by a bench run against the
committed baselines in bench/baselines/. Every metric is sim-time derived
and therefore deterministic, so the comparison is exact in practice; the
threshold exists to let intentional model recalibrations land without
immediately re-baselining.

Metric file schema (emitted by the bench binaries):

    {"bench": "fig5a",
     "metrics": [{"name": "...", "value": 1.0,
                  "unit": "ms", "direction": "lower"}, ...]}

`direction` is which way is better: "lower" fails when the current value
exceeds baseline * (1 + threshold); "higher" fails when it falls below
baseline * (1 - threshold). A metric may carry its own "threshold" field
in the baseline entry (e.g. wall-clock rates, which vary with machine
speed, or 0 for deterministic counts such as message totals, which must
not grow at all); it overrides the global --threshold for that metric.

When $GITHUB_STEP_SUMMARY is set, a per-metric markdown delta table is
appended to it so the verdict is readable from the Actions run page
without digging through logs.

Usage:
    python3 bench/check_regression.py --current-dir build/bench \
        [--baseline-dir bench/baselines] [--threshold 0.20]

    python3 bench/check_regression.py --self-test

Exit status: 0 = no regression, 1 = regression or missing data; the
failure line names every offending metric.
"""

import argparse
import json
import os
import sys
import tempfile


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc.get("metrics", [])}


def compare_metric(baseline, current, default_threshold):
    """Returns (bad, delta) for one metric.

    `delta` is signed in the worse direction: positive means worse than
    baseline, regardless of whether lower or higher is better.
    """
    bv, cv = baseline["value"], current["value"]
    direction = baseline.get("direction", "lower")
    threshold = baseline.get("threshold", default_threshold)
    if direction == "lower":
        bad = cv > bv * (1 + threshold)
        delta = (cv - bv) / bv if bv else 0.0
    else:
        bad = cv < bv * (1 - threshold)
        delta = (bv - cv) / bv if bv else 0.0
    return bad, delta, threshold


def run_gate(baseline_dir, current_dir, threshold, only=None):
    """Compares every baseline file; returns (exit_code, summary_rows).

    `only` (a set of bench names, e.g. {"coordinator_scale"}) restricts
    the gate to those baselines, for CI jobs that run a subset of the
    benches.
    """
    baselines = sorted(
        f for f in os.listdir(baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if only is not None:
        baselines = [f for f in baselines
                     if f[len("BENCH_"):-len(".json")] in only]
    if not baselines:
        print(f"no baselines found in {baseline_dir}", file=sys.stderr)
        return 1, []

    offenders = []
    rows = []  # (bench, metric, current, baseline, delta, threshold, status)
    for fname in baselines:
        base_path = os.path.join(baseline_dir, fname)
        cur_path = os.path.join(current_dir, fname)
        bench = fname[len("BENCH_"):-len(".json")]
        if not os.path.exists(cur_path):
            print(f"MISSING  {fname}: bench did not produce it")
            offenders.append(f"{bench} (file missing)")
            rows.append((bench, "(all)", None, None, None, None, "MISSING"))
            continue
        base = load_metrics(base_path)
        cur = load_metrics(cur_path)
        print(f"== {fname} (threshold {threshold:.0%}) ==")
        for name, bm in base.items():
            if name not in cur:
                print(f"  MISSING  {name}")
                offenders.append(name)
                rows.append((bench, name, None, bm["value"], None, None,
                             "MISSING"))
                continue
            bad, delta, thr = compare_metric(bm, cur[name], threshold)
            status = "REGRESS" if bad else "ok"
            unit = bm.get("unit", "")
            print(f"  {status:8} {name}: {cur[name]['value']:.3f} {unit} "
                  f"(baseline {bm['value']:.3f}, {delta:+.1%} "
                  f"worse-direction, threshold {thr:.0%})")
            rows.append((bench, name, cur[name]["value"], bm["value"],
                         delta, thr, status))
            if bad:
                offenders.append(name)
        extra = set(cur) - set(base)
        for name in sorted(extra):
            print(f"  NEW      {name}: {cur[name]['value']:.3f} "
                  f"(no baseline; add it to {base_path})")
            rows.append((bench, name, cur[name]["value"], None, None, None,
                         "NEW"))

    if offenders:
        print("\nregression gate: FAILED ({})".format(", ".join(offenders)))
        return 1, rows
    print("\nregression gate: passed")
    return 0, rows


def write_step_summary(rows, exit_code, path):
    verdict = "❌ FAILED" if exit_code else "✅ passed"
    with open(path, "a") as f:
        f.write(f"### Bench regression gate: {verdict}\n\n")
        f.write("| bench | metric | current | baseline | delta (worse-dir)"
                " | threshold | status |\n")
        f.write("|---|---|---:|---:|---:|---:|---|\n")
        for bench, name, cv, bv, delta, thr, status in rows:
            cv_s = f"{cv:.3f}" if cv is not None else "—"
            bv_s = f"{bv:.3f}" if bv is not None else "—"
            delta_s = f"{delta:+.1%}" if delta is not None else "—"
            thr_s = f"{thr:.0%}" if thr is not None else "—"
            mark = {"REGRESS": "**REGRESS**", "MISSING": "**MISSING**"}.get(
                status, status)
            f.write(f"| {bench} | `{name}` | {cv_s} | {bv_s} | {delta_s} "
                    f"| {thr_s} | {mark} |\n")
        f.write("\n")


def self_test():
    """Exercises the threshold logic end to end (invoked from ctest)."""
    def gate(base_metrics, cur_metrics, threshold=0.20, drop_current=False):
        with tempfile.TemporaryDirectory() as tmp:
            bdir = os.path.join(tmp, "base")
            cdir = os.path.join(tmp, "cur")
            os.mkdir(bdir)
            os.mkdir(cdir)
            with open(os.path.join(bdir, "BENCH_selftest.json"), "w") as f:
                json.dump({"bench": "selftest", "metrics": base_metrics}, f)
            if not drop_current:
                with open(os.path.join(cdir, "BENCH_selftest.json"),
                          "w") as f:
                    json.dump({"bench": "selftest",
                               "metrics": cur_metrics}, f)
            code, rows = run_gate(bdir, cdir, threshold)
            return code, rows

    lo = {"name": "lat", "value": 10.0, "unit": "ms", "direction": "lower"}
    hi = {"name": "rate", "value": 100.0, "unit": "B/s",
          "direction": "higher"}
    cnt = {"name": "msgs", "value": 133.0, "unit": "msgs",
           "direction": "lower"}

    checks = [
        # Within threshold: 20% worse on a lower-is-better metric passes
        # at the boundary, fails just beyond it.
        ("lower within", gate([lo], [dict(lo, value=12.0)])[0], 0),
        ("lower beyond", gate([lo], [dict(lo, value=12.1)])[0], 1),
        # Improvements never fail, in either direction.
        ("lower improved", gate([lo], [dict(lo, value=1.0)])[0], 0),
        ("higher improved", gate([hi], [dict(hi, value=500.0)])[0], 0),
        # higher-is-better fails when the value falls too far.
        ("higher within", gate([hi], [dict(hi, value=80.0)])[0], 0),
        ("higher beyond", gate([hi], [dict(hi, value=79.0)])[0], 1),
        # Per-metric threshold override beats the global one.
        ("override loose",
         gate([dict(lo, threshold=0.50)], [dict(lo, value=14.0)])[0], 0),
        ("override tight",
         gate([dict(lo, threshold=0.01)], [dict(lo, value=10.2)])[0], 1),
        # threshold 0 gates a deterministic count exactly: equal passes,
        # one more fails even under a loose global threshold.
        ("exact equal", gate([dict(cnt, threshold=0)], [cnt])[0], 0),
        ("exact plus one",
         gate([dict(cnt, threshold=0)], [dict(cnt, value=134.0)])[0], 1),
        # A metric present in the baseline but absent from the run fails;
        # a NEW metric with no baseline is informational only.
        ("metric missing", gate([lo, hi], [lo])[0], 1),
        ("new metric ok", gate([lo], [lo, dict(hi, name="extra")])[0], 0),
        # A baseline file the bench never produced fails.
        ("file missing", gate([lo], [], drop_current=True)[0], 1),
    ]
    failures = [name for name, got, want in checks if got != want]

    # The failure line must name the offending metric.
    code, rows = gate([lo], [dict(lo, value=99.0)])
    if code != 1 or not any(r[1] == "lat" and r[6] == "REGRESS"
                            for r in rows):
        failures.append("offender named")

    # The step-summary table renders every row.
    with tempfile.TemporaryDirectory() as tmp:
        summary = os.path.join(tmp, "summary.md")
        write_step_summary(rows, code, summary)
        with open(summary) as f:
            text = f.read()
        if "`lat`" not in text or "FAILED" not in text:
            failures.append("step summary rendered")

    if failures:
        print("self-test FAILED:", ", ".join(failures))
        return 1
    print("self-test passed ({} checks)".format(len(checks) + 2))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional regression (default 0.20)")
    ap.add_argument("--only", default=None,
                    help="comma-separated bench names to gate "
                         "(default: every committed baseline)")
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the threshold logic and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    only = set(args.only.split(",")) if args.only else None
    code, rows = run_gate(args.baseline_dir, args.current_dir,
                          args.threshold, only=only)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        write_step_summary(rows, code, summary_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
