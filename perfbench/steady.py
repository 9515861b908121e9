#!/usr/bin/env python3
"""Steadiness report for the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--repeat-check]

Runs each workload --runs times through run.py (untraced, one seed per run,
--seconds from BENCHMARK.json). For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median. It then compares the median of
the first half of the runs with that of the second half. A metric fails when
its spread exceeds its bound or when one half's median is worse than the
other's by more than the bound.
Spreads under a third of the bound are marked steady. The operation metrics
each run prints (op.*) are summarised too, without a verdict.

--repeat-check also runs each workload twice at the first seed, traced and
untraced, and requires tvd_2way and the store hit and miss counts to repeat
exactly.

Exits 1 when any metric fails or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError("%s seed %d exited %d" % (workload, seed,
                                                     proc.returncode))
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    details = {}
    for line in lines:
        if line.startswith("metric: "):
            _, name, value = line.split()
            details[name] = value
    host = [line for line in lines if line.startswith("host:")]
    return values, details, host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def report(workload, runs, spec):
    ok = True
    print("\n== %s (%d runs) ==" % (workload, len(runs)))
    print("%-20s %12s %12s %12s %8s %6s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "halves", "verdict"))
    half = len(runs) // 2
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = [r[0][name] for r in runs]
        med, q1, q3, spr = spread(vals)
        first = statistics.median(vals[:half])
        second = statistics.median(vals[half:])
        drift = max(worse_by(first, second, m["better"]),
                    worse_by(second, first, m["better"]))
        verdict = "steady"
        if spr > bound:
            verdict = "FAIL spread"
        elif drift > bound:
            verdict = "FAIL halves"
        elif spr > bound / 3:
            verdict = "within bound"
        if verdict.startswith("FAIL"):
            ok = False
        print("%-20s %12.6g %12.6g %12.6g %8.4f %6.3f %8.4f  %s" % (
            name, med, q1, q3, spr, bound, drift, verdict))
    names = sorted({k for r in runs for k in r[1] if k.startswith("op.")})
    for name in names:
        vals = [float(r[1][name]) for r in runs]
        if not any(vals):
            continue
        med, q1, q3, spr = spread(vals)
        print("%-20s %12.6g %12.6g %12.6g %8.4f %6s %8s  (info)" % (
            name, med, q1, q3, spr, "-", "-"))
    return ok


def repeat_check(workload, seed, seconds):
    ok = True
    a, _, _ = run_once(workload, seed, seconds, 0)
    b, _, _ = run_once(workload, seed, seconds, 0)
    if a["tvd_2way"] != b["tvd_2way"]:
        print("%s: tvd_2way did not repeat: %r vs %r" % (
            workload, a["tvd_2way"], b["tvd_2way"]))
        ok = False
    ta, _, _ = run_once(workload, seed, seconds, 1)
    tb, _, _ = run_once(workload, seed, seconds, 1)
    for key in ("data.marginal_hits", "data.marginal_misses"):
        if ta[key] != tb[key]:
            print("%s: %s did not repeat: %r vs %r" % (
                workload, key, ta[key], tb[key]))
            ok = False
    print("%s: repeat check %s (tvd_2way %r, hits %r, misses %r, "
          "tracing overhead %+.3f)" % (
              workload, "ok" if ok else "FAILED", a["tvd_2way"],
              ta["data.marginal_hits"], ta["data.marginal_misses"],
              ta["trace.overhead_ratio"]))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles and halves")

    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                runs.append(run_once(workload, seed, args.seconds, 0))
            except RuntimeError as e:
                print(e)
                ok = False
                continue
            print("%s seed %d: %s | %s" % (
                workload, seed, " ".join(
                    "%s=%.6g" % kv for kv in sorted(runs[-1][0].items())),
                " ".join(h[len("host: "):] for h in runs[-1][2][1:])),
                flush=True)
        if len(runs) >= 4:
            ok = report(workload, runs, spec) and ok
        if args.repeat_check:
            ok = repeat_check(workload, args.first_seed, args.seconds) and ok
    print("\nsteadiness: %s" % ("PASS" if ok else "FAIL"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
