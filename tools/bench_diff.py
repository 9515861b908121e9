#!/usr/bin/env python3
"""Diff google-benchmark JSON files and track the benchmark trajectory.

Two modes:

  bench_diff.py BASELINE.json NEW.json [--threshold 0.20] [--markdown-out F]
                [--gate REGEX]
      Compare one run against a baseline. Regressions beyond the threshold
      are reported as GitHub Actions `::warning::` annotations; the exit
      code is 0 — CI machines are noisy, so the diff informs rather than
      gates — EXCEPT for benchmarks matching --gate (e.g. the serving
      hot path), whose regressions are `::error::` annotations and make
      the script exit 1.

      --ratio-gate NUM:DEN:MAX (repeatable) adds a same-run gate on NEW.json
      alone: benchmark NUM may take at most MAX times as long per iteration
      as benchmark DEN (real_time, units normalized). Both run on the same
      machine in the same job, so the gate holds on any runner, unlike the
      absolute --gate against a baseline recorded elsewhere. A failed or
      missing pair is an `::error::` and exit 1.

  bench_diff.py --trajectory RUN1.json RUN2.json ... [--markdown-out F]
      Render a benchmark × run markdown table of throughputs (the ROADMAP's
      BENCH trajectory dashboard). Runs are ordered oldest → newest; column
      labels default to the file names, override with --labels. CI feeds
      this the committed baseline plus the fresh run and appends the table
      to the job summary; pointing it at a directory of archived
      BENCH_core artifacts charts the whole PR history.

Throughput is `items_per_second`, falling back to inverse `real_time`.
"""

import argparse
import json
import os
import re
import sys


def metric(entry):
    """Throughput-like metric: higher is better."""
    if "items_per_second" in entry:
        return float(entry["items_per_second"]), "items/s"
    real_time = float(entry.get("real_time", 0))
    if real_time > 0:
        return 1.0 / real_time, "1/time"
    return None, None


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        value, kind = metric(entry)
        if value is not None:
            out[entry["name"]] = (value, kind)
    return out


_SECONDS_PER_UNIT = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def load_seconds(path):
    """Per-iteration real time in seconds, by benchmark name."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate" or "real_time" not in entry:
            continue
        unit = _SECONDS_PER_UNIT[entry.get("time_unit", "ns")]
        out[entry["name"]] = float(entry["real_time"]) * unit
    return out


def parse_ratio_gate(spec):
    """'NUM:DEN:MAX' -> (NUM, DEN, MAX). Names may contain '/' but not ':'."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"ratio gate '{spec}' is not NUM:DEN:MAX")
    try:
        limit = float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"ratio gate '{spec}': MAX must be a number")
    if not limit > 0:
        raise argparse.ArgumentTypeError(
            f"ratio gate '{spec}': MAX must be positive")
    return parts[0], parts[1], limit


def check_ratio_gates(new_path, gates):
    """Returns the number of failed same-run ratio gates."""
    times = load_seconds(new_path)
    failures = 0
    for num, den, limit in gates:
        missing = [name for name in (num, den) if name not in times]
        if missing:
            failures += 1
            print(f"::error::ratio gate {num} <= {limit:g} x {den}: "
                  f"benchmark missing from {new_path}: {', '.join(missing)}")
            continue
        ratio = times[num] / times[den] if times[den] > 0 else float("inf")
        verdict = "ok" if ratio <= limit else "FAILED"
        print(f"ratio gate {num} / {den} = {ratio:.2f}x "
              f"(limit {limit:g}x): {verdict}")
        if ratio > limit:
            failures += 1
            print(f"::error::ratio gate failed: {num} takes {ratio:.2f}x "
                  f"as long as {den} (limit {limit:g}x)")
    return failures


def human(value):
    """1234567 -> '1.23M' — keeps the markdown table scannable."""
    for cutoff, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= cutoff:
            return f"{value / cutoff:.3g}{suffix}"
    return f"{value:.3g}"


def write_markdown(path, lines):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
        print(f"bench_diff: wrote markdown to {path}")
    else:
        print(text)


def run_trajectory(paths, labels, markdown_out):
    if labels and len(labels) != len(paths):
        print("bench_diff: --labels count must match the number of runs",
              file=sys.stderr)
        return 2
    labels = labels or [os.path.splitext(os.path.basename(p))[0]
                        for p in paths]
    runs = [load(p) for p in paths]
    names = sorted(set().union(*[set(r) for r in runs]))

    lines = ["# Benchmark trajectory", "",
             "Throughput (items/s; higher is better). Runs ordered oldest "
             "to newest.", "",
             "| benchmark | " + " | ".join(labels) + " | last/first |",
             "|---|" + "---:|" * (len(runs) + 1)]
    for name in names:
        cells = [human(run[name][0]) if name in run else "—" for run in runs]
        # Only meaningful when the benchmark exists in BOTH endpoint runs;
        # a benchmark added mid-history must show "—", not a partial ratio.
        ratio = "—"
        if len(runs) >= 2 and name in runs[0] and name in runs[-1]:
            first, last = runs[0][name][0], runs[-1][name][0]
            if first > 0:
                ratio = f"{last / first:.2f}x"
        lines.append(f"| `{name}` | " + " | ".join(cells) + f" | {ratio} |")
    lines += ["", f"{len(names)} benchmarks across {len(runs)} run(s)."]
    write_markdown(markdown_out, lines)
    return 0


def run_diff(baseline_path, new_path, threshold, markdown_out, gate=None):
    base = load(baseline_path)
    new = load(new_path)
    shared = sorted(set(base) & set(new))
    if not shared:
        print("bench_diff: no shared benchmark names; nothing to compare")
        return 0

    gate_re = re.compile(gate) if gate else None
    regressions = 0
    gated_failures = 0
    md = ["# Benchmark diff", "",
          f"`{baseline_path}` → `{new_path}`", "",
          "| benchmark | baseline | new | ratio |", "|---|---:|---:|---:|"]
    print(f"{'benchmark':52s} {'baseline':>12s} {'new':>12s} {'ratio':>7s}")
    for name in shared:
        b, _ = base[name]
        n, _ = new[name]
        ratio = n / b if b > 0 else float("inf")
        flag = ""
        if ratio < 1.0 - threshold:
            flag = "  <-- regression"
            regressions += 1
            if gate_re and gate_re.search(name):
                gated_failures += 1
                print(f"::error::gated bench regression: {name} "
                      f"{b:.3g} -> {n:.3g} items/s ({ratio:.2f}x)")
            else:
                print(f"::warning::bench regression: {name} "
                      f"{b:.3g} -> {n:.3g} items/s ({ratio:.2f}x)")
        print(f"{name:52s} {b:12.4g} {n:12.4g} {ratio:6.2f}x{flag}")
        md.append(f"| `{name}` | {human(b)} | {human(n)} | {ratio:.2f}x"
                  f"{' ⚠️' if flag else ''} |")

    dropped = sorted(set(base) - set(new))
    for name in dropped:
        # A gated benchmark must not dodge its gate by vanishing.
        if gate_re and gate_re.search(name):
            gated_failures += 1
            print(f"::error::gated benchmark disappeared from suite: {name}")
        else:
            print(f"::warning::benchmark disappeared from suite: {name}")
    summary = (f"{len(shared)} compared, {regressions} regressed beyond "
               f"{threshold:.0%}, {len(dropped)} dropped")
    if gate_re:
        summary += f", {gated_failures} gated failure(s) for /{gate}/"
    print(f"bench_diff: {summary}")
    if markdown_out:
        md += ["", summary]
        write_markdown(markdown_out, md)
    return 1 if gated_failures else 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline", nargs="?",
                        help="baseline JSON (diff mode)")
    parser.add_argument("new", nargs="?", help="new-run JSON (diff mode)")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="warn when throughput drops more than this "
                             "fraction (default 0.20)")
    parser.add_argument("--trajectory", nargs="+", metavar="RUN.json",
                        help="render a benchmark × run markdown table "
                             "instead of diffing")
    parser.add_argument("--labels", nargs="+",
                        help="column labels for --trajectory (default: "
                             "file names)")
    parser.add_argument("--markdown-out", metavar="FILE",
                        help="also write the result as markdown")
    parser.add_argument("--gate", metavar="REGEX",
                        help="escalate regressions of matching benchmarks "
                             "to errors and exit 1 (diff mode)")
    parser.add_argument("--ratio-gate", metavar="NUM:DEN:MAX",
                        action="append", type=parse_ratio_gate, default=[],
                        help="fail unless benchmark NUM takes at most MAX "
                             "times as long as DEN within NEW.json "
                             "(repeatable; diff mode)")
    args = parser.parse_args()

    if args.trajectory:
        return run_trajectory(args.trajectory, args.labels, args.markdown_out)
    if not args.baseline or not args.new:
        parser.error("need BASELINE.json NEW.json (or --trajectory)")
    status = run_diff(args.baseline, args.new, args.threshold,
                      args.markdown_out, args.gate)
    if check_ratio_gates(args.new, args.ratio_gate):
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
