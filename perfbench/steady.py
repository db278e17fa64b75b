#!/usr/bin/env python3
"""Steadiness mode of the CLAM benchmark.

Run each workload repeatedly, each time with another seed, and print each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median) next to the metric's bound:

    python3 perfbench/steady.py run --runs 10 --out .bench_build/set1.json

Compare two such sets: a metric fails when the second set's median is worse
than the first's by more than its bound:

    python3 perfbench/steady.py compare .bench_build/set1.json .bench_build/set2.json

Bounds, directions and run length come from BENCHMARK.json at the
repository root. Both commands exit non-zero on a failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"steady.py: {workload} seed {seed} failed (exit {proc.returncode})")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"steady.py: {workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in res["metrics"].items()}


def cmd_run(args):
    s = spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in s["workloads"]]
    seconds = s["run_seconds"]
    values = {}
    for w in names:
        values[w] = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            for name, v in run_once(w, seed, seconds).items():
                values[w].setdefault(name, []).append(v)
            print(f"  {w} seed {seed} done", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    ok = report(s, values)
    sys.exit(0 if ok else 1)


def report(s, values):
    """Print median, quartiles and spread; a spread over its bound fails."""
    ok = True
    for w, metrics in values.items():
        print(f"{w}: {len(next(iter(metrics.values())))} runs")
        print(f"  {'metric':<14} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in s["end_to_end"]:
            vals = metrics[m["name"]]
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            mark = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                mark, ok = "  OVER BOUND", False
            elif sp > m["bound"] / 3:
                mark = "  over a third of the bound"
            print(f"  {m['name']:<14} {q1:12.4f} {med:12.4f} {q3:12.4f} {sp:8.4f} {m['bound']:6.2f}{mark}")
    return ok


def cmd_compare(args):
    s = spec()
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for w in first:
        if w not in second:
            continue
        print(w)
        for m in s["end_to_end"]:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            status = "ok"
            if worse > m["bound"]:
                status, ok = "WORSE THAN BOUND", False
            print(f"  {m['name']:<14} {a:12.4f} -> {b:12.4f}  worse by {worse:+.4f} (bound {m['bound']:.2f})  {status}")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run each workload repeatedly and report spreads")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    r.add_argument("--workloads", help="comma-separated; default all of BENCHMARK.json")
    r.add_argument("--out", help="write the values to this JSON file")
    r.set_defaults(fn=cmd_run)
    c = sub.add_parser("compare", help="compare two sets of runs against the bounds")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(fn=cmd_compare)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
