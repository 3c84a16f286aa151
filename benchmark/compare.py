#!/usr/bin/env python3
"""Records sets of benchmark runs and compares two of them.

    python3 benchmark/compare.py record OUT_DIR [--workloads views,decide,...]
                                [--seeds 1-10]
    python3 benchmark/compare.py spread RUN_DIR
    python3 benchmark/compare.py compare BASE_DIR NEW_DIR

`record` runs `benchmark/run.py` once per workload and seed (from the
repository root, for BENCHMARK.json's `run_seconds`, with `--trace 0`) and
keeps each run's result line in
`OUT_DIR/<workload>-<seed>.json`. `spread` prints, per workload and
end-to-end metric, the median, the quartiles and the spread (interquartile
distance over the median) of one set. `compare` prints both sides'
medians and quartiles and a verdict per workload and metric:

* `unresolved` when either side's spread exceeds the metric's bound;
* `worse` / `better` when the medians differ by more than the bound, in
  the metric's `better` direction;
* `same` otherwise.

Bounds, directions and the run length come from BENCHMARK.json.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}", file=sys.stderr)
                status = 1
                continue
            with open(os.path.join(args.out, f"{workload}-{seed}.json"), "w") as f:
                f.write(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {lines[-1]}")
    return status


def load(run_dir):
    """{workload: [result, ...]} from a directory written by `record`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "*.json"))):
        workload = os.path.basename(path).rsplit("-", 1)[0]
        with open(path) as f:
            runs.setdefault(workload, []).append(json.loads(f.read()))
    return runs


def stats(values):
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def spread(args):
    bench = spec()
    runs = load(args.run_dir)
    worst = 0
    for workload, results in sorted(runs.items()):
        incorrect = sum(1 for r in results if not r["correct"])
        print(f"{workload}: {len(results)} runs, {incorrect} incorrect, "
              f"failed share {failed_share(results):.6f}")
        for m in bench["end_to_end"]:
            values = metric_values(results, m["name"])
            if not values:
                continue
            med, q1, q3, sp = stats(values)
            flag = ""
            if sp > m["bound"]:
                flag, worst = "  OVER BOUND", 1
            elif sp > m["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"  {m['name']:<16} median {med:>14.6g} {m['unit']:<4} q1 {q1:>12.6g} "
                  f"q3 {q3:>12.6g} spread {sp:6.3f} (bound {m['bound']}){flag}")
    return worst


def compare(args):
    bench = spec()
    base, new = load(args.base_dir), load(args.new_dir)
    for workload in sorted(set(base) & set(new)):
        print(f"{workload}: failed share {failed_share(base[workload]):.6f} -> "
              f"{failed_share(new[workload]):.6f}")
        for m in bench["end_to_end"]:
            a = metric_values(base[workload], m["name"])
            b = metric_values(new[workload], m["name"])
            if not a or not b:
                continue
            ma, qa1, qa3, sa = stats(a)
            mb, qb1, qb3, sb = stats(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change > 0 if m["better"] == "lower" else change < 0
            if max(sa, sb) > m["bound"]:
                verdict = "unresolved"
            elif abs(change) > m["bound"]:
                verdict = "worse" if worse else "better"
            else:
                verdict = "same"
            print(f"  {m['name']:<16} base {ma:>12.6g} [{qa1:.6g}, {qa3:.6g}]  "
                  f"new {mb:>12.6g} [{qb1:.6g}, {qb3:.6g}]  {change:+7.1%}  {verdict}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("out")
    r.add_argument("--workloads")
    r.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("run_dir")
    c = sub.add_parser("compare")
    c.add_argument("base_dir")
    c.add_argument("new_dir")
    args = parser.parse_args()
    return {"record": record, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
