#!/usr/bin/env python3
"""Compare a parent and a change checkout on the end-to-end benchmark.

  python3 bench/e2e/compare.py --parent DIR --change DIR [--pairs 10]
        [--seed 1] [--seconds S] [--workload NAME ...]

Runs --pairs pairs of every workload with identical settings, alternating
which side runs first. Pair i uses seed --seed + i on both sides, so a claim
can be re-checked on unseen seeds by moving --seed. Each side runs its own
bench/e2e/run.py (a change that claims a gain may not edit the benchmark, so
the two are identical). The bounds come from the parent's BENCHMARK.json.

Prints one row per (workload, end-to-end metric): each side's median and
quartiles, the change's relative difference, the fraction of pairs the change
won (ties count for neither side), and a verdict:
  improved     the change won >= 90% of pairs and the medians differ by more
               than the parent's interquartile range, every change run passed
               its checks, and the change failed no more ops in total than
               the parent;
  unresolved   the parent's own spread (IQR / median) exceeds the bound, and
               not every change run beat every parent run;
  regressed    the change's median is worse than the parent's by more than
               the bound;
  no worse     otherwise (within the bound).
Passing the same directory as --parent and --change measures the benchmark's
own run-to-run spread.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    command = [sys.executable, "bench/e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    process = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = process.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed no result "
                           f"(exit {process.returncode}):\n{process.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {checkout}: {workload} seed {seed} failed its checks",
              file=sys.stderr)
    details = checkout / ".bench_build/e2e/results" / f"{workload}_seed{seed}.json"
    void = json.loads(details.read_text()).get("void") if details.exists() else ""
    if void:
        print(f"warning: {checkout}: {workload} seed {seed} is void: {void}",
              file=sys.stderr)
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, metric, gain_allowed):
    """gain_allowed is False when the change failed a check or failed more
    ops than the parent: then no metric can read as improved."""
    lower_better = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)

    def better(c, p):
        return c < p if lower_better else c > p

    wins = sum(better(c, p) for c, p in zip(change, parent))
    win_frac = wins / len(parent)
    worse = ((cm - pm) if lower_better else (pm - cm)) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(better(c, p) for c in change for p in parent)
    if (gain_allowed and win_frac >= 0.9 and abs(cm - pm) > (p3 - p1)
            and better(cm, pm)):
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "no worse"
    return win_frac, -worse, spread, word


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    if args.pairs < 10:
        # Fewer pairs cannot support the 9-in-10 win rule.
        parser.error("--pairs must be >= 10")

    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: {w: [] for w in workloads} for side in sides}

    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                runs[side][workload].append(
                    run_once(sides[side], workload, args.seed + i, args.seconds))
            print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr)

    header = (f"{'workload':16} {'metric':17} {'parent median [q1, q3]':32} "
              f"{'change median [q1, q3]':32} {'change':>8} {'won':>5} "
              f"{'p.spread':>8} {'bound':>6}  verdict")
    print(header)
    for workload in workloads:
        failed = {side: sum(run["failed"] for run in runs[side][workload])
                  for side in sides}
        gain_allowed = (failed["change"] <= failed["parent"] and
                        all(run["correct"] for run in runs["change"][workload]))
        if not gain_allowed:
            print(f"{workload}: the change failed {failed['change']} ops "
                  f"(parent {failed['parent']}) or a check; no gain counts")
        for metric in metrics:
            name = metric["name"]
            parent = [run["metrics"][name] for run in runs["parent"][workload]]
            change = [run["metrics"][name] for run in runs["change"][workload]]
            win_frac, better_by, spread, word = verdict(parent, change, metric,
                                                        gain_allowed)
            pq, cq = quartiles(parent), quartiles(change)
            print(f"{workload:16} {name:17} "
                  f"{pq[1]:10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(67) +
                  f"{cq[1]:10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(33) +
                  f"{100 * better_by:+7.2f}% {win_frac:5.2f} {100 * spread:7.2f}% "
                  f"{metric['bound']:6.3f}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
