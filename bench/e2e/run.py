#!/usr/bin/env python3
"""The end-to-end benchmark's one command.

Builds the benchmark binary (`e2e_bench`) and `subsel_cli` from this checkout's sources (Release,
into .bench_build/e2e/), runs each workload in its own process, checks its
outputs, and reports.

  python3 bench/e2e/run.py [--seed N] [--seconds S] [--trace 1]
      Runs all four workloads. Prints every end-to-end metric as
      "workload metric value unit", writes a results JSON with the manifest
      to .bench_build/e2e/results/e2e_seed<N>.json, and exits 1 on any
      correctness violation. --trace 1 also runs each workload traced and
      reports the per-layer metrics and the tracing overhead (traced minus
      untraced op_p50_s).

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      Runs one workload. The last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.

Build output goes to stderr. Without the repository's sources next to
bench/e2e (the top-level CMakeLists.txt and src/), the build fails and the
command exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["ingest_bound", "rounds_mem", "disk_ooc", "serve_open_loop"]
RUN_TIMEOUT_S = 170


def build():
    build_dir = BUILD / "build"
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "e2e_bench", "subsel_cli"],
                   stdout=sys.stderr, check=True)
    return build_dir


def source_hash():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "bench/e2e"):
        paths += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_state():
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return commit.stdout.strip(), "1" if status.stdout.strip() else "0"


def run_workload(build_dir, workload, seed, seconds, trace, manifest):
    work_dir = BUILD / "work" / workload
    results = BUILD / "results" / f"{workload}_seed{seed}{'_traced' if trace else ''}.json"
    work_dir.mkdir(parents=True, exist_ok=True)
    results.parent.mkdir(parents=True, exist_ok=True)
    command = [
        str(build_dir / "e2e_bench"),
        f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
        f"--trace={trace}",
        f"--work-dir={work_dir.relative_to(ROOT)}",
        f"--cli={build_dir / 'subsel_cli'}",
        f"--results={results}",
        f"--commit={manifest[0]}", f"--dirty={manifest[1]}",
        f"--source-hash={manifest[2]}",
    ]
    # Own session, so a timeout can stop the benchmark and its daemon together.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{workload}: e2e_bench exceeded {RUN_TIMEOUT_S} s")
    return process.returncode, stdout, results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    manifest = (*git_state(), source_hash())

    if args.workload is not None:
        code, stdout, _ = run_workload(build_dir, args.workload, args.seed,
                                     seconds, args.trace, manifest)
        sys.stdout.write(stdout)
        return code

    suite = {"schema": "subsel.bench_e2e_suite.v1", "seed": args.seed,
             "seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        entry = {}
        for trace in ((0, 1) if args.trace else (0,)):
            code, _, results = run_workload(build_dir, workload, args.seed,
                                          seconds, trace, manifest)
            if code not in (0, 1) or not results.exists():
                print(f"{workload}: e2e_bench failed with exit code {code}",
                      file=sys.stderr)
                return 3
            result = json.loads(results.read_text())
            all_correct &= result["correct"]
            suite.setdefault("manifest", result["manifest"])
            entry["traced" if trace else "untraced"] = result
            for name, metric in result["end_to_end"].items():
                if trace:
                    continue
                samples = f" n={metric['samples']}" if "samples" in metric else ""
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}{samples}")
            if trace:
                for name, metric in result["per_layer"].items():
                    print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
            for failure in result["failures"]:
                print(f"{workload} check failed: {failure}")
            if result["void"]:
                print(f"{workload} run void: {result['void']}")
        if args.trace:
            overhead = (entry["traced"]["end_to_end"]["op_p50_s"]["value"] -
                        entry["untraced"]["end_to_end"]["op_p50_s"]["value"])
            entry["tracing_overhead_s"] = overhead
            print(f"{workload} tracing_overhead_s {overhead:.6g} s")
        suite["workloads"][workload] = entry

    suite["correct"] = all_correct
    out = BUILD / "results" / f"e2e_seed{args.seed}.json"
    out.write_text(json.dumps(suite, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
