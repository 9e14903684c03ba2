#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ride-whale480 --seed 42 \
        --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs one workload, writes the full result with host facts to
.bench_out/<workload>-seed<seed>-trace<t>.json (and, with --trace 1, the
sampled span log next to it), prints every metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits non-zero if the build, the run or an output check
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail(f"library sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    expected = expected_metrics(args.trace)
    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", stem + "-spans.json"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"benchmark binary exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result["host"]["git_commit"] = git_commit()
    result["host"]["source_digest"] = source_digest()
    result["host"]["optimized_build"] = (
        result["host"]["build_type"] in ("Release", "RelWithDebInfo"))
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)

    metrics = result["metrics"]
    if set(metrics) != set(expected) or any(
            metrics[k]["unit"] != u for k, u in expected.items()):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    host = result["host"]
    print(f"workload {result['workload']} seed {args.seed} trace {args.trace}"
          f"  reps {result['reps']} (+{result['traced_reps']} traced)"
          f" x {result['sub_runs']} sub-runs")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print("samples " + " ".join(f"{k}={v:g}"
                                for k, v in result["samples"].items()))
    print("fingerprints " + " ".join(result["fingerprints"].values()))
    for name, ok in result["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    # The binary exits 1 when an output check fails.
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
