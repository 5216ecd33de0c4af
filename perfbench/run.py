#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark binary (a package of
its own under perfbench/) from source, then runs it in separate
processes: with --trace 0 one untraced process measures the end-to-end
metrics; with --trace 1 a traced process and a layer process measure the
per-layer metrics. Prints one JSON object as the last line of standard
output and exits 0, or exits 1 without a result when anything fails.

--size tiny shrinks every workload for the self-test (selftest.py).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return target, os.path.join(target, "release", "perfbench")


def run_child(cmd):
    """Runs one benchmark process; returns its parsed last output line."""
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if out.returncode != 0:
        fail(f"exit {out.returncode}: {' '.join(cmd)}")
    lines = out.stdout.decode().strip().splitlines()
    if not lines:
        fail(f"no result from {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target, exe = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.size == "tiny":
        common.append("--tiny")
    if args.trace:
        out_dir = os.path.join(target, "perfbench-spans")
        parts = [run_child([exe, "trace", *common, "--out", out_dir]),
                 run_child([exe, "layers", *common])]
    else:
        parts = [run_child([exe, "e2e", *common])]

    metrics = {}
    for part in parts:
        metrics.update(part["metrics"])
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} missing or not in {m['unit']}: {got}")
    result = {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
