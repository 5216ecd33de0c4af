#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs every workload of BENCHMARK.json at
a tiny size on the default seed and on the held-out seed, untraced and
traced, and checks that each run prints every named metric with its
unit, as a finite number, and that no cell fails. Exits 1 on the first
problem.
"""

import json
import math
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(here, "run.py"),
                       "--workload", workload["name"], "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
                out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     timeout=600)
                where = f"{workload['name']} seed {seed} trace {trace}"
                if out.returncode != 0:
                    problems.append(f"{where}: exit {out.returncode}\n{out.stderr.decode()}")
                    continue
                result = json.loads(out.stdout.decode().strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{where}: {result['failed']} of "
                                    f"{result['attempted']} cells failed")
                wanted = spec["per_layer" if trace else "end_to_end"]
                if set(result["metrics"]) != {m["name"] for m in wanted}:
                    problems.append(f"{where}: metric names differ from BENCHMARK.json")
                for m in wanted:
                    got = result["metrics"].get(m["name"], {})
                    value = got.get("value")
                    if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                            or not math.isfinite(value):
                        problems.append(f"{where}: {m['name']} = {got}")
                print(f"{where}: {result['attempted']} cells checked, "
                      f"{len(result['metrics'])} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("selftest passed")


if __name__ == "__main__":
    main()
