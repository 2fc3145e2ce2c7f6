#!/usr/bin/env python3
"""Smoke test of the benchmark binary (ctest name: benchmark_smoke).

    smoke.py BINARY REPO_ROOT

Runs every workload BENCHMARK.json lists for one pass without warm-up, at
the default seed, once untraced and once traced, from the current
directory (the build directory under ctest). Each run must:
  - end with a result line that is correct and has no failed operation;
  - report every end-to-end (untraced) or per-layer (traced) metric that
    BENCHMARK.json lists, with its unit, and no other;
  - use metric names matching [A-Za-z0-9_.-]+;
  - when traced, write a Chrome trace that parses.
"""

import json
import os
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def main(binary, root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            listed = bench["per_layer" if trace == "1" else "end_to_end"]
            trace_file = os.path.join("smoke", f"{workload}.trace.json")
            cmd = [binary, "--workload", workload, "--smoke", "--trace", trace,
                   "--work-dir", os.path.join("smoke", workload),
                   "--trace-file", trace_file,
                   "--golden", os.path.join(root, "benchmark", "golden.json")]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            label = f"{workload} --trace {trace}"
            print(f"{label}: exit {proc.returncode}")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line\n{proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: correctness checks failed\n{proc.stderr}")
            metrics = result["metrics"]
            for m in listed:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {m['name']} missing or not in {m['unit']}")
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            problems += [f"{label}: bad name {n!r}" for n in metrics if not NAME.match(n)]
            if trace == "1":
                try:
                    with open(trace_file) as f:
                        json.load(f)["traceEvents"]
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"{label}: bad trace file: {e}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
