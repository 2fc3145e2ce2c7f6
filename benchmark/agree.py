#!/usr/bin/env python3
"""Check that two sets of benchmark runs agree within the benchmark's bounds.

    benchmark/agree.py A.jsonl B.jsonl

Each file holds run records, one JSON object per line, as run.sh appends
them (`run.sh --record FILE ...`). Records are grouped by workload and by
traced/untraced. For every metric the script prints each set's median and
quartiles and the spread (q3 - q1) / median.

Exit status:
  0  the sets agree;
  1  they disagree: an end-to-end median of untraced runs moved by more
     than its bound in BENCHMARK.json, a deterministic metric differs
     between runs of the same seed, or a run failed its correctness checks;
  2  the sets are not comparable: a group is missing from one set, or the
     config fingerprints (everything but the seed) differ.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def config_id(rec):
    fp = dict(rec["fingerprint"])
    fp.pop("seed", None)
    return json.dumps(fp, sort_keys=True)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    a, b = load(argv[1]), load(argv[2])
    if set(a) != set(b):
        print(f"refusing: groups differ: {sorted(set(a) ^ set(b))}")
        return 2

    status = 0
    for key in sorted(a):
        workload, traced = key
        ids = {config_id(r) for r in a[key] + b[key]}
        if len(ids) != 1:
            print(f"refusing: {workload}: config fingerprints differ:")
            for i in sorted(ids):
                print(f"  {i}")
            return 2
        failed = [r["seed"] for r in a[key] + b[key] if not r["correct"]]
        if failed:
            print(f"{workload}: runs failed correctness checks (seeds {failed})")
            status = 1

        print(f"\n{workload}{' (traced)' if traced else ''}: "
              f"{len(a[key])} vs {len(b[key])} runs")
        print(f"  {'metric':32} {'unit':10} {'A q1/median/q3':>36}"
              f" {'B q1/median/q3':>36} {'spread A/B':>14}")
        metrics = a[key][0]["metrics"]
        for name, meta in metrics.items():
            va = [r["metrics"][name]["value"] for r in a[key]]
            vb = [r["metrics"][name]["value"] for r in b[key]]
            qa, qb = quartiles(va), quartiles(vb)
            spread = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
            verdict = ""
            if meta["deterministic"]:
                by_seed = {r["seed"]: r["metrics"][name]["value"] for r in a[key]}
                for r in b[key]:
                    if r["seed"] in by_seed and r["metrics"][name]["value"] != by_seed[r["seed"]]:
                        verdict = f"DIFFERS at seed {r['seed']} (must match exactly)"
            elif name in bounds and not traced and qa[1]:
                moved = abs(qb[1] - qa[1]) / qa[1]
                if moved > bounds[name]:
                    verdict = f"median moved {moved:.1%} > bound {bounds[name]:.0%}"
            if verdict:
                status = 1
            print(f"  {name:32} {meta['unit']:10}"
                  f" {'/'.join(f'{x:.4g}' for x in qa):>36}"
                  f" {'/'.join(f'{x:.4g}' for x in qb):>36}"
                  f" {spread[0]:6.1%}/{spread[1]:6.1%}  {verdict}")
    print("\nagree" if status == 0 else "\nDISAGREE")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
