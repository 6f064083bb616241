#!/usr/bin/env python3
"""Checks the repository benchmark's exact counters against a committed file.

    python3 .github/bench_counters.py RESULTS_DIR EXPECTED_JSON [--write]

RESULTS_DIR is the --out directory of one
`benchmark/run_benchmark.sh --seed N --seconds S` run.  For every workload
the script reads the JSON result line of its traced run
(<workload>.seed<N>.trace1.*.log) and keeps each metric that
benchmark/metrics.json marks exact for that workload ("exact_on"); the
daemon_mixed counters that depend on request interleaving are not marked
there, so they are not compared.  It prints any counter that differs from
EXPECTED_JSON and exits 1, or exits 0 when all match.  --write records the
counters into EXPECTED_JSON instead.

A change that moves a counter updates EXPECTED_JSON and says why in
CHANGES.md.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def exact_metrics():
    """{workload: [metric]} of the per-layer metrics exact on a workload."""
    defs = json.loads((ROOT / "benchmark" / "metrics.json").read_text())
    out = {}
    for name, d in defs["per_layer"].items():
        for w in d.get("exact_on", []):
            out.setdefault(w, []).append(name)
    return out


def traced_result(results, workload):
    """The metrics of the workload's traced run; exits if it is missing or
    its result line is not correct."""
    logs = sorted(results.glob(f"{workload}.seed*.trace1.*.log"))
    if len(logs) != 1:
        sys.exit(f"bench_counters: want one traced {workload} log in "
                 f"{results}, found {len(logs)}")
    for line in reversed(logs[0].read_text().splitlines()):
        if line.startswith("{"):
            result = json.loads(line)
            if result.get("correct") is not True:
                sys.exit(f"bench_counters: {logs[0]} is not correct")
            return result["metrics"]
    sys.exit(f"bench_counters: no result line in {logs[0]}")


def main():
    args = [a for a in sys.argv[1:] if a != "--write"]
    if len(args) != 2:
        sys.exit(__doc__)
    results, expected = Path(args[0]), Path(args[1])
    got = {}
    for w, names in sorted(exact_metrics().items()):
        metrics = traced_result(results, w)
        got[w] = {n: metrics[n]["value"] for n in sorted(names)}
    if "--write" in sys.argv:
        expected.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"bench_counters: wrote {expected}")
        return 0
    want = json.loads(expected.read_text())
    bad = 0
    for w in sorted(set(want) | set(got)):
        for n in sorted(set(want.get(w, {})) | set(got.get(w, {}))):
            a, b = want.get(w, {}).get(n), got.get(w, {}).get(n)
            if a != b:
                print(f"{w} {n}: expected {a}, got {b}")
                bad += 1
    count = sum(len(v) for v in got.values())
    print(f"bench_counters: {count - bad} of {count} exact counters match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
