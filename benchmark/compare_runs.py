#!/usr/bin/env python3
"""Summarizes one set of benchmark runs, or compares two.

    python3 benchmark/compare_runs.py A_DIR [B_DIR] [--json OUT]

Each directory holds run logs named <workload>.seed<N>.trace<T>.<tag>.log,
each the standard output of one benchmark/run.py run (run_benchmark.sh
writes them so): every metric as "name value unit", then the result line.
End-to-end metrics are taken from untraced runs (trace0) only; every other
metric from all runs.  For every metric and workload it prints one row per
set: the median, the quartiles (statistics.quantiles(values, n=4)) and the
spread, (q3 - q1) / median.  Given two sets it also prints the change of
the medians and flags

  BOUND  an end-to-end metric whose medians differ by more than its bound
         on that workload in metrics.json (either direction; the row says
         which is worse).  A pair whose bound there is null is demoted,
         because its run-to-run spread exceeded 10%: it is not flagged,
         and its row says "unresolved" unless every run of one set reads
         better than every run of the other;
  EXACT  a counter that metrics.json marks exact on the workload and that
         differs between any two runs with the same workload and seed, in
         either set or across the sets;
  FAIL   a run whose result line is not correct, or which printed none.

Exits 1 when anything is flagged.  --json writes the first set's summary
(median, q1, q3, spread and run count per workload and metric).
"""

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME_RE = re.compile(r"^([A-Za-z0-9_-]+)\.seed(\d+)\.trace([01])\.")


def load(directory, e2e):
    """({workload: {metric: [(seed, value), ...]}}, [failed log names])."""
    runs = defaultdict(lambda: defaultdict(list))
    failed = []
    for path in sorted(Path(directory).glob("*.log")):
        m = NAME_RE.match(path.name)
        if not m:
            continue
        workload, seed, traced = m.group(1), int(m.group(2)), m.group(3) == "1"
        lines = path.read_text().splitlines()
        try:
            ok = json.loads(lines[-1])["correct"] is True
        except (IndexError, ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed.append(path.name)
            continue
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) != 3 or (traced and parts[0] in e2e):
                continue
            try:
                runs[workload][parts[0]].append((seed, float(parts[1])))
            except ValueError:
                pass
    return runs, failed


def summary(pairs):
    values = [v for _, v in pairs]
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def exact_mismatches(pairs):
    by_seed = defaultdict(set)
    for seed, v in pairs:
        by_seed[seed].add(v)
    return sorted(s for s, vals in by_seed.items() if len(vals) > 1)


def fmt(s):
    return (f"{s['median']:12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
            f"spread {100 * s['spread']:5.1f}% n={s['n']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b", nargs="?")
    ap.add_argument("--json", help="write the first set's summary here")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "metrics.json").read_text())
    defs = {**spec["per_layer"], **spec["detail"]}
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    a, failed = load(args.a, e2e)
    b = {}
    if args.b:
        b, failed_b = load(args.b, e2e)
        failed += failed_b
    if not a:
        sys.exit(f"compare_runs: no run logs in {args.a}")
    flags = len(failed)
    for name in failed:
        print("FAIL", name)
    order = list(e2e) + list(defs)
    seen = {m for runs in (a, b) for w in runs.values() for m in w}
    order += sorted(seen - set(order))
    out = {}
    for metric in order:
        for workload in sorted(set(a) | set(b)):
            pa = a.get(workload, {}).get(metric)
            pb = b.get(workload, {}).get(metric)
            if not pa and not pb:
                continue
            row = f"{metric:40} {workload:14}"
            sa = summary(pa) if pa else None
            sb = summary(pb) if pb else None
            if sa:
                out.setdefault(workload, {})[metric] = sa
            notes = []
            if metric in defs and workload in defs[metric]["exact_on"]:
                bad = exact_mismatches((pa or []) + (pb or []))
                if bad:
                    notes.append(f"EXACT differs for seeds {bad}")
            if sa and sb and metric in e2e and sa["median"]:
                change = sb["median"] / sa["median"] - 1
                worse = change > 0 if e2e[metric]["better"] == "lower" \
                    else change < 0
                notes.append(f"change {100 * change:+.1f}%")
                bound = spec["end_to_end"][metric]["bound"][workload]
                if bound is None:
                    va = [v for _, v in pa]
                    vb = [v for _, v in pb]
                    if max(vb) < min(va) or min(vb) > max(va):
                        lower = max(vb) < min(va)
                        notes.append("every run of B " + (
                            "better" if lower == (e2e[metric]["better"] ==
                                                  "lower") else "worse"))
                    else:
                        notes.append("unresolved (no bound)")
                elif abs(change) > bound:
                    notes.append("BOUND " + ("worse" if worse else "better"))
            flags += sum(n.startswith(("EXACT", "BOUND")) for n in notes)
            print(row, "A", fmt(sa) if sa else "-")
            if args.b:
                print(" " * len(row), "B", fmt(sb) if sb else "-")
            if notes:
                print(" " * len(row), "  ", "; ".join(notes))
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1, sort_keys=True)
                                   + "\n")
    print(f"{flags} flagged")
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
