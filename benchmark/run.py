#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  On first use it builds benchmark/ (a
CMake project compiling ../src plus the driver) into $CARGO_TARGET_DIR
(default .bench_build); later runs only rebuild what changed.  It then runs
the driver, which checks every verdict against benchmark/expected/, and
prints every metric the driver measured as "name value unit", followed by
one JSON line with the keys correct, attempted, failed and metrics.  The
driver reports names and values; units come from BENCHMARK.json for its
metrics and from metrics.json for the detail metrics.  With --trace 0 the
JSON metrics are BENCHMARK.json's end_to_end list; with --trace 1 they are
its per_layer list, taken from a traced run whose Chrome trace file is kept
under <build dir>/traces/.  A per-layer count or fraction of a layer the
workload does not use (outside its "on" list in metrics.json) reads 0.

Exits 0 only when the run completed and every output was correct; exits
nonzero without a result line when the program cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds; all tool output goes to stderr."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "islaris_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "metrics.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Keep the compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = str(build_dir / "tmp")
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(build_dir / "run"),
           "--expected", str(HERE / "expected" / "verdicts.tsv")]
    trace_file = None
    if args.trace:
        trace_file = build_dir / "traces" / f"{args.workload}.seed{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_file)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    try:
        doc = json.loads(r.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"driver exited {r.returncode} without a result")

    correct = bool(doc["correct"]) and r.returncode == 0
    if trace_file is not None:
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
            correct = correct and isinstance(events, list) and len(events) > 0
        except (OSError, ValueError, KeyError, TypeError):
            print("run.py: trace file is not valid Chrome trace JSON",
                  file=sys.stderr)
            correct = False

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units.update((name, d["unit"]) for name, d in spec["detail"].items())
    got = doc["metrics"]
    for name, value in got.items():
        if name not in units:
            fail(f"driver reported {name}, which no definition names")
        print(name, value, units[name])

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in got:
            value = got[name]
        elif args.trace and args.workload not in spec["per_layer"][name]["on"]:
            value = 0
        else:
            fail(f"driver did not report {name} on {args.workload}")
        metrics[name] = {"value": value, "unit": m["unit"]}

    print(json.dumps({"correct": correct, "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
