#!/usr/bin/env python3
"""Runs one workload of the validator benchmark.

    python3 tvbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds the tvbench program (the alive2re
library from src/ plus tvbench/tvbench.cpp, RelWithDebInfo) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the workload
in its own process. The program's report goes to stdout; its last line is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics, and this script checks that.

The exit code is 0 only when the build and the run succeed and every verdict
agrees with its known answer.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = "tvbench"
# A run must end within 180 s; the first one in a checkout also builds.
RUN_LIMIT_S = 170


def fail(msg):
    print(f"tvbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def configured_source(cache):
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return line.split("=", 1)[1]
    return None


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = out / "CMakeCache.txt"
    if cache.exists() and configured_source(cache) != str(HERE):
        # A build tree configured for another checkout cannot be reused.
        shutil.rmtree(out)
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", PROGRAM,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return out / PROGRAM


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return spec, {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        fail("the last line of the report is not JSON")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json's "
             f"{sorted(expected.items())}")
    for name, m in res["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")
    if res["attempted"] < 1:
        fail("no pair was attempted")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    spec, expected = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    out = build_dir()
    program = build(out)

    cmd = [str(program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    limit = max(30.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {limit:.0f} s and was stopped")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"the benchmark program exited with {proc.returncode}")
    res = check_result(lines[-1], expected)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not res["correct"]:
        fail("incorrect result: see the messages above")


if __name__ == "__main__":
    main()
