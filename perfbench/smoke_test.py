#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced and
traced, checked against BENCHMARK.json.

Run from the repository root:

    python3 perfbench/smoke_test.py [--seconds 3]

For each workload and each --trace value it asserts that the run exits 0,
that the last line of its output is the result object with exactly the keys
correct, attempted, failed and metrics, that the outputs checked correct with
no failed operation, and that the metrics are exactly the ones BENCHMARK.json
names for that mode (end_to_end untraced, per_layer traced), each a finite
number with the named unit. Exits non-zero on the first failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys


def check_run(spec, workload, trace, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"
    lines = out.stdout.strip().splitlines()
    assert lines, f"{where}: no output"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(result)}"
    assert result["correct"] is True, f"{where}: output checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, f"{where}: {result['failed']} operations failed"
    named = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in named}
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    unnamed = sorted(set(got) - set(want))
    assert not missing, f"{where}: metrics not printed: {missing}"
    assert not unnamed, f"{where}: metrics not named in BENCHMARK.json: {unnamed}"
    for name, metric in got.items():
        assert set(metric) == {"value", "unit"}, f"{where}: {name} keys {set(metric)}"
        assert metric["unit"] == want[name], f"{where}: {name} unit {metric['unit']} != {want[name]}"
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value}"
        if not trace:
            assert value > 0, f"{where}: end-to-end metric {name} is {value}"
    print(f"ok  {where}: {len(got)} metrics, {result['attempted']} operations")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert os.path.isdir(spec["paths"][0]), "run from the repository root"
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace, args.seconds)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
