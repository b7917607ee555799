#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json, and wire_gaming (runnable by hand,
left out of BENCHMARK.json: see README.md), at dbp_perfbench's tiny size,
untraced and traced. Checks that each run passes its correctness gate,
fails no operation and prints exactly the metrics BENCHMARK.json names
(end_to_end untraced, per_layer traced) with their units, and that traced
runs write their span file. Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXTRA_WORKLOADS = ("wire_gaming",)


def fail(message):
    print(f"smoke_test: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"{workload} --trace {trace} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += [w for w in EXTRA_WORKLOADS if w not in workloads]
    for workload in workloads:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{label}: correct={result['correct']} failed={result['failed']}")
            if result["attempted"] < 1:
                fail(f"{label}: attempted={result['attempted']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(n for n in got if n in expected[trace]
                               and got[n] != expected[trace][n])
                fail(f"{label}: missing {missing}, extra {extra}, wrong units {wrong}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    fail(f"{label}: {name} is not a number")
            if trace == 1:
                spans = os.path.join(ROOT, ".bench_build", "out", f"spans-{workload}.jsonl")
                if not os.path.getsize(spans):
                    fail(f"{label}: empty span file {spans}")
            print(f"ok  {label}: {len(got)} metrics")
    print("smoke_test: all workloads passed")


if __name__ == "__main__":
    main()
