#!/usr/bin/env python3
"""nkbench: builds the NetKernel benchmark from source and runs its workloads.

Usage (from the repository root):

    python3 nkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 nkbench/run.py                  # every workload, seed 1, 10 s, untraced

One workload runs as one single-threaded process. Its human-readable report
goes to standard output, and the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
with every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1). A failed output check exits nonzero with the reason.

The build goes to $CARGO_TARGET_DIR/nkbench (default .bench_build/nkbench),
relative to the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["udp_kv", "tcp_stream", "tcp_rpc", "ce_switch"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"nkbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "nkbench")
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "nkbench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        layers = json.load(f)
    unmapped = [m["name"] for m in contract["per_layer"] if m["name"] not in layers]
    if unmapped:
        fail("per-layer metrics without an entry in nkbench/layers.json: " + ", ".join(unmapped))
    return contract


def run_one(binary, contract, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"nkbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        print(f"nkbench: {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1, None
    if proc.returncode != 0 or result.get("correct") is not True:
        return proc.returncode or 1, result
    expected = contract["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        print(f"nkbench: {workload} metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}, unit mismatch {units}", file=sys.stderr)
        return 3, None
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    contract = load_contract()
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        code, result = run_one(binary, contract, w, args.seed, args.seconds, args.trace)
        worst = worst or code
        if len(workloads) == 1:
            if result is not None:
                print(json.dumps(result))
            return code
        if code != 0 or result is None:
            combined["correct"] = False
            continue
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
