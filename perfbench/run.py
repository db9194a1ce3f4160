#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
rqsim library and the perfbench driver (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build. The last line of stdout is the JSON result; build output, progress
and diagnostics go to stderr.

With --trace 1 the driver also exports a Chrome trace of its traced pass.
This script checks the trace with scripts/validate_trace.py and adds the
self time of each cost layer (<layer>.self_ms) computed from its spans.
Every printed metric name and unit must match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Span-name prefix ("<prefix>.<operation>") -> cost layer. The library's
# runner.* spans (the sequential walker a service job runs) count as the
# executor. Spans of other prefixes nest correctly but count for no layer.
LAYER_OF_PREFIX = {
    "kernels": "kernels",
    "buffer_pool": "buffer_pool",
    "trial": "planning",
    "order": "planning",
    "tree": "planning",
    "verify": "planning",
    "plan": "planning",
    "tree_exec": "tree_exec",
    "measure": "tree_exec",
    "runner": "tree_exec",
    "service": "service",
    "batch": "service",
    "router": "router",
}
LAYERS = ("kernels", "buffer_pool", "planning", "tree_exec", "service", "router")


def log(message):
    print("run.py: %s" % message, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def layer_self_ms(trace):
    """Self time per layer: each B/E span's duration minus the time its
    direct children on the same lane cover, summed over lanes."""
    totals = {layer: 0.0 for layer in LAYERS}
    stacks = {}
    for event in trace["traceEvents"]:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        if phase == "B":
            stack.append([event["name"], event["ts"], 0.0])
            continue
        if not stack:
            continue  # unbalanced; validate_trace.py has already failed it
        name, start, children = stack.pop()
        duration = event["ts"] - start
        if stack:
            stack[-1][2] += duration
        layer = LAYER_OF_PREFIX.get(name.split(".", 1)[0])
        if layer is not None:
            totals[layer] += (duration - children) / 1e3  # trace ts is in us
    return {"%s.self_ms" % layer: {"value": value, "unit": "ms"}
            for layer, value in totals.items()}


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        log("build failed: %s" % error)
        return 1

    trace_path = os.path.join(build_dir, "trace-%s.json" % args.workload)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", os.path.join(build_dir, "run")]
    if args.trace:
        command += ["--trace-out", trace_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    if run.returncode != 0:
        log("perfbench exited with %d" % run.returncode)
        return run.returncode
    result = json.loads(run.stdout.strip().splitlines()[-1])

    if args.trace:
        valid = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "validate_trace.py"), trace_path],
            stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if valid.returncode != 0:
            log("exported trace failed scripts/validate_trace.py")
            result["correct"] = False
        with open(trace_path, encoding="utf-8") as handle:
            result["metrics"].update(layer_self_ms(json.load(handle)))

    want = expected_metrics(args.trace)
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != want:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(n for n in set(got) & set(want) if got[n] != want[n])))
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
