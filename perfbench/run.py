#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload bughunt --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds perfbench/ (and the
SysTest sources it compiles) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
runs the workload untraced and then traced, and reports the per-layer
metrics (see perfbench/README.md). The command exits non-zero when a
correctness gate fails, and without printing a result when the benchmark
cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("bughunt", "stateful_fixed", "guided")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures once and builds incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def measure(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    spans = None
    if args.trace:
        spans = os.path.join(build_dir(), "spans-%s-%d.jsonl"
                             % (args.workload, args.seed))
        cmd += ["--traced", "--spans", spans]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S, text=True)
    if result.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % result.returncode)
    return json.loads(result.stdout), spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        doc, spans = measure(build(), args)
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 2
    attempted, failed, errors = metrics.gates(doc)
    if args.trace:
        values = metrics.per_layer(doc, metrics.read_spans(spans))
        if values["trace.count_mismatches"]["value"]:
            errors.append("traced run did not reproduce the untraced counts")
    else:
        values = metrics.end_to_end(doc)
    for error in errors:
        log("GATE FAILED: " + error)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
