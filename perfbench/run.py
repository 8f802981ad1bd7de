#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (the mafic library from src/ plus the runner) in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. The runner's output is passed through; its last line is the
result object, which is checked against BENCHMARK.json before it is
printed again as this script's last line. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SchemaError(ValueError):
    pass


def parse_result(line, expected_names):
    """Parses and checks one result line; returns the decoded object."""
    try:
        obj = json.loads(line)
    except ValueError as e:
        raise SchemaError(f"not JSON: {e}") from None
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise SchemaError("keys must be exactly correct, attempted, failed, metrics")
    if not isinstance(obj["correct"], bool):
        raise SchemaError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise SchemaError(f"{key} must be a whole number")
    if obj["attempted"] < 1 or obj["failed"] > obj["attempted"]:
        raise SchemaError("need 1 <= attempted and failed <= attempted")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict):
        raise SchemaError("metrics must be an object")
    if set(metrics) != set(expected_names):
        missing = sorted(set(expected_names) - set(metrics))
        extra = sorted(set(metrics) - set(expected_names))
        raise SchemaError(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            raise SchemaError(f"bad metric name {name!r}")
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise SchemaError(f"{name}: needs exactly value and unit")
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise SchemaError(f"{name}: value must be a number")
        if m["unit"] != expected_names[name]:
            raise SchemaError(f"{name}: unit {m['unit']!r} != {expected_names[name]!r}")
    return obj


def expected_metrics(trace):
    """name -> unit of the metrics a run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--spans", os.path.join(build_dir(), f"spans_{args.workload}_{seed}.tsv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"perfbench: runner exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = parse_result(lines[-1], expected_metrics(bool(args.trace)))
    except (SchemaError, OSError, KeyError, ValueError) as e:
        print("\n".join(lines[:-1]))
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
