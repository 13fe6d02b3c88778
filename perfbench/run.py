#!/usr/bin/env python3
"""Builds and runs the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The Rust package in this directory is built in release mode into
$CARGO_TARGET_DIR (default .bench_build) and run with the same flags. Its
printed metrics are checked against BENCHMARK.json: with --trace 0 exactly
the end-to-end metrics, with --trace 1 the per-layer metrics, each with its
declared unit. A workload prints every per-layer metric except those of
the layers NOT_RUN lists for it, which are added as 0. The last line of
output is the benchmark's JSON result. `--workload all` runs every
workload of BENCHMARK.json in turn. The exit code is not 0 if a run fails,
prints other metrics, or reports an incorrect output or a failed operation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")

# Per-layer metric name prefixes of the layers each workload does not run.
NOT_RUN = {
    "long-run": ("harness.explore.",),
    "verify-stream": ("sim.", "protocol.", "consensus.", "harness.", "bench."),
    "explore-campaign": (),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def flag(args, name):
    try:
        return args[args.index(name) + 1]
    except (ValueError, IndexError):
        fail(f"{name} is required")


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("the benchmark did not build")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_one(binary, workload, args, declared, traced, env):
    """Runs one workload; returns the problems found with its result."""
    i = args.index("--workload")
    args = args[: i + 1] + [workload] + args[i + 2 :]
    proc = subprocess.run([binary] + args, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{workload}: exited with code {proc.returncode} and printed no result"]
    metrics = result["metrics"]
    problems = []
    if traced:
        if workload not in NOT_RUN:
            return [f"{workload}: no NOT_RUN entry"]
        zero = [n for n in declared if n.startswith(NOT_RUN[workload])]
        problems += [f"{workload}: prints {n}, listed as not run" for n in zero if n in metrics]
        for name in zero:
            metrics[name] = {"value": 0, "unit": declared[name]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        problems.append(f"{workload}: metrics differ from BENCHMARK.json: "
                        f"missing {missing}, extra {extra}, units {units}")
    if proc.returncode != 0:
        problems.append(f"{workload}: exited with code {proc.returncode}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{workload}: outputs not correct ({result['failed']} of "
                        f"{result['attempted']} operations failed)")
    print(json.dumps(result), flush=True)
    return problems


def main():
    args = sys.argv[1:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    traced = flag(args, "--trace") == "1"
    kind = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[kind]}
    workload = flag(args, "--workload")
    workloads = [w["name"] for w in bench["workloads"]] if workload == "all" else [workload]
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(env)
    problems = []
    for w in workloads:
        problems += run_one(binary, w, args, declared, traced, env)
    if problems:
        fail("; ".join(problems))


if __name__ == "__main__":
    main()
