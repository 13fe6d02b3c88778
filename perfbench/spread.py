#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartiles of
its values (statistics.quantiles, n=4) as a share of their median, next
to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 1,2,...] [--workloads a,b] [--seconds s]

Run from the root of a checkout. Exits non-zero if a run fails or is not
correct, or if a spread exceeds its bound. The wall-clock values the
summary prints beside the calibrated times get their spread too, for
comparison; they have no bound.
"""

import json
import re
import statistics
import subprocess
import sys


def option(name, default):
    args = sys.argv[1:]
    return args[args.index(name) + 1] if name in args else default


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seeds = [int(s) for s in option("--seeds", "1,2,3,4,5,6,7,8,9,10").split(",")]
    names = [w["name"] for w in bench["workloads"]]
    workloads = option("--workloads", ",".join(names)).split(",")
    seconds = option("--seconds", str(bench["run_seconds"]))
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        wall = {}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: not correct ({result['failed']} failed)")
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            for name, value in re.findall(r"^  (\S+ \(wall clock\))\s+([-\d.]+)",
                                          proc.stdout, re.M):
                wall.setdefault(name, []).append(float(value))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"]
            ok &= within
            print(f"  {w:<18} {m['name']:<18} median {med:<14.6g} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f} {'ok' if within else 'OVER'}"
                  f"{' (<1/3)' if spread < m['bound'] / 3 else ''}", flush=True)
        for name, v in wall.items():
            if len(v) >= 2:
                q1, med, q3 = statistics.quantiles(v, n=4)
                print(f"  {w:<18} {name:<18} median {med:<14.6g} spread "
                      f"{(q3 - q1) / med:6.3f} (not gated)", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
