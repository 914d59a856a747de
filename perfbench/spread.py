#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload graph-modes --seeds 1-5 [--seconds 15] [--trace 0]

For each metric it prints the median over the runs and the distance
between the first and third quartile as a share of that median (the
figure BENCHMARK.json's bounds are judged against). Run it from the
repository root after building, or it builds through perfbench/run.sh.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="15")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{name:28s} median {med:12.6g}  spread {spread:7.4f}  n={len(vals)}")


if __name__ == "__main__":
    main()
