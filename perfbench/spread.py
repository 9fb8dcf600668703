#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

    python3 perfbench/spread.py --workload paper_campaign --seeds 1-10
    python3 perfbench/spread.py --workload warm_replay --seeds 1-5 --trace 1

Run from the repository root. The command and run length come from
BENCHMARK.json. For each metric it prints the median of the per-seed
values, the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them) and, for end-to-end
metrics, the bound and whether the spread stays under a third of it.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds)
        print(f"seed {seed}: {shown}", file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        share = (q3 - q1) / abs(med) if med else 0.0
        line = f"{name:<28} median {med:>16.6f} {units[name]:<6} IQR/median {share:7.2%}"
        if name in bounds:
            ok = "ok" if share < bounds[name] / 3 else "WIDE"
            line += f"  bound {bounds[name]:.2f}  {ok}"
        print(line)


if __name__ == "__main__":
    main()
