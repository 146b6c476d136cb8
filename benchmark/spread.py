#!/usr/bin/env python3
"""Run every workload ten times, each with another seed, and print for each
end-to-end metric the interquartile range as a share of the median - the
steadiness the driver demands - next to the bound BENCHMARK.json fixes.

Run from the root of a checkout: python3 benchmark/spread.py [workload ...]
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
for workload in workloads:
    runs = []
    for seed in range(101, 111):
        out = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, check=True, text=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        assert result["correct"] and result["failed"] == 0, out
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    print(f"== {workload}")
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        verdict = "ok" if spread < bound / 3 else ("wide" if spread < bound else "TOO WIDE")
        print(f"  {name:<12} median {median:12.6f}  spread {spread:7.2%}  bound {bound:4.0%}  {verdict}")
        print("    " + " ".join(f"{v:.4g}" for v in values))
