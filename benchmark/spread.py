#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread the way the driver does.

Runs BENCHMARK.json's command on every workload with ten different seeds and
prints, per workload and end-to-end metric, the median and the distance
between the first and third quartile as a share of the median, next to the
metric's bound. Run it from the repository root:

    python3 benchmark/spread.py [first_seed] [workload ...]

Each spread should stay below a third of its bound (setup_s is exempt from
the driver's check but is shown).
"""
import json
import statistics
import subprocess
import sys

RUNS = 10


def main():
    manifest = json.load(open("BENCHMARK.json"))
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    names = sys.argv[2:] or [w["name"] for w in manifest["workloads"]]
    worst = 0.0
    for name in names:
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        for seed in range(first, first + RUNS):
            cmd = manifest["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
        for m in manifest["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"{name:16} {m['name']:12} median {med:12.6g} {m['unit']:8} "
                  f"[{min(vs):.6g} .. {max(vs):.6g}]  spread {100 * spread:5.2f} %  "
                  f"bound {100 * m['bound']:4.1f} %  spread/bound {share:4.2f}", flush=True)
    print(f"largest spread/bound outside setup_s: {worst:.2f} (target: below 0.33)")


if __name__ == "__main__":
    main()
