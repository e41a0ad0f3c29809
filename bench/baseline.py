"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --runs 10 --first-seed 1 [--workload NAME ...] [--write FILE]

For every workload it runs `bench/run.py` untraced once per seed, prints each
end-to-end metric's median and quartiles and its spread (interquartile
distance over median) next to the metric's bound from BENCHMARK.json, and
then makes one traced run. With --write it stores the machine fingerprint
and all of it as JSON, the baseline later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS, fingerprint


def _run(command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    result = json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return result


def summarise(values: list) -> dict:
    """Median, quartiles and interquartile spread as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--write", help="JSON file to store the baseline in")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    command = bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    record = {"machine": fingerprint(), "run_seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = [_run(command, workload, seed, bench["run_seconds"], 0) for seed in seeds]
        entry = {"end_to_end": {}, "attempted": [r["attempted"] for r in runs]}
        print(f"{workload}: {len(runs)} runs, seeds {seeds[0]}..{seeds[-1]}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- spread above bound/3"
            print(f"  {name:<14} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g} "
                  f"q3 {stats['q3']:<12.6g} spread {stats['spread']:6.2%} "
                  f"bound {bound:.0%}{flag}")
            print("    " + " ".join(f"{v:.5g}" for v in stats["values"]))
        traced = _run(command, workload, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry

    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
