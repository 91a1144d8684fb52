#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

Run from the repository root:

  python3 perfbench/steadiness.py run --label setA --seeds 1-10
  python3 perfbench/steadiness.py report setA setB

`run` makes one untraced benchmark run per workload of BENCHMARK.json and
seed, at its run_seconds, and saves every end-to-end metric to
.bench_build/steadiness/<label>.json. `report` prints,
for each workload and metric, the median, quartiles and spread (quartile
distance over median) of each set and the drift between the sets' medians,
as the markdown table kept in perfbench/STEADINESS.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json")) if os.path.exists("BENCHMARK.json") else None
OUT = os.path.join(".bench_build", "steadiness")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    data = {}
    for name in [w["name"] for w in BENCH["workloads"]]:
        for seed in seeds(args.seeds):
            cmd = BENCH["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect output: {res}")
            data.setdefault(name, []).append({k: v["value"] for k, v in res["metrics"].items()})
            print(name, seed, json.dumps(data[name][-1]), flush=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, args.label + ".json"), "w") as f:
        json.dump(data, f, indent=1)


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(args):
    sets = [json.load(open(os.path.join(OUT, label + ".json"))) for label in args.labels]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    print("| workload | metric | bound | " + " | ".join(
        f"{l} median [q1, q3] (spread)" for l in args.labels) + " | drift |")
    print("|---|---|---|" + "---|" * len(sets) + "---|")
    for name in sets[0]:
        for metric in bounds:
            cells, medians = [], []
            for s in sets:
                vals = [r[metric] for r in s.get(name, [])]
                if len(vals) < 2:
                    cells.append("-")
                    continue
                med, q1, q3, spread = summary(vals)
                medians.append(med)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({100 * spread:.1f}%)")
            drift = f"{100 * (medians[-1] / medians[0] - 1):+.1f}%" if len(medians) > 1 else "-"
            print(f"| {name} | {metric} | {bounds[metric]} | " + " | ".join(cells) + f" | {drift} |")


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--label", required=True)
    r.add_argument("--seeds", default="1-10")
    p = sub.add_parser("report")
    p.add_argument("labels", nargs="+")
    args = ap.parse_args()
    run(args) if args.cmd == "run" else report(args)


if __name__ == "__main__":
    main()
