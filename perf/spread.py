#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

Usage, from the repository root:

    python3 perf/spread.py [--workloads build,fuzz] [--seeds 1-10] [--sets N]
                           [--seconds S] [--out FILE] [--compare FILE]

Each run is the command from BENCHMARK.json with --workload, --seed,
--seconds and --trace 0 appended.  A set runs every seed on every workload;
--sets runs several sets back to back.  For each set, (workload, metric)
the script prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and marks a
spread above a third of the metric's bound.  From the second set on, it
also marks a median worse than the first set's by more than the bound.
--out writes the sets as JSON (the shape of perf/baseline.json);
--compare prints each median against the median of all values of a file
written earlier, and marks a regression beyond the bound.  The exit code
is 1 when anything was marked.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if out.returncode != 0 or result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    return result


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def worse_by(new, old, better):
    change = new / old - 1
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]
    seeds = seeds_of(args.seeds)
    base = None
    if args.compare:
        with open(args.compare) as f:
            base = json.load(f)["sets"]

    sets = []
    ok = True
    for n in range(args.sets):
        summary = {}
        for w in workloads:
            runs = [run_once(spec, w, s, seconds) for s in seeds]
            summary[w] = {}
            print(f"\nset {n + 1}: {w} ({len(runs)} runs, {seconds} s each)")
            print(f"  {'metric':24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
            for m in metrics:
                name, bound = m["name"], m["bound"]
                s = summarise([r["metrics"][name]["value"] for r in runs])
                summary[w][name] = s
                line = (f"  {name:24} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g}"
                        f" {100 * s['spread']:7.2f}%  {bound}")
                if name != "setup_s" and s["spread"] > bound / 3:
                    line, ok = line + "  spread > bound/3", False
                first = sets[0][w][name]["median"] if sets else None
                if first and worse_by(s["median"], first, m["better"]) > bound:
                    line, ok = line + "  worse than set 1", False
                if base and base[0].get(w, {}).get(name):
                    old = statistics.median(v for b in base for v in b[w][name]["values"])
                    if old:
                        line += f"  vs {old:.6g}: {100 * (s['median'] / old - 1):+.2f}%"
                        if worse_by(s["median"], old, m["better"]) > bound:
                            line, ok = line + "  REGRESSION", False
                print(line, flush=True)
        sets.append(summary)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": seconds, "seeds": seeds, "sets": sets}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
