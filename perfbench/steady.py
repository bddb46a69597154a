#!/usr/bin/env python3
"""Steadiness mode of the benchmark.

Runs every workload (or those named) repeatedly, in alternation, one seed
per repetition, through the command in BENCHMARK.json, and prints per
end-to-end metric the median, the quartiles and the spread (Q3 - Q1) /
median next to the metric's bound. A spread above a third of the bound is
flagged: the bounds in BENCHMARK.json are set with this mode and
re-checked with it after any change to the benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads pt2pt,bfs] [--seed-base 100]
    python3 perfbench/steady.py --runs 5 --trace 1     # per-layer metrics
    python3 perfbench/steady.py --runs 10 --sets 2     # two sets, same seeds
    python3 perfbench/steady.py --repeat               # same seed twice

With --sets N the whole set of runs is made N times on the same seeds;
each later set's median is compared with the first set's, in the metric's
worse direction, against the bound. With --repeat every workload runs
twice on one seed, traced and untraced, and the deterministic metrics must
read exactly the same both times.

Run from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys

DETERMINISTIC = ["virt_rate", "sim.events", "graph500.edges_per_search", "serve.grants"]


def run(cmd, workload, seed, seconds, trace):
    full = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(full, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{workload} seed {seed}: {out['failed']} of {out['attempted']} failed")
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="0 = run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--repeat", action="store_true")
    ap.add_argument("--raw", action="store_true", help="print every run's metrics")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    cmd = spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    if args.repeat:
        ok = True
        for w in names:
            for trace in (0, 1):
                a, b = (run(cmd, w, args.seed_base, seconds, trace)["metrics"] for _ in range(2))
                for m in DETERMINISTIC:
                    if m in a and a[m]["value"] != b[m]["value"]:
                        ok = False
                        print(f"{w} {m}: {a[m]['value']} then {b[m]['value']}")
                print(f"{w} trace={trace}: deterministic metrics "
                      + ("repeat" if ok else "DIFFER"))
        sys.exit(0 if ok else 1)

    sets = []
    for k in range(args.sets):
        samples = {w: {} for w in names}
        failed_share = {w: set() for w in names}
        for i in range(args.runs):
            for w in names:
                out = run(cmd, w, args.seed_base + i, seconds, args.trace)
                failed_share[w].add(out["failed"] / out["attempted"])
                for m, v in out["metrics"].items():
                    samples[w].setdefault(m, []).append(v["value"])
                print(f"  set {k + 1} run {i + 1}/{args.runs} {w} done", file=sys.stderr)
                if args.raw:
                    print(w, args.seed_base + i, json.dumps(
                        {m: v["value"] for m, v in out["metrics"].items()}), flush=True)
        sets.append((samples, failed_share))
        report(names, samples, failed_share, bounds)
    for k in range(1, len(sets)):
        compare(names, sets[0], sets[k], k + 1, bounds, better)


def report(names, samples, failed_share, bounds):
    worst = 0.0
    print(f"{'workload':<12} {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in names:
        for m, values in samples[w].items():
            med, q1, q3, s = spread(values)
            bound = bounds.get(m)
            flag = ""
            if bound is not None and m != "setup_s":
                worst = max(worst, s / bound)
                if s > bound / 3:
                    flag = "  > bound/3"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{w:<12} {m:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {b:>6}{flag}")
        print(f"{w:<12} {'failed share':<28} {sorted(failed_share[w])}")
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}", flush=True)


def compare(names, first, later, k, bounds, better):
    print(f"set {k} against set 1: median change in the worse direction")
    ok = True
    for w in names:
        for m, values in later[0][w].items():
            if m not in bounds:
                continue
            a = statistics.median(first[0][w][m])
            b = statistics.median(values)
            worse = (b - a) / a if better[m] == "lower" else (a - b) / a
            flag = "  > bound" if worse > bounds[m] else ""
            ok = ok and not flag
            print(f"{w:<12} {m:<28} {a:>14.6g} {b:>14.6g} {worse:>+8.4f} {bounds[m]:>6.2f}{flag}")
        same = first[1][w] == later[1][w]
        ok = ok and same
        print(f"{w:<12} {'failed share':<28} {'same' if same else 'DIFFERS'}")
    print("sets agree within the bounds" if ok else "sets DISAGREE", flush=True)


if __name__ == "__main__":
    main()
