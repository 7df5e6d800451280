#!/usr/bin/env python3
"""Steadiness report for the bvqserve benchmark.

    python3 perfbench/steady.py --runs 10 [--workloads serve_hot,...]
        [--seed-base 1] [--trace 0|1] [--out FILE] [--against FILE]

Runs the workloads in alternation (run i of every workload uses seed
seed-base + i), then prints for each metric the median, the quartiles and the
relative spread (Q3 - Q1) / median, beside the metric's bound from
BENCHMARK.json. Each run's host state (host_cores, /proc/loadavg and steal
ticks at its start and end) is kept next to its numbers in --out.

--against FILE compares these medians with an earlier --out file: a metric
whose median got worse by more than its bound is flagged.
--trace 1 runs the traced runs instead; with two seeds (--runs 2) this is the
per-layer picture of two seeds side by side.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = {"workload": workload, "seed": seed, "exit": proc.returncode,
              "wall_s": round(time.time() - start, 1),
              "host": [l for l in lines if l.startswith("# host")],
              "notes": [l for l in lines if l.startswith("#")]}
    try:
        result.update(json.loads(lines[-1]))
    except (IndexError, ValueError):
        result["error"] = proc.stderr[-2000:]
    return result


def summarize(runs, spec, workloads):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for wl in workloads:
        rows = [r for r in runs if r["workload"] == wl and "metrics" in r]
        names = rows[0]["metrics"].keys() if rows else []
        summary[wl] = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": spread, "n": len(values),
                                 "unit": rows[0]["metrics"][name]["unit"],
                                 "bound": bounds.get(name, {}).get("bound"),
                                 "better": bounds.get(name, {}).get("better")}
    return summary


def print_summary(summary, against=None):
    for wl, metrics in summary.items():
        print(f"\n== {wl}")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  note")
        for name, s in metrics.items():
            note = ""
            bound = s["bound"]
            if bound is not None and name != "setup_s":
                if s["spread"] > bound:
                    note = "SPREAD OVER BOUND"
                elif s["spread"] > bound / 3:
                    note = "spread over bound/3"
            if against and name in against.get(wl, {}):
                prev = against[wl][name]["median"]
                change = (s["median"] - prev) / prev if prev else 0.0
                worse = -change if s["better"] == "higher" else change
                note += f" vs earlier {change:+.1%}"
                if bound is not None and worse > bound:
                    note += " WORSE THAN BOUND"
            print(f"{name:36} {s['median']:12.5g} {s['q1']:12.5g} "
                  f"{s['q3']:12.5g} {s['spread']:8.2%} "
                  f"{'' if bound is None else format(bound, '.2f'):>6}  {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    opts = ap.parse_args()
    spec = load_spec()
    workloads = opts.workloads.split(",") if opts.workloads else \
        [w["name"] for w in spec["workloads"]]
    runs = []
    for i in range(opts.runs):
        for wl in workloads:
            r = one_run(wl, opts.seed_base + i, spec["run_seconds"], opts.trace)
            runs.append(r)
            status = "ok" if r.get("correct") and r["exit"] == 0 else "FAILED"
            print(f"run {i + 1}/{opts.runs} {wl} seed {r['seed']}: {status} "
                  f"({r['wall_s']} s) {' | '.join(r['host'])}", flush=True)
            if status != "ok":
                print(r.get("error", ""), "\n".join(r["notes"][-5:]))
    summary = summarize(runs, spec, workloads)
    against = None
    if opts.against:
        with open(opts.against) as f:
            against = json.load(f)["summary"]
    print_summary(summary, against)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
    sys.exit(0 if all(r.get("correct") and r["exit"] == 0 for r in runs) else 1)


if __name__ == "__main__":
    main()
