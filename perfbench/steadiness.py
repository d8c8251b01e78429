#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

    python3 perfbench/steadiness.py

Run from the root of a source checkout. Runs every workload of
BENCHMARK.json once per seed in each of three sets (untraced, run_seconds
from BENCHMARK.json), one run at a time: idle set 1 on seeds 1-10, idle
set 2 on seeds 11-20, and a loaded set on seeds 1-10 beside nproc+1 busy
loops. Idle against idle shows what a fresh set of seeds moves; loaded
against idle shows what contention moves. For every end-to-end metric, and
for the same timings on the wall clock, it reports each set's median and
interquartile range as a share of the median, and how far later sets'
medians moved from set 1's. A traced run per workload records its input
size. Writes perfbench/steadiness.json (every value) and
perfbench/STEADINESS.md.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
SETS = (("idle", 1), ("idle", 1 + SEEDS), ("loaded", 1))
PASSES_PREFIX = "tgbench-passes: "
# Wall-clock twin of each timing (diagnostic, never gated): the same
# median over the passes, read from the run's per-pass line.
WALL_TWIN = {
    "setup_s": "setup_wall_s",
    "sim_cpu_s": "sim_wall_s",
    "analyze_cpu_s": "analyze_wall_s",
    "query_cpu_p50_us": "query_wall_p50_us",
    "query_cpu_p999_us": "query_wall_p999_us",
}
SIZE_METRICS = ("input.users", "input.jobs", "des.events_fired",
                "input.records", "seglog.spilled_bytes", "input.queries")


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in done.stderr.splitlines():
        if line.startswith(PASSES_PREFIX):
            passes = json.loads(line[len(PASSES_PREFIX):])
            values.update({k: statistics.median(v)
                           for k, v in passes.items() if "_wall_" in k})
    return {"seed": seed, "attempted": result["attempted"],
            "failed": result["failed"], "correct": result["correct"],
            "values": values}


class BusyLoops:
    """Spinning processes, stopped and reaped on exit."""

    def __init__(self, count):
        self.count = count
        self.procs = []

    def __enter__(self):
        for _ in range(self.count):
            self.procs.append(subprocess.Popen(
                [sys.executable, "-c", "while True: pass"]))
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sets = []
    for kind, first in SETS:
        seeds = list(range(first, first + SEEDS))
        busy = (os.cpu_count() or 1) + 1 if kind == "loaded" else 0
        label = f"{kind} {len(sets) + 1} (seeds {seeds[0]}-{seeds[-1]}" + (
            f", {busy} busy loops)" if busy else ")")
        started = time.time()
        runs = {w: [] for w in workloads}
        with BusyLoops(busy):
            for seed in seeds:
                for w in workloads:
                    runs[w].append(run_once(w, seed, seconds))
                    print(f"{label}: {w} seed {seed} done", file=sys.stderr)
        sets.append({"label": label, "kind": kind, "seeds": seeds,
                     "busy_loops": busy, "minutes":
                     round((time.time() - started) / 60, 1), "runs": runs})

    sizes = {}
    for w in workloads:
        traced = run_once(w, 1, seconds, trace=1)["values"]
        sizes[w] = {k: traced[k] for k in SIZE_METRICS}

    lines = summarize(sets, workloads, bounds, better, sizes)
    print("\n".join(lines))
    with open(os.path.join(HERE, "steadiness.json"), "w") as f:
        json.dump({"nproc": os.cpu_count(), "run_seconds": seconds,
                   "sets": sets, "sizes": sizes}, f, indent=1)
    with open(os.path.join(HERE, "STEADINESS.md"), "w") as f:
        f.write("\n".join(lines) + "\n")


def summarize(sets, workloads, bounds, better, sizes):
    out = ["# Benchmark steadiness", "",
           f"Generated by `python3 perfbench/steadiness.py` on a host with "
           f"{os.cpu_count()} CPUs. `spread` is the interquartile range of "
           "a set's per-seed values as a share of their median; `shift` is "
           "how far a set's median moved from set 1's, signed so that "
           "positive is worse. A CPU-clock metric is within bounds when "
           "every set's spread and every shift are within its bound. "
           "Wall-clock twins are diagnostics.", ""]
    for s in sets:
        out.append(f"- set {s['label']}: {s['minutes']} min")
    verdict = True
    for w in workloads:
        out += ["", f"## {w}", "",
                "| metric | clock | bound | " + " | ".join(
                    f"set {i + 1} median (spread)" for i in range(len(sets)))
                + " | " + " | ".join(
                    f"set {i + 1} shift" for i in range(1, len(sets))) + " |",
                "|" + "---|" * (3 + 2 * len(sets) - 1)]
        failed = [r for s in sets for r in s["runs"][w] if r["failed"]]
        attempted = [r["attempted"] for s in sets for r in s["runs"][w]]
        for name, bound in bounds.items():
            for clock, key in (("cpu", name), ("wall", WALL_TWIN.get(name))):
                if key is None:
                    continue
                stats = [spread([r["values"][key] for r in s["runs"][w]])
                         for s in sets]
                sign = 1 if better[name] == "lower" else -1
                base = stats[0][0]
                shifts = [sign * (m - base) / base for m, _ in stats[1:]]
                gated = clock == "cpu"
                row_ok = (not gated) or (
                    all(sp <= bound for _, sp in stats)
                    and all(sh <= bound for sh in shifts))
                verdict &= row_ok
                out.append(
                    f"| {key} | {clock} | {bound if gated else '-'} | "
                    + " | ".join(f"{m:.6g} ({sp:.1%})" for m, sp in stats)
                    + " | " + " | ".join(f"{sh:+.1%}" for sh in shifts)
                    + (" |" if row_ok else " | **over bound** |"))
        out += ["", f"Runs: {len(attempted)}, operations attempted per run "
                f"{min(attempted)}-{max(attempted)}, runs with failures: "
                f"{len(failed)}."]
        out += ["", "Input size (seed 1): " + ", ".join(
            f"{k} {v:.0f}" for k, v in sizes[w].items()) + "."]
    out += ["", "All CPU-clock metrics within their bounds: "
            + ("yes" if verdict else "**no**")]
    return out


if __name__ == "__main__":
    main()
