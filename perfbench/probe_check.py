"""Check that the speed probe does not see what the program does.

    python3 perfbench/probe_check.py --seconds 300

The end-to-end run scales times by the SpeedProbe samples taken beside each
operation.  That is sound only if an operation does not itself move the
probe.  Pinned to one CPU like the end-to-end run, this alternates idle
phases (the probe alone) with busy phases (one operation running beside
it) and reports, per operation, the median over its busy phases of
probe(busy) / mean(probe(idle before), probe(idle after)).  Operations with
the same ratio are scaled alike, so a program change that moves an
operation's ratio would show in ``wall_s`` without being real.  The
ratios go to ``perfbench/results/probe_check.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time

import run
import workloads

IDLE_S = 3.0
# The BFS walk, the exhaustive scan, Monte Carlo and the grid.
OPS = (("count-n2", "n2-R4"), ("count-n3", "n3-21"), ("volume", "n4-22-R6"),
       ("volume", "n3-21-grid"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=300.0)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run.WORK.mkdir(parents=True, exist_ok=True)
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    ops = [next(op for op in workloads.build(w, 1, 0) if op.name == name) for w, name in OPS]
    phases = []   # (op name or None when idle, start, end)
    end = time.perf_counter() + args.seconds
    with run.SpeedProbe() as probe:
        i = 0
        while True:
            start = time.perf_counter()
            time.sleep(IDLE_S)
            phases.append((None, start, time.perf_counter()))
            if time.perf_counter() >= end:
                break
            op = ops[i % len(ops)]
            i += 1
            res = run.run_op_child(op, env, time.perf_counter() + run.RUN_LIMIT_S)
            phases.append((op.name, res.started, res.started + res.wall_s))

    def probe_median(start, stop):
        inside = [dt for t, dt in probe.samples if start <= t <= stop]
        return statistics.median(inside) if inside else None

    ratios: dict[str, list[float]] = {}
    for before, busy, after in zip(phases[::2], phases[1::2], phases[2::2]):
        idle = [probe_median(*before[1:]), probe_median(*after[1:])]
        during = probe_median(*busy[1:])
        if during is not None and None not in idle:
            ratios.setdefault(busy[0], []).append(during / statistics.fmean(idle))
    report = {}
    for name, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        report[name] = {"median": median, "q1": q1, "q3": q3, "phases": len(values)}
        print(f"{name:<12} busy/idle probe ratio {median:.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f}, {len(values)} phases)")
    with open(run.RESULTS / "probe_check.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": run.environment(), "ratios": report,
                   "probe_samples": probe.samples, "phases": phases}, fh, indent=1)


if __name__ == "__main__":
    main()
