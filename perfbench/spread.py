"""Run the end-to-end benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads count-n2 volume --seeds 10

For every metric: the median over the runs, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  End-to-end metrics that are
recorded only in the result files (fail_frac, cosets_per_s, samples_per_s,
time_to_rel1e-3_s) are summarized the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        elapsed, failed, incorrect = [], [], 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, check=True)
            elapsed.append(time.perf_counter() - start)
            summary = json.loads(done.stdout.strip().splitlines()[-1])
            incorrect += not summary["correct"]
            failed.append(summary["failed"])
            with open(run.RESULTS / f"{workload}-seed{seed}-trace0.json",
                      encoding="utf-8") as fh:
                recorded = json.load(fh)["metrics"]
            for name, value in recorded.items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: {elapsed[-1]:.1f}s "
                  f"failed={summary['failed']} correct={summary['correct']}", flush=True)
        print(f"\n{workload}: {args.seeds} runs, {sum(elapsed):.0f}s in all "
              f"(longest {max(elapsed):.1f}s), failed ops per run {sorted(set(failed))}, "
              f"incorrect runs {incorrect}")
        print(f"  {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for name, vals in values.items():
            median, q1, q3, share = spread(vals)
            bound = bounds.get(name)
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                          "bound": bound, "values": vals}
            flag = ""
            if bound is not None and not share < bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:<40} {median:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        report[workload] = {"elapsed_s": elapsed, "metrics": rows}
    out = run.RESULTS / "spread.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwritten to {out}")


if __name__ == "__main__":
    main()
