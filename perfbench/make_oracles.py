"""Regenerate ``oracles.json``, the stored references of the benchmark.

    python3 perfbench/make_oracles.py

Takes a few minutes.  It records, with the environment and git sha:

* the N=3 coset counts at R=1.5, confirmed by the exhaustive scan
  (``count --method brute``, i.e. ``enumerate_brute``);
* Monte Carlo references for the N=4 and N=5 volume operations, made at
  REF_FACTOR times the benchmark's budget with a seed no run uses.
"""

from __future__ import annotations

import csv
import datetime
import json
import tempfile
from pathlib import Path

import oracles
import run
import workloads

REF_FACTOR = 100
REF_SEED = 20211118    # benchmark runs draw their seeds from [1, 2**31) at random
VOLUME_REFS = {
    "n4-22-R6": ("4", "2,2", "6"),
    "n5-R4": ("5", "1,1,1,1,1", "4"),
}


def _cli(args: list[str], env: dict) -> tuple[dict, list[str], float]:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        path = Path(tmp) / "out.csv"
        argv = [*args, "--csv", str(path)]
        wall, code, _, output = run.run_child(argv, env, timeout=3600.0)
        if code != 0:
            raise SystemExit(f"{' '.join(args)} exited {code}:\n{output}")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    return rows[0], args, wall


def main() -> None:
    run.WORK.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    made = {"made": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "environment": run.environment()}
    n3 = {}
    for blocks in ("1,1,1", "2,1"):
        row, argv, wall = _cli(["count", "--n", "3", "--blocks", blocks,
                                "--radius", f"{workloads.N3_RADIUS:g}",
                                "--method", "brute"], env)
        n3[blocks] = {"count": int(row["count"]), "confirmed_by": "enumerate_brute",
                      "argv": argv, "seconds": wall}
        print(f"N=3 {blocks}: {n3[blocks]['count']} cosets ({wall:.1f}s)")
    refs = {}
    budget = REF_FACTOR * workloads.MC_BUDGET
    for name, (n, blocks, radius) in VOLUME_REFS.items():
        row, argv, wall = _cli(["volume", "--n", n, "--blocks", blocks, "--radius", radius,
                                "--seed", str(REF_SEED), "--mc", str(budget)], env)
        refs[name] = {"estimate": float(row["estimate"]), "error": float(row["error"]),
                      "budget": budget, "seed": REF_SEED, "argv": argv, "seconds": wall}
        print(f"{name}: {row['estimate']} +- {row['error']} ({wall:.1f}s)")
    with open(oracles.ORACLE_FILE, "w", encoding="utf-8") as fh:
        json.dump({**made, "n3_counts": n3, "volume_refs": refs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
