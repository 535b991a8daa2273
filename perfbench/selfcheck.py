"""Fast self-check of the benchmark itself (about ten seconds).

    python3 perfbench/selfcheck.py

Checks the oracles against known values, that a wrong count, a NaN error
and a non-zero exit each count as a failure, that the tracer wraps
functions where they are looked up and reports missing ones as absent, and
runs every workload at its smallest size.  Exits 1 on the first problem.
"""

from __future__ import annotations

import math
import sys
import time
import types

import oracles
import run
import spans
import workloads

KNOWN_N2_COUNTS = {4.0: 268, 5.0: 1128, 5.5: 2280, 6.0: 4620}
KNOWN_N3_COUNTS = {"1,1,1": 252, "2,1": 309}


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_oracles() -> None:
    for radius, count in KNOWN_N2_COUNTS.items():
        expect(oracles.n2_disk_count(radius) == count, f"N=2 disk count at R={radius:g} is {count}")
    stored = oracles.load_stored()
    for blocks, count in KNOWN_N3_COUNTS.items():
        entry = stored["n3_counts"][blocks]
        expect(entry["count"] == count and entry["confirmed_by"] == "enumerate_brute",
               f"stored N=3 [{blocks}] count is {count}, confirmed by enumerate_brute")
    for name, ref in stored["volume_refs"].items():
        expect(ref["budget"] >= 100 * workloads.MC_BUDGET and math.isfinite(ref["error"])
               and 0 < ref["error"] < 1e-3 * ref["estimate"],
               f"volume reference {name} has budget >= 100x and a finite small error")
    steps = 100_000
    trapezoid = sum(math.exp(math.sqrt(2.0) * 3.0 * (i + 0.5) / steps) for i in range(steps)) * 3.0 / steps
    expect(abs(oracles.n2_volume(3.0) / trapezoid - 1) < 1e-8,
           "N=2 closed-form volume matches the integral of e^(sqrt2 t) over [0, R]")


def check_failures_count() -> None:
    n2 = {op.name: op for op in workloads.build("count-n2", 0, 0)}
    vol = {op.name: op for op in workloads.build("volume", 0, 0)}

    def checked(op, rows, code=0):
        res = run.OpResult(op.name, op.argv, 1.0, code, rows, f"exit {code}")
        run.check_pass([op], [res])
        return res

    right = checked(n2["n2-R4"], [{"method": "bfs", "count": "268"}])
    wrong = checked(n2["n2-R4"], [{"method": "bfs", "count": "267"}])
    nan = checked(vol["n5-R4"], [{"estimate": "1e11", "error": "nan"}])
    crash = run.run_op_inprocess(n2["n2-R4"], types.SimpleNamespace(dispatch=lambda argv: 1 / 0))
    run.check_pass([n2["n2-R4"]], [crash])
    expect([r.failed for r in (right, wrong, nan, crash)] == [False, True, True, True],
           "right count passes; wrong count, NaN error and an exception in dispatch fail")
    summary = run.summarize([right, wrong, nan, crash], {}, [])
    expect(summary["attempted"] == 4 and summary["failed"] == 3 and not summary["correct"],
           "failures are counted and an unexpected one makes the run incorrect")

    known = [checked(n2["n2-R6"], [{"method": "bfs", "count": "4538"}]),
             checked(vol["n5-R64"], [{"estimate": "1.5e50", "error": "nan"}])]
    summary = run.summarize([right, *known], {}, [])
    expect(summary["failed"] == 2 and summary["correct"],
           "a known defect with its recorded symptom counts as failed, run still correct")
    other_ways = [
        checked(n2["n2-R6"], [], code=3),
        checked(n2["n2-R6"], [{"method": "bfs", "count": "4537"}]),
        checked(vol["n5-R64"], [], code=1),
        checked(vol["n5-R64"], [{"estimate": "nan", "error": "nan"}]),
    ]
    for res in other_ways:
        summary = run.summarize([right, res], {}, [])
        expect(res.failed and not res.known_defect and not summary["correct"],
               f"{res.name} failing another way ({res.reason}) makes the run incorrect")


def check_tracer() -> None:
    sys.path.insert(0, str(run.SRC))
    import horocount.cli as cli
    import horocount.cosets as cosets

    original = cosets._frame_height
    tracer = spans.Tracer()
    names = run.TRACED_FUNCTIONS + ("cosets.no_such_function",)
    patches, missing = spans.install(tracer, "horocount", run.LAYERS + ("no_such_layer",),
                                     run.SPLIT)
    try:
        aliased = cosets._frame_height is not original
        code = cli.dispatch(["count", "--n", "2", "--blocks", "1,1", "--radius", "1"])
    finally:
        spans.uninstall(patches)
    expect(aliased and cosets._frame_height is original,
           "an imported alias is wrapped and restored")
    metrics, absent = run.layer_metrics(tracer, 1.0, 1.0, names)
    expect(code == 0 and metrics["cosets.canonical_state.calls"] > 0
           and metrics["cosets.enumerate_bfs.calls"] == 1,
           "traced dispatch records cosets calls")
    expect(absent == ["cosets.no_such_function"] and missing == ["no_such_layer"]
           and metrics["cosets.no_such_function.calls"] == 0,
           "a missing function or module is reported absent, not a crash")


def check_small_workloads() -> None:
    env = run.child_env()
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        ops = workloads.build(workload, 1, 0, small=True)
        results = [run.run_op_child(op, env, time.perf_counter() + run.RUN_LIMIT_S)
                   for op in ops]
        run.check_pass(ops, results)
        unexpected = [f"{r.name}: {r.reason}" for r in results if r.failed and not r.known_defect]
        known = [r.name for r in results if r.failed and r.known_defect]
        expect(not unexpected, f"{workload} at its smallest size "
               f"({len(results)} ops, known defects failing: {known or 'none'}) {unexpected}")


def main() -> None:
    check_oracles()
    check_failures_count()
    check_tracer()
    check_small_workloads()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
