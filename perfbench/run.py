"""Oracle-checked benchmark of the ``horocount`` command-line tool.

    python3 perfbench/run.py --workload count-n2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` every operation
is a fresh ``horocount`` process, run one at a time (a closed loop with one
client) on one pinned CPU, and the end-to-end metrics are measured, with
times scaled to nominal machine speed (see ``end_to_end``).  With ``--trace 1`` the
same operations run in this process through ``horocount.cli.dispatch``,
first untraced and then traced, and the per-layer metrics are reported.
Every operation is checked against its oracle; a wrong answer or a non-zero
exit is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json.  A full record, with the environment, goes
to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"

RUN_LIMIT_S = 170.0          # every run must end well within 180 s
SETUP_BATCH = 3
SETUP_EVERY_S = 4.0
PROBE_LOOPS = 3_000
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 0.1   # about one probe interval, so every operation has a sample
# Scaled times are in nominal seconds: seconds on a machine where one probe
# sample takes this long.  The value only fixes the unit.
PROBE_NOMINAL_S = 0.001
# Operations run one thread each, pinned to one CPU (see README.md).
THREADS = 1
SETUP_ARGV = ("constant", "--n", "3", "--blocks", "2,1")
IMPORT_REPS = 5
CLI_MAIN = "from horocount.cli import main; main()"
LAYERS = ("cli", "cosets", "measure", "decompose", "constants", "partitions", "dynamics")

# Functions whose self time and call count are reported by name.
TRACED_FUNCTIONS = (
    "cli.dispatch",
    "cosets.enumerate_bfs", "cosets.canonical_state", "cosets.mat_mul",
    "cosets.coset_height", "cosets.invariant_key", "cosets.hermite_normal_form",
    "cosets.same_coset", "cosets.int_inverse_unimodular", "cosets.enumerate_brute",
    "cosets.solve_dot_one", "cosets.coset_sets_equal", "cosets.check_brute_covers",
    "measure.mu_A_ball.mc", "measure.mu_A_ball.grid", "decompose.height",
)
SPLIT = {"measure.mu_A_ball": "method"}


def child_env() -> dict:
    env = dict(os.environ)
    # users run with bytecode caching on; the warm-up writes the caches
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["HOROCOUNT_THREADS"] = str(THREADS)
    return env


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "HOROCOUNT_THREADS": THREADS,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

@dataclass
class OpResult:
    name: str
    argv: tuple
    wall_s: float
    exit_code: int
    rows: list
    output: str
    rss_mb: float | None = None
    reason: str | None = None
    known_defect: str | None = None
    mc_samples: int = 0
    started: float = 0.0

    @property
    def failed(self) -> bool:
        return self.reason is not None

    def record(self) -> dict:
        return {k: getattr(self, k) for k in
                ("name", "argv", "started", "wall_s", "exit_code", "rss_mb", "reason",
                 "known_defect", "rows")}


def run_child(args: list[str], env: dict, timeout: float) -> tuple[float, int, float, str]:
    """(wall seconds, exit code, peak RSS in MB, output) of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(timeout, 0.1), proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        # wait4 gives this child's own resource usage, including its peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, output.decode(errors="replace")


def _csv_path(op: workloads.Op) -> Path:
    path = WORK / f"{op.name}.csv"
    path.unlink(missing_ok=True)
    return path


def _read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_op_child(op: workloads.Op, env: dict, deadline: float) -> OpResult:
    path = _csv_path(op)
    started = time.perf_counter()
    wall, code, rss, output = run_child([*op.argv, "--csv", str(path)], env,
                                        deadline - started)
    return OpResult(op.name, op.argv, wall, code, _read_rows(path), output, rss,
                    mc_samples=op.mc_samples, started=started)


def run_op_inprocess(op: workloads.Op, cli) -> OpResult:
    path = _csv_path(op)
    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = cli.dispatch([*op.argv, "--csv", str(path)])
        except Exception as exc:   # fails the op as the uncaught exception fails the CLI
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    wall = time.perf_counter() - start
    return OpResult(op.name, op.argv, wall, code, _read_rows(path), sink.getvalue(),
                    mc_samples=op.mc_samples)


def check_pass(ops: list[workloads.Op], results: list[OpResult]) -> None:
    """Set each result's failure reason from its exit code and oracle, and
    mark a failure as a known defect when it shows exactly that symptom."""
    peers = {res.name: res.rows for res in results if res.exit_code == 0}
    for op, res in zip(ops, results):
        if res.exit_code != 0:
            tail = res.output.strip().splitlines()[-1:] or [""]
            res.reason = f"exit code {res.exit_code}: {tail[0]}"
        else:
            res.reason = op.check(res.rows, peers)
        defect = op.known_defect
        res.known_defect = (defect.what if res.reason and defect
                            and defect.symptom(res.exit_code, res.rows) else None)


def _print_op(res: OpResult) -> None:
    status = "ok" if not res.failed else f"FAIL ({res.reason})"
    if res.failed and res.known_defect:
        status += f" [known defect: {res.known_defect}]"
    rss = f" rss={res.rss_mb:.1f}MB" if res.rss_mb is not None else ""
    print(f"  {res.name:<12} {res.wall_s:8.3f}s{rss} {status}")


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def _float(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError):
        return math.nan


def pass_metrics(results: list[OpResult]) -> dict:
    """Throughput metrics of one pass, recorded in the result file."""
    wall = sum(r.wall_s for r in results)
    cosets = sum(int(r.rows[0]["count"]) for r in results
                 if not r.failed and r.rows and "count" in r.rows[0])
    mc = [r for r in results if r.mc_samples]
    mc_wall = sum(r.wall_s for r in mc)
    samples = sum(int(_float(r.rows[0], "samples")) for r in mc if r.rows)
    to_target = 0.0
    for r in mc:
        if not r.failed:
            rel = _float(r.rows[0], "error") / _float(r.rows[0], "estimate")
            to_target += r.wall_s * (rel / 1e-3) ** 2
    return {
        "cosets_per_s": cosets / wall if cosets else 0.0,
        "samples_per_s": samples / mc_wall if mc else 0.0,
        "time_to_rel1e-3_s": to_target,
    }


def measure_setup(env: dict, deadline: float, reps: int) -> tuple[list, str | None]:
    """(start, wall time) of ``reps`` set-up processes, and a problem if one failed."""
    times, problem = [], None
    for _ in range(reps):
        started = time.perf_counter()
        wall, code, _, output = run_child(list(SETUP_ARGV), env, deadline - started)
        if code != 0 or "c = " not in output:
            problem = f"set-up command exited {code}: {output.strip()[-200:]}"
        times.append((started, wall))
    return times, problem


PROBE_CODE = """
import math, sys, time
import numpy as np
loops, every = int(sys.argv[1]), float(sys.argv[2])
x = np.random.default_rng(1).normal(size=(4, 50_000))

def interpreter():
    acc = 0
    for i in range(loops):
        t = (i, 3 * i, i * i % 7)
        acc += t[0] * t[1] - t[2]
    return acc

def vectors():
    return float(((np.exp(x) * x).sum(axis=0) > 0).mean())

def timed(fn):
    fn()   # refills the caches and predictors an operation may have evicted
    start = time.thread_time()
    fn()
    return time.thread_time() - start

while True:
    time.sleep(every)
    print(time.perf_counter(), math.sqrt(timed(interpreter) * timed(vectors)), flush=True)
"""


class SpeedProbe:
    """Samples the speed of the CPU the run is pinned to.

    While the run goes on, a helper process times two fixed loops in its own
    CPU time every PROBE_EVERY_S: pure-Python interpreter work, like the
    BFS and the scan, and numpy array work, like the Monte Carlo sampler.
    A sample is the geometric mean of the two times.  Machine slowdowns hit
    the two kinds of work unequally.  On a shared 2-vCPU VM, over 216
    operations of six kinds run back to back for ten minutes, each loop
    alone left a quartile spread of 10-24 % in the scaled times of one kind
    and their geometric mean 10-16 %, against 25-39 % raw.

    The probe shares the CPU with the operations, so the samples cover the
    whole run, operations included.  Each loop runs once untimed first and
    takes about 1 ms, so what an operation does to the caches barely reaches
    it; ``probe_check.py`` measures how much an operation running beside it
    moves it.  It is a process of its own so that its memory does not show
    in the RSS of the operations, which start as copies of this process.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples: list[tuple[float, float]] = []   # (when, CPU seconds)
        self._out = open(WORK / "probe.txt", "w+", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE, str(PROBE_LOOPS), str(PROBE_EVERY_S)],
            stdout=self._out)
        # wait for the first sample, so that the probe's start-up is not timed
        give_up = time.perf_counter() + 30.0
        while os.fstat(self._out.fileno()).st_size == 0:
            if self._proc.poll() is not None or time.perf_counter() > give_up:
                self.__exit__()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.02)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()
        self._out.seek(0)
        for line in self._out:
            fields = line.split()
            if len(fields) == 2:   # the last line may be cut short
                self.samples.append((float(fields[0]), float(fields[1])))
        self._out.close()


def end_to_end(workload: str, seed: int, seconds: float, env: dict, t0: float) -> dict:
    """Closed loop over fresh CLI processes, pinned to one CPU.

    Passes over the workload's operations repeat while another pass fits in
    ``seconds``; there is always at least one.  Set-up time is sampled in
    batches spread over the run (at the start, every SETUP_EVERY_S between
    operations, at the end); the raw wall time sums each operation's median
    over the passes.

    The speed of a shared machine drifts by tens of percent over minutes,
    and every process on a CPU slows alike.  So for ``setup_s`` and
    ``wall_s`` each set-up process and operation is scaled by
    PROBE_NOMINAL_S / (median SpeedProbe sample around it).  The raw times
    are recorded as ``setup_raw_s`` and ``wall_raw_s``.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})   # children inherit it
    except OSError as exc:   # the result file records the affinity actually used
        print(f"could not pin to one CPU: {exc}", file=sys.stderr)
    deadline = t0 + RUN_LIMIT_S
    setup_times, problems = [], []

    def sample_setup() -> float:
        times, problem = measure_setup(env, deadline, SETUP_BATCH)
        setup_times.extend(times)
        problems.append(problem)
        return time.perf_counter()

    measure_setup(env, deadline, 1)   # warm-up: writes bytecode caches, fills the page cache
    with SpeedProbe() as probe:
        last_setup = sample_setup()
        stop_after = last_setup + seconds
        passes = []
        while True:
            ops = workloads.build(workload, seed, len(passes))
            results = []
            for op in ops:
                results.append(run_op_child(op, env, deadline))
                if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    last_setup = sample_setup()
            check_pass(ops, results)
            passes.append(results)
            print(f"pass {len(passes)}:")
            for res in results:
                _print_op(res)
            pass_wall = sum(r.wall_s for r in results)
            # start another pass only when one more fits in the measuring time
            if time.perf_counter() + pass_wall > min(stop_after, deadline - 2 * pass_wall):
                break
        sample_setup()
    per_pass = [pass_metrics(p) for p in passes]
    flat = [r for p in passes for r in p]
    failed = sum(r.failed for r in flat)
    probe_median = statistics.median(dt for _, dt in probe.samples)

    def scaled(start: float, wall: float) -> float:
        """``wall`` at nominal speed, from the probe samples taken during the
        interval or within PROBE_WINDOW_S of it."""
        near = [dt for t, dt in probe.samples
                if start - PROBE_WINDOW_S <= t <= start + wall + PROBE_WINDOW_S]
        return wall * PROBE_NOMINAL_S / statistics.median(near or [probe_median])

    raw_by_op: dict[str, list[float]] = {}
    scaled_by_op: dict[str, list[float]] = {}
    for r in flat:
        raw_by_op.setdefault(r.name, []).append(r.wall_s)
        scaled_by_op.setdefault(r.name, []).append(scaled(r.started, r.wall_s))
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update({
        "setup_s": statistics.median(scaled(t, w) for t, w in setup_times),
        "wall_s": sum(statistics.median(v) for v in scaled_by_op.values()),
        "setup_raw_s": statistics.median(w for _, w in setup_times),
        "wall_raw_s": sum(statistics.median(v) for v in raw_by_op.values()),
        "probe_s": probe_median,
        "peak_rss_mb": max(r.rss_mb for r in flat),
        "pass_frac": 1.0 - failed / len(flat),
        "fail_frac": failed / len(flat),
    })
    return {
        "metrics": metrics,
        "setup_times_s": setup_times,
        "probe_times_s": probe.samples,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "setup_problem": next((p for p in problems if p), None),
        "passes": [[r.record() for r in p] for p in passes],
        "results": flat,
    }


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

def _median_import_s(env: dict, deadline: float) -> float:
    code = ("import time; t = time.perf_counter(); import horocount.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for rep in range(IMPORT_REPS + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
        if rep:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _height_us_per_call(seed: int) -> float:
    """Median time of ``decompose.height`` on seeded SL_3 and SL_4 matrices."""
    import numpy as np

    from horocount.decompose import height
    from horocount.partitions import make_partition

    rng = np.random.default_rng(seed)
    cases = []
    for n, blocks in ((3, [2, 1]), (3, [1, 1, 1]), (4, [2, 2]), (4, [1, 1, 1, 1])):
        part = make_partition(n, blocks)
        for _ in range(100):
            g = rng.normal(size=(n, n))
            g /= abs(np.linalg.det(g)) ** (1.0 / n)
            if np.linalg.det(g) < 0:
                g[:, 0] *= -1.0
            cases.append((g, part))
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for g, part in cases:
            height(g, part)
        times.append((time.perf_counter() - start) / len(cases))
    return statistics.median(times) * 1e6


def _thread_speedup(seed: int) -> float:
    """Time of one N=4 Monte Carlo operation on 1 thread over 2 threads."""
    from horocount.measure import mu_A_ball
    from horocount.partitions import make_partition

    part = make_partition(4, [2, 2])
    best = {}
    for _ in range(3):
        for threads in (1, 2):
            start = time.perf_counter()
            mu_A_ball(part, 6.0, "b+", "mc", workloads.MC_BUDGET, seed=seed, threads=threads)
            elapsed = time.perf_counter() - start
            best[threads] = min(best.get(threads, math.inf), elapsed)
    return best[1] / best[2]


def _digest_report(report, inside):
    params = getattr(report, "params", {})
    return {"count": getattr(report, "count", 0), "states": params.get("states", 0),
            "depth": params.get("depth_reached", 0),
            "heights": inside.get("cosets.coset_height", 0)}


def _digest_quadrature(result, inside):
    return {"estimate": getattr(result, "estimate", math.nan),
            "error": getattr(result, "standard_error", math.nan),
            "samples": getattr(result, "samples", 0)}


def layer_metrics(tracer, untraced_s: float, traced_s: float,
                  functions: tuple[str, ...] = TRACED_FUNCTIONS) -> tuple[dict, list[str]]:
    """Per-layer metrics from the tracer, and the functions the program no
    longer defines (reported as zero)."""
    m = {}
    absent = [name for name in functions
              if name not in tracer.defined and name.rsplit(".", 1)[0] not in tracer.defined]
    for name in functions:
        m[f"{name}.self_s"] = tracer.self_s(name)
        m[f"{name}.calls"] = tracer.calls(name)
    for layer in LAYERS:
        mine = [n for n in tracer.stats if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = sum((tracer.self_s(n) for n in mine), 0.0)
        m[f"{layer}.calls"] = sum(tracer.calls(n) for n in mine)

    bfs = tracer.observed.get("cosets.enumerate_bfs", [])
    brute = tracer.observed.get("cosets.enumerate_brute", [])
    states = sum(r["states"] for r in bfs)
    found = sum(r["count"] for r in bfs + brute)
    brute_found = sum(r["count"] for r in brute)
    m["cosets.bfs.states"] = states
    m["cosets.bfs.depth_reached"] = max((r["depth"] for r in bfs), default=0)
    m["cosets.bfs.cosets_per_state"] = sum(r["count"] for r in bfs) / states if states else 0.0
    m["cosets.same_coset_per_coset"] = (tracer.calls("cosets.same_coset") / found
                                        if found else 0.0)
    m["cosets.brute.completions_per_coset"] = (sum(r["heights"] for r in brute) / brute_found
                                               if brute_found else 0.0)

    mc = tracer.observed.get("measure.mu_A_ball.mc", [])
    grid = tracer.observed.get("measure.mu_A_ball.grid", [])
    mc_samples = sum(r["samples"] for r in mc)
    grid_evals = sum(r["samples"] for r in grid)
    m["measure.mc.ns_per_sample"] = (tracer.inclusive_s("measure.mu_A_ball.mc") / mc_samples
                                     * 1e9 if mc_samples else 0.0)
    m["measure.grid.ns_per_eval"] = (tracer.inclusive_s("measure.mu_A_ball.grid") / grid_evals
                                     * 1e9 if grid_evals else 0.0)
    rel = [r["error"] / r["estimate"] for r in mc
           if math.isfinite(r["error"]) and math.isfinite(r["estimate"]) and r["estimate"]]
    m["measure.mc.rel_se"] = statistics.median(rel) if rel else 0.0
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return m, absent


def traced(workload: str, seed: int, env: dict, t0: float) -> dict:
    import spans

    deadline = t0 + RUN_LIMIT_S
    os.environ["HOROCOUNT_THREADS"] = env["HOROCOUNT_THREADS"]
    sys.path.insert(0, str(SRC))
    import horocount
    import horocount.cli as cli

    if Path(horocount.__file__).resolve().parent != SRC / "horocount":
        raise RuntimeError(f"imported horocount from {horocount.__file__}, not {SRC}")
    probes = {
        "cli.import_s": _median_import_s(env, deadline),
        "decompose.height.us_per_call": _height_us_per_call(seed),
        "measure.mc.thread_speedup": _thread_speedup(seed),
    }
    ops = workloads.build(workload, seed, 0)
    results, missing = {}, []
    for mode in ("untraced", "traced"):
        tracer = spans.Tracer()
        patches = []
        if mode == "traced":
            for name in ("cosets.enumerate_bfs", "cosets.enumerate_brute"):
                tracer.observe(name, _digest_report)
            for name in ("measure.mu_A_ball.mc", "measure.mu_A_ball.grid"):
                tracer.observe(name, _digest_quadrature)
            patches, missing = spans.install(tracer, "horocount", LAYERS, SPLIT)
        try:
            runs = [run_op_inprocess(op, cli) for op in ops]
        finally:
            spans.uninstall(patches)
        check_pass(ops, runs)
        print(f"{mode} pass:")
        for res in runs:
            _print_op(res)
        results[mode] = runs
    untraced_s = sum(r.wall_s for r in results["untraced"])
    traced_s = sum(r.wall_s for r in results["traced"])
    metrics, absent = layer_metrics(tracer, untraced_s, traced_s)
    metrics.update(probes)
    return {
        "metrics": metrics,
        "absent": absent,
        "missing_layers": missing,
        "spans": tracer.spans,
        "spans_dropped": tracer.dropped,
        "passes": [[r.record() for r in results[m]] for m in ("untraced", "traced")],
        "results": results["untraced"] + results["traced"],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def summarize(results: list[OpResult], metrics: dict, wanted: list[dict],
              setup_problem: str | None = None) -> dict:
    """The result line.  A run is correct when every failed operation shows
    exactly the symptom of a known defect; every failure counts in ``failed``."""
    unexpected = [r.name for r in results if r.failed and not r.known_defect]
    return {
        "correct": not unexpected and setup_problem is None,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    if not (SRC / "horocount" / "cli.py").is_file():
        print(f"no horocount source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    env = child_env()
    machine = environment()
    if args.trace:
        run = traced(args.workload, args.seed, env, t0)
        wanted = spec["per_layer"]
    else:
        run = end_to_end(args.workload, args.seed, args.seconds, env, t0)
        wanted = spec["end_to_end"]
    results = run.pop("results")
    summary = summarize(results, run["metrics"], wanted, run.get("setup_problem"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_list = run.pop("spans", None)
    if span_list is not None:
        with open(RESULTS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in span_list:
                fh.write(json.dumps(span) + "\n")
    record = {"args": vars(args), "environment": machine,
              "elapsed_s": time.perf_counter() - t0, **run, "summary": summary}
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
