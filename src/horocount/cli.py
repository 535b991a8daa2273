"""Command-line front end: reproducible experiments with persisted reports.

Subcommands: ``constant`` (asymptotic counting constant), ``count``
(lift enumeration), ``volume`` (diagonal-measure quadrature), ``classify``
(limit-measure classifier) and ``selftest``.  Every run that writes an
output file also writes a JSON manifest holding the full parameter set,
seed, version, timestamps and environment; rerunning a manifest reproduces
every deterministic output byte for byte.  Floats in text, CSV and JSON
output are written as their shortest round-trip ``repr``.

The one setting outside the command line is ``HOROCOUNT_THREADS``, the
Monte Carlo worker threads of ``volume``: an integer of at least 1, capped
at the CPUs this process may run on, which are also the default.  A grid
run does not read it.  The thread count never changes a result.

Exit codes: 0 success, 2 validation error or an output file that cannot
be written, 3 resource/consistency error, 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import __version__
from .partitions import make_partition

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_UNKNOWN = 64

_SUBCOMMANDS = ("constant", "count", "volume", "classify", "selftest")


def _utc(seconds: float) -> str:
    """A ``time.time()`` reading in ISO 8601, UTC; only manifests load ``datetime``."""
    import datetime

    return datetime.datetime.fromtimestamp(seconds, datetime.timezone.utc).isoformat()


def _threads() -> int:
    """The CPUs this process may run on, or ``HOROCOUNT_THREADS`` (an
    integer of at least 1) where that is fewer: a thread past the CPUs only
    costs its start."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get("HOROCOUNT_THREADS")
    if not env:
        return cpus
    try:
        threads = int(env)
        if threads < 1:
            raise ValueError
    except ValueError:
        raise ValueError("HOROCOUNT_THREADS must be an integer of at least 1, "
                         f"got {env!r}") from None
    return min(threads, cpus)


def _partition_from(args):
    try:
        sizes = [int(tok) for tok in args.blocks.split(",")]
    except ValueError as exc:   # an empty entry too
        raise ValueError(f"cannot parse block sizes {args.blocks!r}") from exc
    return make_partition(args.n, sizes)


def _git_commit(root: str) -> str | None:
    """The commit checked out in ``root``, read from ``.git/HEAD`` and then
    the loose ref or ``packed-refs``; None outside a checkout or on any
    read problem."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[len("ref: "):]
            try:
                with open(os.path.join(git, ref), encoding="ascii") as fh:
                    head = fh.read().strip()
            except FileNotFoundError:
                with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                    head = next((line.split()[0] for line in fh
                                 if line.rstrip("\n").endswith(" " + ref)), "")
    except (OSError, ValueError):   # ValueError: a file that is not ASCII
        return None
    if len(head) == 40 and all(ch in "0123456789abcdef" for ch in head):
        return head
    return None


def _write_manifest(out_path: str, args, seed: int | None, started: float,
                    threads: int = 1) -> None:
    """Write ``<out_path>.manifest.json``: the run's parameters, seed,
    version, start and finish times, output file and environment: the
    Python and numpy versions (numpy null when the run never loaded it),
    the ``threads`` the run used and the git commit of the source checkout
    (null when the package does not run from one)."""
    numpy = sys.modules.get("numpy")
    checkout = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    manifest = {
        "subcommand": args.subcommand,
        "params": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": seed,
        "version": __version__,
        "started": _utc(started),
        "finished": _utc(time.time()),
        "outputs": [out_path],
        "environment": {
            "python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": numpy.__version__ if numpy is not None else None,
            "threads": threads,
            "commit": _git_commit(checkout),
        },
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_constant(args) -> int:
    from . import constants as C

    started = time.time()
    part = _partition_from(args)
    cc = C.counting_constant(part)
    haar = C.c7(part)
    payload = {
        "n": part.n,
        "blocks": list(part.sizes),
        "p": cc.poly_exponent,
        "q": cc.exp_rate,
        "c": cc.coefficient,
        "components": {
            "C7": haar.c7,
            "C4": haar.c4,
            "C6": haar.c6,
            "volK": haar.vol_k,
            "volKBlocks": haar.vol_k_blocks,
            "volSL": C.vol_sl_mod(part.n),
            "volHor": C.vol_hor_quotient_slz(part),
            "pi0": C.pi0_stabilizer(part),
            "P_N": C.p_norm(part.n),
        },
    }
    text = json.dumps(payload, indent=2)
    if args.json:
        print(text)
    else:
        print(f"count(R) ~ c * R^p * exp(q R) for blocks {list(part.sizes)}:")
        print(f"  p = {cc.poly_exponent!r}")
        print(f"  q = {cc.exp_rate!r}")
        print(f"  c = {cc.coefficient!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, args, None, started)
    return EXIT_OK


def _cmd_count(args) -> int:
    from . import cosets as CS
    from .constants import asymptotic_count, counting_constant

    part = _partition_from(args)
    cc = counting_constant(part)
    started = time.time()
    reports = []
    if args.method in ("brute", "both"):
        # before a walk that could take minutes
        CS.require_scannable(part, args.radius, args.max_states)
    if args.method in ("bfs", "both"):
        reports.append(CS.enumerate_bfs(
            part, args.radius, margin=args.margin, max_states=args.max_states,
        ))
    if args.method in ("brute", "both"):
        reports.append(CS.enumerate_brute(part, args.radius, max_states=args.max_states))
    if args.method == "both" and not CS.coset_sets_equal(*reports):
        walk, scan = ({rec.key for rec in rep.records} for rep in reports)
        raise CS.InconsistencyError(
            "graph search and exhaustive scan disagree on the coset set: the "
            f"scan lacks {len(walk - scan)} of the walk's cosets and the walk "
            f"lacks {len(scan - walk)} of the scan's"
        )
    rows = []
    for rep in reports:
        asym = asymptotic_count(cc, args.radius)
        rows.append({
            "R": args.radius,
            "count": rep.count,
            "asymptotic": asym,
            "ratio": rep.count / asym if asym > 0 else "",
            "method": rep.method,
            "margin": args.margin if rep.method == "bfs" else "",
            "depth": rep.params["depth_reached"] if rep.method == "bfs" else "",
            "seconds": rep.wall_time,
        })
        print(f"method={rep.method} R={args.radius!r} count={rep.count} "
              f"({rep.wall_time:.2f}s)")
        failures = rep.params.get("descent_failures", 0)
        if failures:
            print(f"warning: {failures} of {rep.params['descent_checked']} expanded "
                  "cosets have no strictly lower neighbour (descent check); the "
                  f"count may be incomplete at margin {args.margin!r}; try a larger "
                  "--margin", file=sys.stderr)
    if args.csv:
        _write_csv(args.csv, rows)
        _write_manifest(args.csv, args, None, started)
    return EXIT_OK


def _cmd_volume(args) -> int:
    from . import measure as M

    part = _partition_from(args)
    method = "grid" if args.grid is not None else "mc"
    # only Monte Carlo runs on more than one thread
    threads = _threads() if method == "mc" else 1
    started = time.time()
    res = M.mu_A_ball(part, args.radius, args.region, method, args.mc,
                      offset=args.offset, eps=args.eps, seed=args.seed,
                      grid_step=args.grid, threads=threads)
    print(f"region={res.region} method={res.method} estimate={res.estimate!r} "
          f"error={res.standard_error!r} samples={res.samples}")
    if res.converged is False:
        print(f"warning: the grid error is not below {M.GRID_REL_TARGET:g} relative: "
              "refinement stopped before successive estimates agreed (try a smaller "
              "--grid step), or the sections' rounding passes it (a tiny radius)",
              file=sys.stderr)
    if args.csv:
        # the seed and the diagnostics are empty for the columns a method
        # does not use or report
        rows = [{
            "R": args.radius, "region": res.region, "method": res.method,
            "estimate": res.estimate, "error": res.standard_error,
            "samples": res.samples, "seed": res.seed, "ess": res.ess,
            "in_region": res.in_region, "max_weight_share": res.max_weight_share,
            "converged": res.converged,
        }]
        _write_csv(args.csv, rows)
        _write_manifest(args.csv, args, res.seed, started, threads)
    return EXIT_OK


def _cmd_classify(args) -> int:
    from . import dynamics as D

    part = _partition_from(args)
    # the spec rejects an unknown token or a wrong count
    a_beh = _tokens(args.a_behavior) or (D.A_IDENTITY,) * part.k0
    b_beh = _tokens(args.b_behavior) or (D.B_CONSTANT_ONE,) * (part.k0 - 1)
    result = D.classify_limit(D.CleanSequenceSpec(part, a_beh, b_beh))
    print(json.dumps(result.to_dict(), indent=2))
    return EXIT_OK


def _tokens(text: str | None) -> tuple[str, ...]:
    """The entries of a comma list, stripped; none for an absent or empty list."""
    return tuple(tok.strip() for tok in text.split(",")) if text else ()


def run_selftest() -> int:
    """Smallest-scale pass over the acceptance checks: prints one line per
    check and a tally, and returns 0 when every check passed, else 1."""
    import math

    import numpy as np

    from . import constants as C
    from . import cosets as CS
    from . import dynamics as D
    from . import measure as M
    from .decompose import height
    from .partitions import p_norm_squared

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # deliberate: report, do not crash the suite
            ok = False
            name = f"{name} [{type(exc).__name__}: {exc}]"
        checks.append((name, ok))

    p2 = make_partition(2, [1, 1])
    p3 = make_partition(3, [1, 1, 1])
    p21 = make_partition(3, [2, 1])

    def example_constants():
        for part in (p3, p21, p2):
            a = C.counting_constant(part).coefficient
            b = C.hardcoded_example_constant(part)
            if abs(a / b - 1.0) > 1e-12:
                return False
        return True

    check("example constants (dual path, 1e-12)", example_constants)
    check("P_N identity (N=1..50)", lambda: all(
        p_norm_squared(n) * 3 == n * (n - 1) * (n + 1) for n in range(1, 51)))
    check("Vol(SO_n) recursion vs product (n=1..12)", lambda: all(
        abs(C.vol_so(n) / C.vol_so_recursive(n) - 1.0) < 1e-12 for n in range(1, 13)))
    check("xi identity (N=2..8, 1e-9)", lambda: all(
        C.xi_identity_check(n) <= 1e-9 for n in range(2, 9)))

    def quick_decomposition():
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = rng.normal(size=(3, 3))
            g /= abs(np.linalg.det(g)) ** (1 / 3)
            if np.linalg.det(g) < 0:
                g[:, 0] *= -1
            _, frame = height(g, p21)
            if np.abs(frame.reconstruct() - g).max() > 1e-9 * np.abs(g).max():
                return False
        h, _ = height(np.array([[1.0, 0.0], [1.0, 1.0]]), p2)
        return abs(h - math.log(2.0) / math.sqrt(2.0)) < 1e-9

    check("decomposition reconstruction + hand height", quick_decomposition)

    def quick_enumeration():
        # the count-n3 settings; the scan reaches [1, 2] through the
        # reversal of [2, 1]'s completions
        return all(
            CS.coset_sets_equal(CS.enumerate_bfs(part, 1.5), CS.enumerate_brute(part, 1.5))
            for part in (p2, make_partition(3, [1, 1, 1]), p21, make_partition(3, [1, 2])))

    check("enumeration oracle equivalence (R=1.5: N=2, N=3 [1,1,1], [2,1], "
          "[1,2] as the reversal of [2,1])",
          quick_enumeration)

    def block_gram_heights():
        # the integer Gram path of a size-3 block against the float frame
        p31 = make_partition(4, [3, 1])
        gens = CS._generators(4)
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
            for _ in range(10):
                g = CS._left_apply(g, gens[rng.integers(len(gens))])
            if abs(CS.coset_height(g, p31) - height(np.array(g, dtype=float), p31)[0]) > 1e-9:
                return False
        return True

    check("coset heights of size-3 blocks vs decompose.height (N=4 [3,1], 1e-9)",
          block_gram_heights)

    def quick_volume():
        # the integral of e^(sqrt(2) t) over [0, 3], written apart from the
        # grid's e^(c R - log c) (-expm1(-c R)), so that a fault there shows
        res = M.mu_A_ball(p2, 3.0, "b+", "grid", grid_step=0.05)
        exact = math.sqrt(2.0) / 2.0 * math.expm1(math.sqrt(2.0) * 3.0)
        return abs(res.estimate / exact - 1.0) < 1e-12

    check("volume quadrature (N=2 closed form, 1e-12)", quick_volume)

    def quick_classifier():
        full = D.classify_limit(D.CleanSequenceSpec(
            p2, (D.A_IDENTITY, D.A_IDENTITY), (D.B_TO_INFINITY,)))
        dead = D.classify_limit(D.CleanSequenceSpec(
            p2, (D.A_IDENTITY, D.A_IDENTITY), (D.B_TO_ZERO,)))
        return (full.nondivergent and full.block_roles == ("M",)
                and not dead.nondivergent)

    check("classifier (N=2 limit cases)", quick_classifier)

    def seed_stability():
        a = M.mu_A_ball(p2, 2.0, "b+", "mc", budget=50_000, seed=123)
        b = M.mu_A_ball(p2, 2.0, "b+", "mc", budget=50_000, seed=123)
        return a.estimate == b.estimate

    check("seed-pinned quadrature repeats bit-for-bit", seed_stability)

    def mc_vs_reference():
        # the converged grid value of test_measure._N3_R6_REFERENCE
        res = M.mu_A_ball(p21, 6.0, "b+", "mc", budget=200_000, seed=2026)
        return abs(res.estimate - 14_194_784.98217) <= 4 * res.standard_error

    check("Monte Carlo volume (N=3 [2,1], R=6, within 4 sigma of the reference)",
          mc_vs_reference)

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} selftest checks passed")
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _write_csv(path: str, rows: list[dict]) -> None:
    """The rows under a header of the first row's keys, in their order."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horocount",
        description="Asymptotic constants and exact counts for horocycle lifts",
    )
    sub = parser.add_subparsers(dest="subcommand")
    # --n and --blocks of every subcommand but selftest
    partition = argparse.ArgumentParser(add_help=False)
    partition.add_argument("--n", type=int, required=True)
    partition.add_argument("--blocks", type=str, required=True)

    p = sub.add_parser("constant", parents=[partition], help="asymptotic counting constant")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("count", parents=[partition], help="enumerate lift cosets of height <= R")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--method", choices=["bfs", "brute", "both"], default="bfs")
    p.add_argument("--margin", type=float, default=0.0,
                   help="extra height above R to which the walk expands cosets, "
                        "for cross-checks (default 0).  Margin 0 is complete for "
                        "N=2; for N>=3 it rests on the descent lemma, which every "
                        "walk checks: a failed check prints a warning on stderr "
                        "that the count may be incomplete at this margin")
    p.add_argument("--max-states", type=int, default=2_000_000,
                   help="budget of stored coset keys (default 2000000).  The walk "
                        "stores every key of each signed-permutation orbit it meets "
                        "within its height limit and each single coset above it; the "
                        "scan bounds by it the first columns it visits and its "
                        "cosets.  Past it the count exits 3")
    p.add_argument("--csv", type=str, default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("volume", parents=[partition], help="quadrature of the diagonal measure")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--region", choices=["b+", "bc+", "annulus"], default="b+")
    p.add_argument("--mc", type=int, default=1_000_000,
                   help="Monte Carlo sample budget (HOROCOUNT_THREADS sets its "
                        "worker threads)")
    p.add_argument("--grid", type=float, default=None,
                   help="initial grid step (switches to the grid rule, N <= 3).  "
                        "N=2: the exact integral, the step unused, samples 1.  "
                        "N=3: each refinement halves the spacing and evaluates "
                        "only the new midpoints; samples counts the non-empty, "
                        "exactly integrated sections of the last grid")
    p.add_argument("--offset", type=float, default=0.0,
                   help="cone offset C <= 0 for bc+; write a negative value in "
                        "exponent form as --offset=-1e-5")
    p.add_argument("--eps", type=float, default=None, help="annulus inner fraction")
    p.add_argument("--seed", type=int, default=0,
                   help="Monte Carlo seed; a grid run records none")
    p.add_argument("--csv", type=str, default=None)
    p.set_defaults(func=_cmd_volume)

    p = sub.add_parser("classify", parents=[partition],
                       help="limit classification of a clean sequence")
    p.add_argument("--a-behavior", type=str, default=None,
                   help="comma list per block: id|inf")
    p.add_argument("--b-behavior", type=str, default=None,
                   help="comma list per proper prefix: inf|one|zero")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("selftest", help="run the acceptance checks at small scale")
    p.set_defaults(func=lambda _args: run_selftest())

    return parser


def _resource_errors() -> tuple:
    """The errors that exit 3.  Evaluated only when a run raises, so a
    subcommand that never enumerates does not load ``cosets``."""
    from .cosets import InconsistencyError, ResourceLimitError

    return ResourceLimitError, InconsistencyError, MemoryError


def dispatch(argv: list[str]) -> int:
    """Parse and run; maps error classes to the documented exit codes.  The
    output file and its manifest are opened for append before the run, so a
    path that cannot be written exits 2 before any work; a check or run that
    fails removes each file the check created."""
    # no option comes before the subcommand; argparse rejects one that does
    subcommand = argv[0] if argv and not argv[0].startswith("-") else None
    if subcommand is not None and subcommand not in _SUBCOMMANDS:
        print(f"unknown subcommand: {subcommand}", file=sys.stderr)
        return EXIT_UNKNOWN
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0,) else EXIT_OK
    if not getattr(args, "subcommand", None):
        parser.print_help()
        return EXIT_VALIDATION
    out = getattr(args, "csv", None) or getattr(args, "out", None)
    outputs = [out, out + ".manifest.json"] if out else []
    created = [path for path in outputs if not os.path.exists(path)]
    try:
        try:
            for path in outputs:
                open(path, "a", encoding="utf-8").close()
            return args.func(args)
        except BaseException:
            for path in created:   # a failed check or run leaves no file behind
                if os.path.exists(path):
                    os.remove(path)
            raise
    except _resource_errors() as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, NotImplementedError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:   # writing an output file: the message names the path
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def rerun_manifest(path: str) -> int:
    """Re-execute a run from its manifest; deterministic outputs reproduce.
    Each value goes in one ``--flag=value`` token, so a negative one in
    exponent form (``-1e-05``) is not read as an option.  No subcommand
    calls it: it is the Python entry point of the manifest contract in the
    module docstring, which the tests hold it to."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    argv = [manifest["subcommand"]]
    for key, value in manifest["params"].items():
        if key == "subcommand" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        argv.append(flag if value is True else f"{flag}={value}")
    return dispatch(argv)


def main() -> None:
    code = dispatch(sys.argv[1:])
    # Move every object to the collector's permanent generation, so the
    # collections at interpreter shutdown skip them.  They walked every object
    # numpy and the run created: a 2M-sample N=3 Monte Carlo run took 0.48 s
    # without the freeze and 0.44 s with it (medians of 20, one pinned CPU).
    # No output depends on them: every file is already closed by its ``with``.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
