import csv
import datetime
import json
import math
import os
import re
import subprocess
import sys

import pytest

from horocount import cli
from horocount import cosets as CS
from horocount.constants import counting_constant, xi
from horocount.partitions import make_partition
from . import coset_helpers as H


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constant_example1_json(capsys):
    code, out, _ = run(capsys, "constant", "--n", "3", "--blocks", "1,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 0.5
    assert payload["q"] == pytest.approx(2 * math.sqrt(2), rel=1e-15)
    expected = math.pi ** 0.5 * 3 * 2 ** 0.25 / (7 * xi(2) * xi(3))
    assert payload["c"] == pytest.approx(expected, rel=1e-12)
    assert payload["components"]["pi0"] == 7
    assert payload["components"]["P_N"] == pytest.approx(math.sqrt(8), rel=1e-15)


def test_constant_17_digits(capsys):
    code, out, _ = run(capsys, "constant", "--n", "2", "--blocks", "1,1", "--json")
    payload = json.loads(out)
    assert payload["c"] == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-15)
    # the shortest repr round-trips the exact double the program computed
    assert payload["c"] == counting_constant(make_partition(2, [1, 1])).coefficient


def test_classify_divergent(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--blocks", "1,1",
                       "--b-behavior", "zero")
    assert code == 0
    assert json.loads(out) == {"nondivergent": False}


def test_classify_full_haar(capsys):
    code, out, _ = run(capsys, "classify", "--n", "2", "--blocks", "1,1",
                       "--b-behavior", "inf")
    payload = json.loads(out)
    assert payload["nondivergent"] is True
    assert payload["coarse_blocks"] == [2]
    assert payload["block_roles"] == ["M"]


def test_count_both_methods(tmp_path, capsys):
    csv_path = tmp_path / "counts.csv"
    code, out, _ = run(capsys, "count", "--n", "2", "--blocks", "1,1",
                       "--radius", "0.1", "--method", "both",
                       "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("R,count,asymptotic,ratio,method")
    assert len(lines) == 3  # header + one row per method
    counts = {line.split(",")[4]: int(line.split(",")[1]) for line in lines[1:]}
    assert counts["bfs"] == counts["brute"] == 2
    depths = {line.split(",")[4]: line.split(",")[6] for line in lines[1:]}
    assert int(depths["bfs"]) >= 1 and depths["brute"] == ""
    manifest = json.loads((tmp_path / "counts.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "count"
    assert manifest["outputs"] == [str(csv_path)]
    started, finished = (datetime.datetime.fromisoformat(manifest[key])
                         for key in ("started", "finished"))
    assert started.utcoffset() == datetime.timedelta(0) and started <= finished


def test_count_default_margin_n3(capsys):
    # at the former default margin 2.0 this walk exceeded the 2M-state
    # budget after about 30 s (exit 3)
    code, out, err = run(capsys, "count", "--n", "3", "--blocks", "1,1,1",
                         "--radius", "2.5")
    assert code == 0
    assert out.startswith("method=bfs R=2.5 count=5856 ")
    assert err == ""


def test_count_warns_on_failed_descent_check(tmp_path, capsys, monkeypatch):
    # cosets below all their neighbours: a warning on stderr, with the exit
    # code and the CSV's count unchanged
    def count_run(name):
        csv_path = tmp_path / name
        code, _, err = run(capsys, "count", "--n", "2", "--blocks", "1,1",
                             "--radius", "2", "--csv", str(csv_path))
        rows = csv_path.read_text().splitlines()
        return code, err, rows[0], rows[1].split(",")[:-1]  # drop seconds

    honest = count_run("honest.csv")
    assert honest[1] == ""
    # the orbit of the column (2, 1): (2, 1) and (1, -2)
    pinned = H.pinned_height(((2, 1), (1, 1)), make_partition(2, [1, 1]), 0.01)
    monkeypatch.setattr(CS, "_state_height", pinned)
    code, err, header, row = count_run("pinned.csv")
    assert (code, header, row) == (honest[0], honest[2], honest[3])
    assert err.startswith("warning: 2 of ") and "may be incomplete" in err


_UNDOCUMENTED_BEHAVIORS = [
    ("--a-behavior", "identity,id", "'identity'"),
    ("--a-behavior", "unbounded,id", "'unbounded'"),
    ("--b-behavior", "infinity", "'infinity'"),
    ("--b-behavior", "to_infinity", "'to_infinity'"),
    ("--b-behavior", "constant_one", "'constant_one'"),
    ("--b-behavior", "to_zero", "'to_zero'"),
    ("--b-behavior", "inf,one", "proper prefix (1), got 2"),
]


@pytest.mark.parametrize("flag, value, named", _UNDOCUMENTED_BEHAVIORS,
                         ids=[value for _, value, _ in _UNDOCUMENTED_BEHAVIORS])
def test_classify_takes_the_documented_tokens_only(capsys, flag, value, named):
    # one spelling per value, id|inf per block and inf|one|zero per proper
    # prefix: the long spellings, and a last entry one for the full
    # product (the determinant), ran with exit 0
    code, out, err = run(capsys, "classify", "--n", "3", "--blocks", "2,1", flag, value)
    assert (code, out) == (2, "")
    assert named in err


def test_volume_manifest_reproducibility(tmp_path, capsys):
    csv_path = tmp_path / "vol.csv"
    code, out, _ = run(capsys, "volume", "--n", "2", "--blocks", "1,1",
                       "--radius", "2.0", "--mc", "50000", "--seed", "42",
                       "--csv", str(csv_path))
    assert code == 0
    first = csv_path.read_text()
    manifest_path = tmp_path / "vol.csv.manifest.json"
    assert manifest_path.exists()
    code = cli.rerun_manifest(str(manifest_path))
    capsys.readouterr()
    assert code == 0
    assert csv_path.read_text() == first


def test_volume_csv_diagnostics(tmp_path, capsys):
    # trailing columns: the weight diagnostics for Monte Carlo, convergence
    # for the grid; the stdout line keeps its fields
    base = ("volume", "--n", "3", "--blocks", "2,1", "--radius", "2.0")
    rows = {}
    for method in (("--mc", "20000"), ("--grid", "0.05")):
        csv_path = tmp_path / f"{method[0][2:]}.csv"
        code, out, _ = run(capsys, *base, *method, "--csv", str(csv_path))
        assert code == 0
        assert [field.split("=")[0] for field in out.split()] == [
            "region", "method", "estimate", "error", "samples"]
        with open(csv_path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert list(row)[-4:] == ["ess", "in_region", "max_weight_share", "converged"]
        rows[row["method"]] = row
    assert 0 < float(rows["mc"]["ess"]) <= 20000
    assert 0 < float(rows["mc"]["in_region"]) <= 1
    assert 0 < float(rows["mc"]["max_weight_share"]) < 1
    assert rows["mc"]["converged"] == ""
    assert rows["grid"]["converged"] == "True"
    assert rows["grid"]["ess"] == rows["grid"]["in_region"] == ""


def test_grid_ignores_monte_carlo_settings(tmp_path, capsys, monkeypatch):
    # the grid starts no thread and draws no random number: HOROCOUNT_THREADS
    # exited 2, and --seed went into the CSV row and the manifest
    grid = ("volume", "--n", "2", "--blocks", "1,1", "--radius", "2", "--grid", "0.1")
    monkeypatch.setenv("HOROCOUNT_THREADS", "abc")
    assert run(capsys, *grid)[0] == 0
    assert run(capsys, *grid[:-2], "--mc", "10")[0] == 2
    monkeypatch.delenv("HOROCOUNT_THREADS")
    csv_path = tmp_path / "g.csv"
    assert run(capsys, *grid, "--seed", "5", "--csv", str(csv_path))[0] == 0
    with open(csv_path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["method"], row["seed"]) == ("grid", "")
    manifest = json.loads((tmp_path / "g.csv.manifest.json").read_text())
    assert manifest["seed"] is None and manifest["params"]["seed"] == 5


def test_count_manifest_reruns_zero_radius(tmp_path, capsys):
    # a zero parameter was dropped from the rerun: without --radius it exited 2
    csv_path = tmp_path / "c.csv"
    code, _, _ = run(capsys, "count", "--n", "2", "--blocks", "1,1",
                     "--radius", "0", "--csv", str(csv_path))
    assert code == 0
    first = csv_path.read_text().splitlines()
    code = cli.rerun_manifest(str(tmp_path / "c.csv.manifest.json"))
    capsys.readouterr()
    assert code == 0
    rerun = csv_path.read_text().splitlines()
    assert rerun[1].split(",")[:-1] == first[1].split(",")[:-1]  # drop seconds
    assert first[1].split(",")[1] == "2"


def test_manifest_reruns_negative_exponent_offset(tmp_path, capsys):
    # the manifest stores -1e-05, which argparse took for an option when it
    # followed --offset as a token of its own: the rerun exited 2
    csv_path = tmp_path / "v.csv"
    code, _, _ = run(capsys, "volume", "--n", "2", "--blocks", "1,1", "--radius", "2",
                     "--grid", "0.1", "--region", "bc+", "--offset", "-0.00001",
                     "--csv", str(csv_path))
    assert code == 0
    first = csv_path.read_text()
    manifest_path = tmp_path / "v.csv.manifest.json"
    assert json.loads(manifest_path.read_text())["params"]["offset"] == -1e-05
    code = cli.rerun_manifest(str(manifest_path))
    assert (code, capsys.readouterr().err) == (0, "")
    assert csv_path.read_text() == first


def test_removed_flags_exit_2(capsys):
    # HOROCOUNT_THREADS is the one thread setting, and mc and grid the methods
    volume = ("volume", "--n", "2", "--blocks", "1,1", "--radius", "1", "--mc", "10")
    assert run(capsys, *volume, "--plain")[0] == 2
    assert run(capsys, *volume, "--threads", "2")[0] == 2
    assert run(capsys, "--threads", "2", *volume)[0] == 2
    assert run(capsys, "--threads=2", *volume)[0] == 2


@pytest.mark.parametrize("blocks", ["1,,2", "2,1,", ",1,2", "1, ,2"])
def test_blocks_reject_an_empty_entry(capsys, blocks):
    # an empty entry was dropped: 1,,2 ran as [1, 2] with exit 0
    code, out, err = run(capsys, "count", "--n", "3", "--blocks", blocks, "--radius", "1")
    assert (code, out) == (2, "")
    assert repr(blocks) in err


# the directory above src/, a git checkout when the tests run from one
_CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))


# pytest itself has loaded numpy and cosets, so a fresh interpreter runs
# each command and prints which of the comma-separated modules it loaded
_REPORT_MODULE = ("import sys; from horocount import cli; code = cli.dispatch(sys.argv[2:]); "
                  "print('loaded:', *[m for m in sys.argv[1].split(',') if m in sys.modules]); "
                  "sys.exit(code)")
# modules whose import costs a command more time than most of its work
_SLOW_IMPORTS = ("numpy", "dataclasses", "fractions")


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's horocount."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def _loaded_modules(modules, argv, code=0) -> set[str]:
    proc = _fresh_python("-c", _REPORT_MODULE, ",".join(modules), *argv)
    assert proc.returncode == code, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


def _loads_module(module, argv, code=0) -> bool:
    return module in _loaded_modules((module,), argv, code)


_VOLUME_N2 = ("volume", "--n", "2", "--blocks", "1,1", "--radius", "2", "--grid", "0.1")
_VOLUME_N3 = ("volume", "--n", "3", "--blocks", "2,1", "--radius", "3", "--grid", "0.1")


@pytest.mark.parametrize("argv", [
    ("constant", "--n", "3", "--blocks", "2,1"),
    ("count", "--n", "2", "--blocks", "1,1", "--radius", "4"),
    ("count", "--n", "3", "--blocks", "2,1", "--radius", "1.5"),
    ("count", "--n", "3", "--blocks", "2,1", "--radius", "1.5", "--method", "both"),
    ("count", "--n", "2", "--blocks", "1,1", "--radius", "2", "--method", "brute"),
    _VOLUME_N2,
    _VOLUME_N2 + ("--region", "bc+", "--offset", "-1"),
    _VOLUME_N2 + ("--region", "annulus", "--eps", "0.5"),
    _VOLUME_N3,
    _VOLUME_N3 + ("--region", "bc+", "--offset", "-1"),
    _VOLUME_N3[:4] + ("1,1,1",) + _VOLUME_N3[5:] + ("--region", "annulus", "--eps", "0.5"),
    ("classify", "--n", "3", "--blocks", "2,1", "--a-behavior", "inf,id"),
], ids=["constant", "count-n2", "count-n3", "count-n3-both", "count-n2-brute",
        "volume-grid-n2-b+", "volume-grid-n2-bc+", "volume-grid-n2-annulus",
        "volume-grid-n3-b+", "volume-grid-n3-bc+", "volume-grid-n3-annulus", "classify"])
def test_commands_run_without_numpy(argv):
    # the walk, the scan, the constant, the grid rule and the classifier are
    # plain Python; importing numpy would double the start-up time of these
    # commands, and dataclasses (with inspect) and fractions (with decimal)
    # add a fifth
    assert _loaded_modules(_SLOW_IMPORTS, argv) == set()


def test_monte_carlo_loads_numpy_alone():
    argv = ("volume", "--n", "3", "--blocks", "2,1", "--radius", "3", "--mc", "1000")
    assert _loaded_modules(_SLOW_IMPORTS, argv) == {"numpy"}


@pytest.mark.parametrize("argv", [
    ("constant", "--n", "3", "--blocks", "2,1"),
    ("count", "--n", "2", "--blocks", "1,1", "--radius", "2"),
], ids=["constant", "count"])
def test_runs_without_an_output_file_skip_its_modules(argv):
    # csv and datetime serve only the CSV and the manifest
    assert _loaded_modules(("csv", "datetime"), argv) == set()


def test_grid_rejects_n4_without_numpy():
    # the grid rule stops at N = 3: rejected before the integrand is built
    argv = ("volume", "--n", "4", "--blocks", "2,2", "--radius", "2", "--grid", "0.1")
    assert not _loads_module("numpy", argv, code=2)


def test_main_writes_csv_and_manifest(tmp_path):
    # through main, which freezes the collector's objects before exit: the
    # output files are complete, and the grid rule never loads numpy
    csv_path = tmp_path / "grid.csv"
    proc = _fresh_python("-m", "horocount.cli", "volume", "--n", "3", "--blocks", "2,1",
                         "--radius", "6", "--grid", "0.04", "--csv", str(csv_path))
    assert proc.returncode == 0, proc.stderr
    estimate = float(proc.stdout.split("estimate=")[1].split()[0])
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["method"] == "grid"
    assert float(rows[0]["estimate"]) == estimate
    assert rows[0]["converged"] == "True"
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(csv_path)]
    assert manifest["environment"]["numpy"] is None


def test_constant_out_holds_the_json_and_reruns(tmp_path, capsys):
    # the file is the --json payload; a constant has no seed and never loads
    # numpy; the rerun writes the same bytes again
    out_path = tmp_path / "c.json"
    proc = _fresh_python("-m", "horocount.cli", "constant", "--n", "3", "--blocks", "2,1",
                         "--json", "--out", str(out_path))
    assert proc.returncode == 0, proc.stderr
    first = out_path.read_bytes()
    assert first.decode("utf-8") == proc.stdout
    manifest_path = tmp_path / "c.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["seed"] is None and manifest["environment"]["numpy"] is None
    out_path.write_bytes(b"")
    assert cli.rerun_manifest(str(manifest_path)) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first


@pytest.mark.parametrize("argv", [
    ("constant", "--n", "3", "--blocks", "2,1"),
    ("volume", "--n", "2", "--blocks", "1,1", "--radius", "2", "--grid", "0.1"),
], ids=["constant", "volume-grid"])
def test_commands_run_without_cosets(argv):
    # dispatch loaded cosets only to name its error classes
    assert not _loads_module("horocount.cosets", argv)


def test_resource_errors_exit_3(capsys, monkeypatch):
    from horocount import measure as M

    def no_memory(*args, **kwargs):
        raise MemoryError("no room for the block")

    monkeypatch.setattr(M, "mu_A_ball", no_memory)
    code, _, err = run(capsys, "volume", "--n", "2", "--blocks", "1,1", "--radius", "1")
    assert code == 3 and "no room for the block" in err
    monkeypatch.setattr(CS, "coset_sets_equal", lambda *reports: False)
    code, _, err = run(capsys, "count", "--n", "2", "--blocks", "1,1", "--radius", "1",
                       "--method", "both")
    assert code == 3 and "disagree" in err


def test_manifest_environment(tmp_path, capsys, monkeypatch):
    import numpy as np

    python = "{}.{}.{}".format(*sys.version_info[:3])
    # the checkout's commit, a 40-hex sha (null outside a checkout)
    commit = cli._git_commit(_CHECKOUT)
    assert commit is None or re.fullmatch("[0-9a-f]{40}", commit)
    volume = ("volume", "--n", "2", "--blocks", "1,1", "--radius", "2.0", "--mc", "20000")
    # the threads Monte Carlo used: the variable, capped at the CPUs, else the CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for env, method, used in (("3", (), 3), ("8", (), 4), (None, (), 4),
                              ("3", ("--grid", "0.1"), 1)):
        if env is None:
            monkeypatch.delenv("HOROCOUNT_THREADS", raising=False)
        else:
            monkeypatch.setenv("HOROCOUNT_THREADS", env)
        csv_path = tmp_path / "vol.csv"
        assert run(capsys, *volume, *method, "--csv", str(csv_path))[0] == 0
        manifest = json.loads((tmp_path / "vol.csv.manifest.json").read_text())
        assert manifest["environment"] == {"python": python, "numpy": np.__version__,
                                           "threads": used, "commit": commit}
        assert "threads" not in manifest["params"]
    # a count that never loads numpy records null; the rerun ignores the key
    csv_path = tmp_path / "c.csv"
    proc = _fresh_python("-m", "horocount.cli", "count", "--n", "2", "--blocks", "1,1",
                         "--radius", "1", "--csv", str(csv_path))
    assert proc.returncode == 0, proc.stderr
    manifest_path = tmp_path / "c.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["environment"] == {"python": python, "numpy": None, "threads": 1,
                                       "commit": commit}
    first = csv_path.read_text().splitlines()
    assert cli.rerun_manifest(str(manifest_path)) == 0
    capsys.readouterr()
    rerun = csv_path.read_text().splitlines()
    assert rerun[1].split(",")[:-1] == first[1].split(",")[:-1]  # drop seconds
    # so does an N=3 count by both methods: the scan runs without numpy too
    proc = _fresh_python("-m", "horocount.cli", "count", "--n", "3", "--blocks", "1,2",
                         "--radius", "1", "--method", "both", "--csv", str(csv_path))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(manifest_path.read_text())
    assert manifest["environment"] == {"python": python, "numpy": None, "threads": 1,
                                       "commit": commit}


def test_git_commit(tmp_path):
    sha, other = "0123456789abcdef" * 2 + "01234567", "f" * 40
    git = tmp_path / ".git"
    assert cli._git_commit(str(tmp_path)) is None   # not a checkout
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text(sha + "\n")   # detached
    assert cli._git_commit(str(tmp_path)) == sha
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert cli._git_commit(str(tmp_path)) is None   # no such ref
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{other} refs/heads/old\n"
                                     f"{sha} refs/heads/main\n^{other}\n")
    assert cli._git_commit(str(tmp_path)) == sha
    (git / "refs" / "heads" / "main").write_text(other + "\n")   # the loose ref wins
    assert cli._git_commit(str(tmp_path)) == other
    for bad in ("not a sha\n", other.upper(), other[:39], b"\xff" * 40):
        path = git / "refs" / "heads" / "main"
        path.write_bytes(bad) if isinstance(bad, bytes) else path.write_text(bad)
        assert cli._git_commit(str(tmp_path)) is None, bad
    # this checkout, where git itself can say
    if os.path.isdir(os.path.join(_CHECKOUT, ".git")):
        try:
            head = subprocess.run(["git", "-C", _CHECKOUT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=60)
        except OSError:   # no git program
            head = None
        if head is not None and head.returncode == 0:
            assert cli._git_commit(_CHECKOUT) == head.stdout.strip()


def test_volume_grid(capsys):
    code, out, err = run(capsys, "volume", "--n", "2", "--blocks", "1,1",
                       "--radius", "3.0", "--grid", "0.01")
    assert code == 0
    value = float(out.split("estimate=")[1].split()[0])
    exact = math.sqrt(2) / 2 * (math.exp(math.sqrt(2) * 3.0) - 1)
    assert value == pytest.approx(exact, rel=1e-3)
    assert err == ""


def test_volume_grid_unconverged_warns(capsys):
    code, out, err = run(capsys, "volume", "--n", "3", "--blocks", "2,1",
                         "--radius", "6", "--grid", "100")
    assert code == 0
    assert out.startswith("region=b+ method=grid estimate=")
    assert "warning" in err


def test_exit_codes(capsys):
    assert run(capsys, "frobnicate")[0] == 64
    assert run(capsys, "constant", "--n", "3", "--blocks", "3")[0] == 2   # one block
    assert run(capsys, "constant", "--n", "3", "--blocks", "2,2")[0] == 2  # bad sizes
    assert run(capsys, "count", "--n", "2", "--blocks", "1,1")[0] == 2    # missing radius
    assert run(capsys)[0] == 2  # no subcommand prints help
    count = ("count", "--n", "2", "--blocks", "1,1", "--radius")
    assert run(capsys, *count, "nan")[0] == 2
    assert run(capsys, *count, "3", "--margin", "nan")[0] == 2
    assert run(capsys, *count, "3", "--margin", "-5")[0] == 2
    for budget in ("0", "-5"):  # ran out at depth 1 and exited 3
        assert run(capsys, *count, "3", "--max-states", budget)[0] == 2
    volume = ("volume", "--n", "2", "--blocks", "1,1", "--radius")
    for bad in (("nan",), ("inf",), ("3", "--region", "bc+", "--offset", "nan"),
                ("3", "--grid", "-0.1"), ("3", "--grid", "0"), ("3", "--mc", "0")):
        assert run(capsys, *volume, *bad)[0] == 2, bad
    # options that were ignored, giving another estimate with exit 0
    for bad in (("3", "--offset", "-1"), ("3", "--eps", "0.5"),
                ("3", "--region", "annulus", "--eps", "0.5", "--offset", "-1"),
                ("3", "--region", "bc+", "--offset", "-1", "--eps", "0.5")):
        assert run(capsys, *volume, *bad)[0] == 2, bad
    assert run(capsys, *count, "inf", "--method", "brute")[0] == 2
    # the scan's bound past the double range: was an OverflowError traceback
    n3 = ("count", "--n", "3", "--blocks", "1,1,1", "--radius")
    assert run(capsys, *n3, "1e6", "--method", "brute")[0] == 2
    # ... also with the walk first, which exited 3 on its state budget
    code, _, err = run(capsys, *n3, "1e6", "--method", "both", "--max-states", "20000")
    assert code == 2 and "past the double range" in err
    # a box past the state budget: numpy's "Maximum allowed size exceeded"
    # (exit 2) before, the scan's refusal now
    assert run(capsys, *count, "600", "--method", "brute")[0] == 3
    assert run(capsys, *count, "3", "--method", "brute", "--max-states", "0")[0] == 2
    # the scan stops at n = 3: rejected before the walk, which exhausted
    # its state budget first (exit 3) or walked for minutes
    n4 = ("count", "--n", "4", "--blocks", "2,2", "--radius", "1")
    for method in ("brute", "both"):
        assert run(capsys, *n4, "--method", method, "--max-states", "1")[0] == 2
    # results past the double range: were inf/nan with exit 0
    n5 = ("volume", "--n", "5", "--blocks", "1,1,1,1,1", "--radius")
    for bad in (n5 + ("120", "--mc", "1000"), n5 + ("112", "--mc", "1000"),
                volume + ("600", "--grid", "1")):
        assert run(capsys, *bad)[0] == 2, bad
    # Monte Carlo weights whose squares underflow: were an error of 0.0
    # (and at N = 3 an estimate of 0.0) with exit 0
    n3_volume = ("volume", "--n", "3", "--blocks", "2,1", "--radius")
    for bad in (volume + ("1e-300", "--mc", "100"), n3_volume + ("1e-200", "--mc", "1000")):
        code, _, err = run(capsys, *bad)
        assert code == 2 and "past the double range" in err, bad
    # constants past the double range: were c = 0.0 with exit 0 (N = 50, 60)
    # and an OverflowError traceback (N = 80)
    for n in (50, 60, 80):
        assert run(capsys, "constant", "--n", str(n), "--blocks", f"{n // 2},{n // 2}")[0] == 2
    code, out, _ = run(capsys, "constant", "--n", "40", "--blocks", "20,20")
    assert code == 0 and float(out.split("c = ")[1]) > 0


def test_exit_code_resource(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--blocks", "1,1",
                       "--radius", "4.0", "--max-states", "50")
    assert code == 3
    assert "resource" in err


@pytest.mark.parametrize("argv", [
    ("count", "--n", "2", "--blocks", "1,1", "--radius", "1", "--csv"),
    ("volume", "--n", "2", "--blocks", "1,1", "--radius", "1", "--grid", "0.1", "--csv"),
    ("constant", "--n", "2", "--blocks", "1,1", "--out"),
], ids=["count", "volume", "constant"])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # a file in a missing directory, and a directory in place of the file:
    # each was a traceback with exit 1
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2, path
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert str(path) in err


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_selftest_detects_fault(capsys, monkeypatch):
    # corrupt the volume table: the xi-identity check must fail
    import horocount.constants as C

    real = C.vol_so
    monkeypatch.setattr(C, "vol_so", lambda n: real(n) * (1.0 + 1e-6))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL" in out


def test_threads_env_validated(capsys, monkeypatch):
    # 0 and -3 ran one thread with exit 0; "abc" exited 2 with a bare
    # "invalid literal for int()"
    volume = ("volume", "--n", "2", "--blocks", "1,1", "--radius", "1", "--mc", "10")
    for bad in ("0", "-3", "abc", "1.5"):
        monkeypatch.setenv("HOROCOUNT_THREADS", bad)
        code, _, err = run(capsys, *volume)
        assert code == 2, bad
        assert "HOROCOUNT_THREADS" in err and repr(bad) in err
    monkeypatch.setenv("HOROCOUNT_THREADS", "1")
    assert run(capsys, *volume)[0] == 0


def test_threads_env(monkeypatch):
    # capped at the CPUs this process may run on: 4000 would have asked the
    # pool of a 10^9-sample run for 4000 threads (none is started here)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    for env, expected in (("3", 3), ("6", 6), ("7", 6), ("4000", 6)):
        monkeypatch.setenv("HOROCOUNT_THREADS", env)
        assert cli._threads() == expected, env


def test_threads_follow_cpu_affinity(monkeypatch):
    # the default was os.cpu_count(): 2 threads under `taskset -c 0` on a 2-CPU machine
    monkeypatch.delenv("HOROCOUNT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert cli._threads() == 1
    monkeypatch.setenv("HOROCOUNT_THREADS", "2")
    assert cli._threads() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._threads() == 2
    monkeypatch.delenv("HOROCOUNT_THREADS")
    assert cli._threads() == 8


def test_grid_node_cap_exits_2(capsys):
    # a 2e12-node first grid was built before any check
    code, _, err = run(capsys, "volume", "--n", "2", "--blocks", "1,1", "--radius", "1",
                       "--grid", "1e-12")
    assert code == 2
    assert "4194304 nodes" in err
