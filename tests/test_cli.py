"""End-to-end command line runs against temp directories.

Heavy invocations stay at reduced grid sizes except `verify`, which pins
its own workspace size by design and is exercised once per outcome.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from slwave import cli, model, verify
from slwave.analytic import Const, parse_expression
from slwave.cli import load_config, main
from slwave.errors import ConfigurationError, NumericalError, VerificationFailure
from slwave.grid import build_grid, json_text
from slwave.sturm import kernel_basis, potential
from slwave.verify import CHECK_NAMES, CheckResult, VerificationReport

LAMBDA1_COSINE = 11.922697949810356


def ini(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


COSINE_SMALL = """
    [problem]
    potential = 2 + cos(3)

    [numerics]
    grid_n = 400
    modes = 5
"""


def test_defaults_without_config():
    cfg = load_config(None)
    assert cfg.grid_n == 2000 and cfg.modes == 200
    assert cfg.potential_expr == "const(0)"
    assert cfg.fmt == "csv" and cfg.seed == 0


def test_config_sections_routed(tmp_path):
    path = ini(tmp_path / "run.ini", """
        [problem]
        l = 2.0
        potential = 1 + sin(2)

        [numerics]
        grid_n = 800
        modes = 40
        horizon = 0.7
        cfl = 0.4
        fdtd = off
        seed = 3

        [gauge]
        e = 1, 0, -1, 0
        e1 = 1, 0.5, 0, 0
        e2 = 0, 0, 1, 0

        [controls]
        f0 = bump(0.2, 0.1, 1.0, 6)
        fl = const(0)
        times = 0.2, 0.5

        [tolerances]
        fdtd = 5e-4
    """)
    cfg = load_config(path, seed=7)
    assert cfg.l == 2.0 and cfg.grid_n == 800 and cfg.modes == 40
    assert cfg.run_fdtd is False
    assert cfg.seed == 7                      # flag wins over [numerics] seed
    assert cfg.gauge_e == (1 + 0j, -1 + 0j)
    assert cfg.gauge_e1 == (1 + 0.5j, 0j)
    assert cfg.times == (0.2, 0.5)
    assert cfg.fdtd_tol == 5e-4
    assert cfg.support_tol == 1e-6            # absent key keeps its default


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.ini"))
    bad_pair = ini(tmp_path / "pair.ini", "[gauge]\ne = 1, 2, 3\n")
    with pytest.raises(ConfigurationError, match=r"bad value for \[gauge\] e:"):
        load_config(bad_pair)
    bad_tol = ini(tmp_path / "tol.ini", "[tolerances]\nfdtd = 1e-20\n")
    with pytest.raises(ConfigurationError):
        load_config(bad_tol)
    neg_time = ini(tmp_path / "t.ini", "[controls]\ntimes = -0.1\n")
    with pytest.raises(ConfigurationError):
        load_config(neg_time)
    with pytest.raises(ConfigurationError):
        load_config(None, fmt="yaml")


@pytest.mark.parametrize("value, reason", [
    ("1, 2, 3", "gauge element needs four numbers: re(c0), im(c0), re(cl), im(cl)"),
    ("1, 2, x, 4", "bad gauge coefficients '1, 2, x, 4'"),
    ("1, 2, inf, 4", "gauge coefficients '1, 2, inf, 4' must be finite")],
    ids=["three-numbers", "not-a-number", "infinite"])
def test_exit_2_says_why_a_gauge_element_is_bad(tmp_path, capsys, value, reason):
    """The gauge parser's own message reaches stderr after the key it
    refuses; the run exits 2 before any output."""
    path = ini(tmp_path / "pair.ini", f"[numerics]\ngrid_n = 400\n[gauge]\ne = {value}\n")
    out = tmp_path / "out"
    assert main(["model", "--config", path, "--out", str(out)]) == 2
    assert f"bad value for [gauge] e: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, line", [
    ("controls", "times = nan"), ("controls", "times = inf"),
    ("controls", "times = 0.1, -inf"), ("numerics", "horizon = inf"),
    ("numerics", "cfl = nan"), ("numerics", "shoot_tol = inf"),
    ("problem", "l = inf"), ("tolerances", "fdtd = inf"),
    ("tolerances", "support = nan")])
def test_exit_2_non_finite_value(tmp_path, capsys, section, line):
    sections = {"numerics": ["grid_n = 200", "modes = 10"]}
    sections.setdefault(section, []).append(line)
    path = ini(tmp_path / "nf.ini", "".join(
        f"[{name}]\n" + "".join(f"{key}\n" for key in keys)
        for name, keys in sections.items()))
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("body, named", [
    ("[numerics]\ngrid = 400\n", "[numerics] grid"),
    ("[problem]\npotental = 2 + cos(3)\n", "[problem] potental"),
    ("[tolerances]\nfdtdd = 1e-9\n", "[tolerances] fdtdd"),
    ("[gauge]\ngauge = custom\n", "[gauge] gauge"),
    ("[numerics]\ngrid_n = 400\n[extra]\n", "[extra]"),
    ("[DEFAULT]\ngrid_n = 400\n", "[DEFAULT]")])
def test_exit_2_unknown_config_key(tmp_path, capsys, body, named):
    """A misspelled key or a stray section is refused, never run on a default."""
    path = ini(tmp_path / "typo.ini", body)
    out = tmp_path / "out"
    assert main(["eigs", "--config", path, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", ["grid_n = 400\n",
                                  "[numerics]\ngrid_n = 400\ngrid_n = 800\n",
                                  "[problem]\npotential = 2 + 5%\n",
                                  b"[problem]\npotential = \xff\n"])
def test_exit_2_unparsable_config(tmp_path, capsys, body):
    """A file configparser cannot read (no section header, a repeated key,
    a bare % interpolation, bytes that are not text) is a configuration
    error, not a traceback."""
    path = tmp_path / "bad.ini"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        ini(path, body)
    out = tmp_path / "out"
    assert main(["eigs", "--config", str(path), "--out", str(out)]) == 2
    assert "cannot parse config file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, line", [
    ("eigs", "problem", "potential = 1 + bump(0.5, 0.4, 1, 20)"),
    ("eigs", "problem", "potential = 1 + bump(0.5, 0.4, 1, 1000)"),
    ("eigs", "problem", "potential = 1 + bump(0.5, 0.4, 1, 2.5)"),
    ("simulate", "controls", "f0 = nan*bump(0.1, 0.1, 1, 6)"),
    ("simulate", "controls", "f0 = bump(0.1, 0.1, 1, 300)"),
    ("model", "gauge", "e = nan, 0, 1, 0"),
    ("eigs", "problem", "potential = 2 + cos(inf)"),
    ("eigs", "controls", "f0 = tanh(3)"),
    ("model", "controls", "fl = tanh(3)"),
    ("simulate", "controls", "f0 = tanh(3)"),
], ids=["smoothness 20", "smoothness 1000", "smoothness 2.5", "nan coefficient",
        "smoothness 300", "nan gauge", "cos(inf)", "eigs control", "model control",
        "simulate control"])
def test_exit_2_bad_number(tmp_path, capsys, command, section, line):
    """A non-finite number, a bump smoothness outside the integers 2..10,
    or a control expression that does not parse (even for a command that
    never reads the controls) exits 2 with one message line and writes
    nothing (warnings are errors under pytest, so none was raised either)."""
    path = ini(tmp_path / "bad.ini",
               f"[numerics]\ngrid_n = 400\nmodes = 5\n[{section}]\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_boolean_words(tmp_path, capsys):
    for word, want in (("On", True), ("YES", True), ("1", True), ("true", True),
                       ("off", False), ("No", False), ("0", False), ("FALSE", False)):
        path = ini(tmp_path / "b.ini", f"[numerics]\nfdtd = {word}\n")
        assert load_config(path).run_fdtd is want
    path = ini(tmp_path / "typo.ini", """
        [numerics]
        grid_n = 200
        modes = 10
        horizon = 0.2
        fdtd = ture
    """)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    capsys.readouterr()
    assert not out.exists()


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    capsys.readouterr()


def test_exit_2_unparseable_potential(tmp_path):
    path = ini(tmp_path / "bad.ini", "[problem]\npotential = tanh(3)\n")
    assert main(["eigs", "--config", path, "--out", str(tmp_path)]) == 2


def test_cli_import_leaves_numpy_polynomial_unloaded(tmp_path):
    """numpy.polynomial and its eight submodules are not part of a CLI
    process's start-up, and `model`, analytic `recover` and table
    `recover` runs never load the verification suite or the atom
    geometry."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    cfg = ini(tmp_path / "p.ini", "[numerics]\ngrid_n = 200\nmodes = 10\n")
    table = ini(tmp_path / "t.ini", f"""
        [problem]
        coefficients = {tmp_path / "m" / "model.csv"}

        [numerics]
        grid_n = 200
        modes = 10
    """)
    code = textwrap.dedent(f"""
        import sys, slwave.cli
        print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))
        for argv in (["model", "--config", {cfg!r}, "--out", {str(tmp_path / "m")!r}],
                     ["recover", "--config", {cfg!r}, "--out", {str(tmp_path / "a")!r}],
                     ["recover", "--config", {table!r}, "--out", {str(tmp_path / "t")!r}]):
            assert slwave.cli.main(argv) == 0, argv
        print(sorted(m for m in ("slwave.verify", "slwave.geometry") if m in sys.modules))
    """)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[0] == "[]"
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "a" / "recovery.csv").exists()
    assert (tmp_path / "t" / "recovery.csv").exists()


def test_exit_3_inadmissible_potential(tmp_path):
    path = ini(tmp_path / "low.ini", """
        [problem]
        potential = const(-15)

        [numerics]
        grid_n = 200
        modes = 3
    """)
    assert main(["eigs", "--config", path, "--out", str(tmp_path)]) == 3


def test_eigs_overflowing_potential_exits_3_with_one_line(tmp_path):
    """A potential that overflows the shooting solver exits 3, and stderr
    is the one `numerical failure:` line, with no numpy warning before it."""
    path = ini(tmp_path / "big.ini", """
        [problem]
        potential = 1e200*cos(3)

        [numerics]
        grid_n = 400
        modes = 5
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c",
                          "import sys, slwave.cli; sys.exit(slwave.cli.main(sys.argv[1:]))",
                          "eigs", "--config", path, "--out", str(tmp_path / "e")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 3
    assert run.stderr == ("numerical failure: Cauchy integration blew up; "
                          "refine the grid or check q and lam\n")
    assert not (tmp_path / "e").exists()


def test_exit_2_unstable_cfl(tmp_path):
    path = ini(tmp_path / "cfl.ini", """
        [numerics]
        grid_n = 200
        modes = 10
        horizon = 0.2
        cfl = 1.2
    """)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("q, grid_n, stable", [("-4e5", 400, "0.8944"),
                                               ("-2e5", 200, "0.6324")])
def test_unstable_leapfrog_exits_2_before_any_output(tmp_path, capsys, q, grid_n, stable):
    """A default-cfl leapfrog past the bound 1 + dt^2 min(q)/2 > 0 (-0.25
    and -1.5 here) exits 2 before the eigensolve, naming the largest
    stable cfl, and writes nothing."""
    path = ini(tmp_path / "q.ini", f"""
        [problem]
        potential = const({q})

        [numerics]
        grid_n = {grid_n}
        modes = 5
        horizon = 1.0
    """)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert f"largest stable cfl is {stable}" in capsys.readouterr().err
    assert not out.exists()


def test_large_positive_potential_passes_the_leapfrog_check(tmp_path, capsys):
    """const(4e4) at grid 200 has dt^2 q / 2 = 0.5 at the default cfl: the
    leapfrog runs (it exited 2 when the bound was r2 + dt^2 max(q, 0)/4
    <= 1) and the report holds a finite, bounded fdtd_l2."""
    path = ini(tmp_path / "q.ini", """
        [problem]
        potential = const(4e4)

        [numerics]
        grid_n = 200
        modes = 5
        horizon = 1.0
    """)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) in (0, 4)
    assert "leapfrog" not in capsys.readouterr().err
    rep = json.loads((out / "simulate_report.json").read_text())
    assert 0.0 <= rep["fdtd_l2"] <= 0.01


@pytest.mark.parametrize("command", ["eigs", "simulate", "model", "recover", "table"])
def test_each_expression_is_parsed_once(tmp_path, capsys, monkeypatch, command):
    """The config parses the potential and both controls once; every
    command reads those forms instead of parsing again.  simulate runs at
    the default grid and mode count, where its support and FDTD checks
    pass (at five modes they fail, and it exits 4)."""
    body = COSINE_SMALL + "    horizon = 0.2\n"
    if command == "simulate":
        body = body.replace("    grid_n = 400\n    modes = 5\n", "")
    path = ini(tmp_path / "c.ini", body)
    if command == "table":
        assert main(["model", "--config", path, "--out", str(tmp_path / "m")]) == 0
        path = ini(tmp_path / "t.ini", COSINE_SMALL.replace(
            "[problem]", f"[problem]\n    coefficients = {tmp_path / 'm' / 'model.csv'}"))
        command = "recover"
    calls = []

    def counting(text):
        calls.append(text)
        return parse_expression(text)

    monkeypatch.setattr(cli, "parse_expression", counting)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted(["2 + cos(3)", "bump(0.06, 0.1, 1.0, 6)", "const(0)"])


def test_eigs_artifacts_and_determinism(tmp_path, capsys):
    path = ini(tmp_path / "c.ini", COSINE_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["eigs", "--config", path, "--out", str(out1)]) == 0
    assert main(["eigs", "--config", path, "--out", str(out2)]) == 0
    # every path, in mode order, though the eigenfunction files are written together
    names = ["eigenvalues.csv", "eigs_summary.json",
             *(f"eigenfunction_{k:04d}.csv" for k in range(1, 6))]
    assert capsys.readouterr().out == "".join(f"{d / n}\n" for d in (out1, out2) for n in names)

    lines = (out1 / "eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0] == "n,lambda"
    lam1 = float(lines[1].split(",")[1])
    assert abs(lam1 - LAMBDA1_COSINE) / LAMBDA1_COSINE <= 1e-5

    summary = json.loads((out1 / "eigs_summary.json").read_text())
    assert summary["count"] == 5
    assert summary["kappa"] == pytest.approx(lam1)
    for k in range(1, 6):
        assert (out1 / f"eigenfunction_{k:04d}.csv").exists()

    for name in ("eigenvalues.csv", "eigs_summary.json", "eigenfunction_0003.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_eigs_json_format(tmp_path, capsys):
    path = ini(tmp_path / "c.ini", COSINE_SMALL)
    out = tmp_path / "j"
    assert main(["eigs", "--config", path, "--out", str(out), "--format", "json"]) == 0
    capsys.readouterr()
    assert not list(out.glob("*.csv"))
    table = json.loads((out / "eigenfunction_0001.json").read_text())
    assert table["columns"] == ["x", "re", "im"]
    assert len(table["rows"]) == 401
    vals = np.array(table["rows"], dtype=float)
    # ground state of a positive operator can be taken positive inside
    assert abs(vals[:, 2]).max() == 0.0
    body = vals[5:-5, 1]
    assert (body > 0).all() or (body < 0).all()


def test_simulate_report(tmp_path, capsys):
    path = ini(tmp_path / "s.ini", """
        [problem]
        potential = 2 + cos(3)

        [numerics]
        grid_n = 400
        modes = 60
        horizon = 0.3

        [controls]
        f0 = bump(0.15, 0.2, 1.0, 6)

        [tolerances]
        support = 1e-3
    """)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads((out / "simulate_report.json").read_text())
    assert rep["times"] == [0.3]
    assert rep["fdtd_l2"] <= 1e-3 and rep["fdtd_passed"]
    assert rep["support"][0]["passed"]
    wf = (out / "wavefield.csv").read_text().strip().splitlines()
    assert wf[0].split(",")[0] == "t" and len(wf) == 1 + 401


MIXED_CONTROLS = """
    [numerics]
    grid_n = 400
    modes = 50

    [controls]
    f0 = 0.5*ramp(0.05, 0.2) - 0.3*bump(0.1, 0.1, 1, 6) + poly(0, 0, 0, 0.1)
    fl = 2*bump(0.12, 0.1, -0.4, 6) - 0.25*ramp(0.1, 0.3)
    times = 0.2, 0.45

    [tolerances]
    support = 1e-5
"""


def test_simulate_failed_checks_exit_4_after_writing(tmp_path, capsys):
    """Mixed-form controls at 50 modes on grid 400 miss the FDTD tolerance
    by more than 2x (fdtd_l2 3.8e-3; the 60-mode wave reads 7.3e-4 and
    passes) and the support check at t = 0.2: both artefacts are written,
    the report says which checks failed, and the exit code is 4 as for
    verify."""
    out = tmp_path / "mixed"
    assert main(["simulate", "--config", ini(tmp_path / "m.ini", MIXED_CONTROLS),
                 "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "verification failure" in err and "support at t=0.2" in err and "fdtd_l2" in err
    rep = json.loads((out / "simulate_report.json").read_text())
    assert rep["fdtd_passed"] is False and rep["fdtd_l2"] >= 2.0 * rep["fdtd_tol"]
    assert [s["passed"] for s in rep["support"]] == [False, True]
    assert len((out / "wavefield.csv").read_text().splitlines()) == 1 + 2 * 401


def test_simulate_default_config_exits_0(tmp_path, capsys):
    out = tmp_path / "default"
    assert main(["simulate", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rep = json.loads((out / "simulate_report.json").read_text())
    assert rep["fdtd_passed"] and all(s["passed"] for s in rep["support"])


def test_simulate_json_wavefield(tmp_path, capsys):
    path = ini(tmp_path / "s.ini", """
        [numerics]
        grid_n = 400
        modes = 60
        horizon = 0.2
        fdtd = off

        [controls]
        f0 = bump(0.12, 0.2, 1.0, 6)
    """)
    out = tmp_path / "simj"
    assert main(["simulate", "--config", path, "--out", str(out),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert not list(out.glob("*.csv"))
    table = json.loads((out / "wavefield.json").read_text())
    assert table["columns"] == ["t", "x", "re", "im"]
    assert len(table["rows"]) == 401


def test_wavefield_streams_one_block_per_snapshot(tmp_path, capsys):
    """One block of grid rows per snapshot time, in the configured order;
    CSV and JSON hold the same floats, the rows of one-time runs agree to
    1e-13 of sup|u|, and the waves are real: every im cell is exactly 0
    (CSV) and 0.0 (JSON)."""
    def run(name, times, fmt="csv"):
        path = ini(tmp_path / f"{name}.ini", f"""
            [numerics]
            grid_n = 400
            modes = 60
            fdtd = off

            [controls]
            f0 = bump(0.12, 0.2, 1.0, 6)
            times = {times}
        """)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / name),
                     "--format", fmt]) == 0
        return tmp_path / name / f"wavefield.{fmt}"

    lines = run("csv", "0.2, 0.45, 0.3").read_text().splitlines()
    text = run("json", "0.2, 0.45, 0.3", "json").read_text()
    single = np.concatenate([np.loadtxt(run(f"one{i}", t), delimiter=",", skiprows=1)
                             for i, t in enumerate((0.2, 0.45, 0.3))])
    capsys.readouterr()
    assert len(lines) == 1 + 3 * 401
    assert all(line.endswith(",0") for line in lines[1:])
    assert text.count("\n      0.0\n    ]") == 3 * 401
    csv = np.loadtxt(lines[1:], delimiter=",")
    rows = np.array(json.loads(text)["rows"])
    x = build_grid(1.0, 400).x
    assert np.array_equal(csv[:, 0], np.repeat([0.2, 0.45, 0.3], x.size))
    assert np.array_equal(csv[:, 1], np.tile(x, 3))
    assert np.array_equal(rows.view(np.int64), csv.view(np.int64))
    assert np.array_equal(csv[:, [0, 1, 3]], single[:, [0, 1, 3]])
    assert np.max(np.abs(csv[:, 2] - single[:, 2])) <= 1e-13 * np.max(np.abs(single[:, 2]))


def test_model_tables(tmp_path, capsys):
    path = ini(tmp_path / "m.ini", """
        [problem]
        potential = 2 + cos(3)

        [numerics]
        grid_n = 400
    """)
    out = tmp_path / "model"
    assert main(["model", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()

    lines = (out / "gauge.csv").read_text().strip().splitlines()
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    T = (data[:, 1:9:2] + 1j * data[:, 2:9:2]).reshape(-1, 2, 2)
    G = (data[:, 9:17:2] + 1j * data[:, 10:17:2]).reshape(-1, 2, 2)
    rho = data[:, 17]
    resid = G - rho[:, None, None] * (T @ np.conj(np.swapaxes(T, 1, 2)))
    assert np.max(np.abs(resid)) <= 1e-12

    mlines = (out / "model.csv").read_text().strip().splitlines()
    xs = np.array([float(ln.split(",")[0]) for ln in mlines[1:]])
    h = 1.0 / 400
    # guard band near l/2 must be absent from the table
    assert xs.max() <= 0.5 - 3 * h + 1e-12
    assert xs.min() == 0.0


def test_recover_analytic(tmp_path, capsys):
    path = ini(tmp_path / "r.ini", """
        [problem]
        potential = 2 + cos(3)

        [numerics]
        grid_n = 400
    """)
    out = tmp_path / "rec"
    assert main(["recover", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads((out / "recovery_report.json").read_text())
    assert set(rep) == {"max_imaginary_part", "reflection_note", "truth_error"}
    assert rep["truth_error"] <= 1e-6
    assert rep["max_imaginary_part"] <= 1e-8
    assert "reflection" in rep["reflection_note"]
    lines = (out / "recovery.csv").read_text().strip().splitlines()
    assert lines[0] == "x,q1,q2,collision"


def test_recover_from_model_table(tmp_path, capsys):
    base = ini(tmp_path / "m.ini", """
        [problem]
        potential = 2 + cos(3)

        [numerics]
        grid_n = 600
    """)
    out = tmp_path / "chain"
    assert main(["model", "--config", base, "--out", str(out)]) == 0
    follow = ini(tmp_path / "r.ini", f"""
        [problem]
        potential = 2 + cos(3)
        coefficients = {out / 'model.csv'}

        [numerics]
        grid_n = 600
    """)
    assert main(["recover", "--config", follow, "--out", str(out)]) == 0
    capsys.readouterr()
    rep = json.loads((out / "recovery_report.json").read_text())
    assert set(rep) == {"max_imaginary_part", "reflection_note"}   # observer runs blind
    x, q1, q2, _ = np.loadtxt(out / "recovery.csv", delimiter=",", skiprows=1, unpack=True)
    qx, qr = 2 + np.cos(3 * x), 2 + np.cos(3 * (1 - x))
    direct = np.maximum(np.abs(q1 - qx), np.abs(q2 - qr))
    flipped = np.maximum(np.abs(q1 - qr), np.abs(q2 - qx))
    assert float(np.max(np.minimum(direct, flipped))) <= 1e-4


@pytest.mark.parametrize("problem, numerics", [("l = 1.2", "grid_n = 600"),
                                               ("l = 1.0", "grid_n = 1200"),
                                               ("l = 2.0", "grid_n = 1200")])
def test_recover_rejects_table_of_another_grid(tmp_path, capsys, problem, numerics):
    """A table written at l = 1, n = 600 puts the pole of the model at 0.5;
    recovering it under another l or grid_n would place it wrongly."""
    out = tmp_path / "chain"
    base = ini(tmp_path / "m.ini", """
        [problem]
        potential = 2 + cos(3)

        [numerics]
        grid_n = 600
    """)
    assert main(["model", "--config", base, "--out", str(out)]) == 0
    follow = ini(tmp_path / "r.ini", f"""
        [problem]
        potential = 2 + cos(3)
        coefficients = {out / 'model.csv'}
        {problem}

        [numerics]
        {numerics}
    """)
    assert main(["recover", "--config", follow, "--out", str(out)]) == 2
    assert "row spacing" in capsys.readouterr().err
    assert not (out / "recovery.csv").exists()


def test_recover_rejects_ragged_table(tmp_path, capsys):
    out = tmp_path / "chain"
    base = ini(tmp_path / "m.ini", COSINE_SMALL)
    assert main(["model", "--config", base, "--out", str(out)]) == 0
    table = out / "model.csv"
    lines = table.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    table.write_text("\n".join(lines) + "\n")
    follow = ini(tmp_path / "r.ini", f"[problem]\ncoefficients = {table}\n"
                 "[numerics]\ngrid_n = 400\n")
    assert main(["recover", "--config", follow, "--out", str(out)]) == 2
    assert "ragged or non-numeric" in capsys.readouterr().err


def _edit_model_table(tmp_path, edit):
    """A model table of the COSINE_SMALL problem, its lines passed through
    edit, and the config that recovers from it."""
    out = tmp_path / "chain"
    assert main(["model", "--config", ini(tmp_path / "m.ini", COSINE_SMALL),
                 "--out", str(out)]) == 0
    table = out / "model.csv"
    table.write_text("\n".join(edit(table.read_text().splitlines())) + "\n")
    return ini(tmp_path / "r.ini", f"[problem]\ncoefficients = {table}\n"
               "[numerics]\ngrid_n = 400\n"), out


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:5] + [lines[5].replace(",", ",x", 1)] + lines[6:],
    lambda lines: lines[:5] + [lines[5] + "#"] + lines[6:],
    lambda lines: lines[:5] + [""] + lines[5:],
], ids=["non_numeric_cell", "comment_mark", "blank_line"])
def test_recover_rejects_non_numeric_table(tmp_path, capsys, edit):
    follow, out = _edit_model_table(tmp_path, edit)
    assert main(["recover", "--config", follow, "--out", str(out)]) == 2
    assert "ragged or non-numeric" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda lines: [line.rsplit(",", 1)[0] for line in lines],
    lambda lines: lines[:1],
], ids=["sixteen_columns", "no_rows"])
def test_recover_rejects_wrong_column_count(tmp_path, capsys, edit):
    follow, out = _edit_model_table(tmp_path, edit)
    assert main(["recover", "--config", follow, "--out", str(out)]) == 2
    assert "wrong column count" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_recover_rejects_non_finite_table(tmp_path, capsys, cell):
    """np.loadtxt parses nan and infinities; such a table is refused, with
    exit 2 and one line naming it, before any artefact is written."""
    def edit(lines):
        cells = lines[5].split(",")
        cells[3] = cell
        return lines[:5] + [",".join(cells)] + lines[6:]
    follow, out = _edit_model_table(tmp_path, edit)
    assert main(["recover", "--config", follow, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {out / 'model.csv'} has non-finite values\n"
    assert not (out / "recovery.csv").exists()


def _bad_table(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "absent.csv"
    if kind == "directory":
        return tmp_path
    table = tmp_path / "latin1.csv"
    table.write_bytes("x,re(P11)\n0.5,\xe9\n".encode("latin-1"))
    return table


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_recover_unreadable_table_exits_2(tmp_path, capsys, kind):
    follow = ini(tmp_path / "r.ini", f"[problem]\ncoefficients = {_bad_table(tmp_path, kind)}\n"
                 "[numerics]\ngrid_n = 400\n")
    assert main(["recover", "--config", follow, "--out", str(tmp_path / "o")]) == 2
    assert "cannot read coefficient table" in capsys.readouterr().err
    assert not (tmp_path / "o" / "recovery.csv").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    path = ini(tmp_path / "c.ini", COSINE_SMALL)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert main(["eigs", "--config", path, "--out", str(taken)]) == 2
    assert "cannot use output directory" in capsys.readouterr().err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("taken", ["recovery.csv", "recovery_report.json",
                                   "eigenfunction_0002.csv"])
def test_artefact_path_that_cannot_be_opened_exits_2(tmp_path, capsys, taken):
    """An artefact path that is a directory, for a CSV table, a JSON
    report or one of the eigenfunction files `eigs` writes together, is a
    configuration error (exit 2 and one message line), not a traceback."""
    out = tmp_path / "o"
    (out / taken).mkdir(parents=True)
    path = ini(tmp_path / "c.ini", COSINE_SMALL)
    command = "eigs" if taken.startswith("eigenfunction") else "recover"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot use output directory")
    assert captured.err.count("\n") == 1
    assert (out / taken).is_dir()


def test_json_table_with_nan_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch):
    path = ini(tmp_path / "c.ini", COSINE_SMALL)
    monkeypatch.setattr(cli, "check_lower_bound", lambda es: 0.0)
    real = cli.dirichlet_eigensystem

    def poisoned(q, modes, **kw):
        es = real(q, modes, **kw)
        return dataclasses.replace(es, lam=np.append(es.lam[:-1], np.nan))
    monkeypatch.setattr(cli, "dirichlet_eigensystem", poisoned)
    out = tmp_path / "j"
    assert main(["eigs", "--config", path, "--out", str(out), "--format", "json"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not list(out.glob("*"))


def _oracle_csv(text: str) -> str:
    """The table's own values reloaded and re-formatted one by one."""
    lines = text.split("\n")
    rows = [",".join("%.17g" % float(v) for v in ln.split(",")) for ln in lines[1:-1]]
    return "\n".join([lines[0], *rows]) + "\n"


def test_artefacts_are_canonical(tmp_path, capsys):
    """Every artefact reads back to its own bytes: a CSV table under a
    per-value %.17g oracle, a JSON file under json.dumps of what it loads.
    The CSV and JSON tables hold the same floats, bit for bit.  At four
    modes simulate fails its support check and exits 4, after writing
    both artefacts."""
    problem = "[problem]\npotential = 2 + cos(3)\n"
    rest = ("[numerics]\ngrid_n = 200\nmodes = 4\nfdtd = off\n"
            "[controls]\ntimes = 0.2, 0.45, 0.25, 0.5\n")
    path = ini(tmp_path / "c.ini", problem + rest)
    table = tmp_path / "csv" / "model" / "model.csv"
    follow = ini(tmp_path / "r.ini", problem + f"coefficients = {table}\n" + rest)
    runs = [(c, path, c) for c in ("eigs", "simulate", "model", "recover")]
    runs.append(("recover", follow, "table"))
    for fmt in ("csv", "json"):
        for cmd, config, sub in runs:
            assert main([cmd, "--config", config, "--out", str(tmp_path / fmt / sub),
                         "--format", fmt]) == (4 if cmd == "simulate" else 0)
    capsys.readouterr()
    files = sorted((tmp_path / "csv").rglob("*.*"))
    assert len(files) == 14
    for f in files + sorted((tmp_path / "json").rglob("*.*")):
        text = f.read_text()
        if f.suffix == ".csv":
            canonical = text == _oracle_csv(text)    # no string diff on failure
            assert canonical, f
            twin = json.loads((tmp_path / "json" / f.relative_to(tmp_path / "csv"))
                              .with_suffix(".json").read_text())
            csv_vals = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
            assert twin["columns"] == text.split("\n", 1)[0].split(",")
            assert np.array_equal(np.array(twin["rows"]).view(np.int64),
                                  csv_vals.view(np.int64)), f
        else:
            canonical = text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert canonical, f


# SHA-256 of the gauge, model and recovery artefacts of q = 2 + x - x^2 on
# 200 cells: analytic recover and recover from the written model.csv
# ("table"), in both formats; under bump/ the same for q plus a
# smoothness-6 bump of amplitude 0.4 on [0.2, 0.4]
PINNED_DIGESTS = {
    "csv/model/gauge.csv": "d642c8c9a50345d3bc18ccf028ba6a4491d82beb6dac6d8c3500c64bca9e0f27",
    "csv/model/model.csv": "e80cae6c19ce5afcc7112ccbbae5e9a82b59b9710d61d6d2673e4f596a305244",
    "csv/recover/recovery.csv": "3f097a90da5e170ee4d83d6047112614744528fe3489f76235ab02dd126cf5e6",
    "csv/recover/recovery_report.json":
        "712e0056c36e58775751d1bf8d7c82923a659e8c6c43a66ae59d38d7e59bf92c",
    "csv/table/recovery.csv": "4853c9117f650203cf958a7056f06bc513c5f663e234fa7164bf832cc092deb8",
    "csv/table/recovery_report.json":
        "f1ec8c7a993e04cb6b939ddc432fa70e94a0f0e97b115e255ab6d3dffd7ede5c",
    "json/model/gauge.json": "46222cf2ae3e39dada6956b2ecd88a2072555db44298d7956e5d320ea677da22",
    "json/model/model.json": "00fb3927300865f390daaa9058e96588377a5836fa0a833d2f49546c027f7340",
    "json/recover/recovery.json": "bf2e14b6da1c2e45205d3f275d9481f8cefa3d5097074026c8333825326d8571",
    "json/recover/recovery_report.json":
        "712e0056c36e58775751d1bf8d7c82923a659e8c6c43a66ae59d38d7e59bf92c",
    "json/table/recovery.json": "ab1c635e82956eb1fd28ec89627a575ecdf311d8bdc71f74fab3871d5dfd037b",
    "json/table/recovery_report.json":
        "f1ec8c7a993e04cb6b939ddc432fa70e94a0f0e97b115e255ab6d3dffd7ede5c",
    "bump/csv/model/gauge.csv": "604db4f2768ece3d6e39c7d5ad690c889b64f9f2155b4dbbdcec3d3407c2e4a0",
    "bump/csv/model/model.csv":
        "da6e8c8b3a362af5821994ec5aa1665b16127bc1d9632dc2e49d8575cc5f346a",
    "bump/csv/recover/recovery.csv":
        "e6b12ba4bf6132fc109cf0af79422a6110e1d9147bc3c99821fb5e49705822dd",
    "bump/csv/recover/recovery_report.json":
        "45d47ff679543dcbf4ce4eeaa6c97f2a8b2e698a03371d83e2afeb1f566a707f",
    "bump/csv/table/recovery.csv":
        "15a604d8868435d076e19f1177033e50fe7415b71e6c43b8b5c0e7167973d310",
    "bump/csv/table/recovery_report.json":
        "064ba1f2df3f46e16a61c9acb22b90929d271bb4c6cfb46f6617f9802d17e61a",
    "bump/json/model/gauge.json":
        "d3297473adb98ec8a9f14301f98a88ed4f25756c3514dd458f4dcf6257db6276",
    "bump/json/model/model.json":
        "58e783d162029558c100a6cad5a9ea7cff83cc31ce818621ceb6c5dec2129485",
    "bump/json/recover/recovery.json":
        "39fb7e32a0476daf7fa8a703d11c2b8b531c25f04fda86e0fd862ea9ba24ae8c",
    "bump/json/recover/recovery_report.json":
        "45d47ff679543dcbf4ce4eeaa6c97f2a8b2e698a03371d83e2afeb1f566a707f",
    "bump/json/table/recovery.json":
        "0cc44c15f10fe0d15d023d7a6ff3ae4490c0ae796f4011ba02d0316439d728fb",
    "bump/json/table/recovery_report.json":
        "064ba1f2df3f46e16a61c9acb22b90929d271bb4c6cfb46f6617f9802d17e61a",
}


def test_model_recover_bytes_are_pinned(tmp_path, capsys):
    """The model and recover artefacts, byte for byte, for a polynomial
    potential and (under bump/) the same with a smoothness-6 bump added.
    No BLAS call enters them: longdouble products never reach BLAS, and
    the double-precision 2x2 products and difference stencils of table
    recover are elementwise numpy loops.  The potential needs no libm
    function.  So the digests do not depend on the BLAS kernel or thread
    count (test_table_recover_bytes_do_not_depend_on_blas), given 80-bit
    longdouble."""
    for case, q in (("", "2 + poly(0, 1, -1)"),
                    ("bump/", "2 + poly(0, 1, -1) + 0.4*bump(0.3, 0.2, 1.0, 6)")):
        base = tmp_path / case
        base.mkdir(exist_ok=True)
        problem = f"[problem]\npotential = {q}\n"
        numerics = "[numerics]\ngrid_n = 200\n"
        path = ini(base / "c.ini", problem + numerics)
        table = base / "csv" / "model" / "model.csv"
        follow = ini(base / "t.ini", problem + f"coefficients = {table}\n" + numerics)
        runs = [("model", path, "model"), ("recover", path, "recover"),
                ("recover", follow, "table")]
        for fmt in ("csv", "json"):
            for cmd, config, sub in runs:
                assert main([cmd, "--config", config, "--out", str(base / fmt / sub),
                             "--format", fmt]) == 0
    capsys.readouterr()
    digests = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(tmp_path.rglob("*/*/*.*")) if f.suffix != ".ini"}
    assert digests == PINNED_DIGESTS


def test_table_recover_bytes_do_not_depend_on_blas(tmp_path):
    """Table recover runs in double, where a 2x2 complex matmul would go
    to zgemm and a difference stencil `c @ v` to zdotu, whose rounding
    depends on the OpenBLAS kernel and thread count.  Its bytes are the
    same under one and two threads and under the Prescott kernel (no FMA).
    Each run is a fresh process, as OpenBLAS reads these variables when it
    loads; a BLAS other than OpenBLAS ignores them."""
    src = str(Path(cli.__file__).resolve().parents[1])
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))), OPENBLAS_NUM_THREADS="1")
    base.pop("OPENBLAS_CORETYPE", None)
    problem = "[problem]\npotential = 2 + poly(0, 1, -1)\n"
    numerics = "[numerics]\ngrid_n = 200\n"
    assert main(["model", "--config", ini(tmp_path / "m.ini", problem + numerics),
                 "--out", str(tmp_path / "m")]) == 0
    table = ini(tmp_path / "t.ini",
                problem + f"coefficients = {tmp_path / 'm' / 'model.csv'}\n" + numerics)
    outputs = []
    for name, setting in (("one", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"}),
                          ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        subprocess.run([sys.executable, "-m", "slwave.cli", "recover", "--config", table,
                        "--out", str(tmp_path / name)],
                       env={**base, **setting}, capture_output=True, check=True)
        outputs.append([(tmp_path / name / f).read_bytes()
                        for f in ("recovery.csv", "recovery_report.json")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_model_algebra_needs_extended_precision(tmp_path, capsys, monkeypatch):
    """Where np.longdouble is plain double the gauge algebra loses its
    margins; the pipeline must refuse, not degrade silently."""
    kb = kernel_basis(potential(build_grid(1.0, 400), Const(0.0)))
    monkeypatch.setattr(model, "_LD_NMANT", 52)
    with pytest.raises(NumericalError, match="63 mantissa bits"):
        model.default_gauge(kb)
    path = ini(tmp_path / "m.ini", COSINE_SMALL)
    assert main(["model", "--config", path, "--out", str(tmp_path / "m")]) == 3
    assert "63 mantissa bits" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_table_recover_runs_in_double(tmp_path, capsys, monkeypatch):
    """Recovery from a coefficient table never touches longdouble, so it
    runs, byte for byte the same, where np.longdouble is plain double."""
    path = ini(tmp_path / "m.ini", COSINE_SMALL)
    assert main(["model", "--config", path, "--out", str(tmp_path / "m")]) == 0
    table = ini(tmp_path / "t.ini", "[problem]\npotential = 2 + cos(3)\n"
                f"coefficients = {tmp_path / 'm' / 'model.csv'}\n[numerics]\ngrid_n = 400\n")
    assert main(["recover", "--config", table, "--out", str(tmp_path / "ext")]) == 0
    monkeypatch.setattr(model, "_LD_NMANT", 52)
    assert main(["recover", "--config", table, "--out", str(tmp_path / "dbl")]) == 0
    capsys.readouterr()
    for name in ("recovery.csv", "recovery_report.json"):
        assert (tmp_path / "dbl" / name).read_bytes() == (tmp_path / "ext" / name).read_bytes()


def test_verify_clean_run(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    rep = json.loads((out / "verification_report.json").read_text())
    assert [c["name"] for c in rep["checks"]] == list(CHECK_NAMES)
    assert all(c["passed"] for c in rep["checks"])
    assert len(CHECK_NAMES) == 12
    runtime = rep["environment"]["runtime"]
    assert runtime["longdouble_eps"] == float(np.finfo(np.longdouble).eps)
    assert runtime["longdouble_nmant"] == np.finfo(np.longdouble).nmant
    for name in CHECK_NAMES:
        assert f"PASS {name}:" in stdout


def test_verify_fault_injection(tmp_path, capsys):
    out = tmp_path / "vf"
    code = main(["verify", "--out", str(out), "--inject-t-perturbation", "1e-6"])
    capsys.readouterr()
    assert code == 4
    # the report must still be written; the gauge identities read about
    # 1e6 and Parseval 2e-6, while the spectrum, recovery, intertwining and
    # the graph check are insensitive to a scalar rescaling of T
    rep = json.loads((out / "verification_report.json").read_text())
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert failed == {"gauge_identities", "parseval"}


def test_verify_refuses_the_config_keys_it_ignores(tmp_path, capsys):
    """verify checks its pinned workspace, so a config naming a problem,
    grid or modes exits 2 before any work and names every ignored key."""
    path = ini(tmp_path / "q.ini", """
        [problem]
        potential = 2000*cos(7) + 1500*sin(2)

        [numerics]
        grid_n = 400
        modes = 20
        seed = 3
    """)
    assert load_config(path).config_keys == (("problem", "potential"), ("numerics", "grid_n"),
                                             ("numerics", "modes"), ("numerics", "seed"))
    out = tmp_path / "v"
    assert main(["verify", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith("ignore [problem] potential, [numerics] grid_n, [numerics] modes")
    assert not out.exists()


def test_verify_reads_the_seed_of_a_config(tmp_path, capsys, monkeypatch):
    """A config that sets only [numerics] seed runs, at that seed."""
    seeds = []

    def run_all(ws):
        seeds.append(ws.seed)
        return VerificationReport((_cr("probe"),), {})

    monkeypatch.setattr(verify, "run_all", run_all)
    assert load_config(None).config_keys == ()
    path = ini(tmp_path / "s.ini", "[numerics]\nseed = 5\n")
    assert main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == 0
    assert "PASS probe" in capsys.readouterr().out
    assert seeds == [5]


def _cr(name):
    return CheckResult(name, 1e-9, 1e-6, "<=", True, "probe", {"n": 4.0})


def test_report_roundtrip_and_uniqueness():
    rep = VerificationReport((_cr("alpha"), _cr("beta")), {"numpy": "x"})
    text = json_text(rep.to_dict())
    payload = json.loads(text)
    assert payload == {"checks": [c.to_dict() for c in rep.checks],
                       "environment": {"numpy": "x"}}
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    with pytest.raises(VerificationFailure):
        VerificationReport((_cr("alpha"), _cr("alpha")), {})


@pytest.mark.parametrize("measured, sense", [(np.nan, "<="), (np.inf, ">=")])
def test_non_finite_measurement_is_a_failed_check(measured, sense):
    """NaN or infinity as a measured value becomes the failed sentinel, so
    the report stays valid JSON and the check cannot pass."""
    c = CheckResult("probe", measured, 1e-6, sense, True, "probe")
    assert c.measured == 9e99 and not c.passed
    assert "probe" in c.detail
    text = json_text(VerificationReport((c,), {}).to_dict())
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text)["checks"][0] == c.to_dict()


def test_non_finite_report_value_is_refused(tmp_path, capsys, monkeypatch):
    """Any other NaN or infinity in a report raises instead of writing the
    tokens NaN/Infinity: verify exits 3 and leaves no report behind."""
    bad = CheckResult("probe", 1e-9, 1e-6, "<=", True, "probe", {"n": np.inf})
    with pytest.raises(NumericalError, match="non-finite"):
        json_text(VerificationReport((bad,), {}).to_dict())
    monkeypatch.setattr(verify, "run_all", lambda ws: VerificationReport((bad,), {}))
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "verification_report.json").exists()


def test_json_artefact_refuses_nan(tmp_path):
    cfg = load_config(None, out_dir=str(tmp_path / "j"))
    with pytest.raises(NumericalError, match="non-finite"):
        cli._write_json(cfg, "summary", {"kappa": float("nan")})
    assert not (tmp_path / "j" / "summary.json").exists()
