"""End-to-end command line runs against temp directories.

Heavy invocations stay at reduced grid sizes except `verify`, which pins
its own workspace size by design and is exercised once per outcome.
"""

import hashlib
import json
import textwrap

import numpy as np
import pytest

from slwave import cli, model
from slwave.analytic import Const
from slwave.cli import load_config, main
from slwave.errors import ConfigurationError, NumericalError, VerificationFailure
from slwave.grid import build_grid
from slwave.operator import assemble_coefficients, recover_potential
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
        gauge = custom
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
    assert cfg.tol("fdtd", 1e-3) == 5e-4
    assert cfg.tol("absent", 1e-3) == 1e-3


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(str(tmp_path / "missing.ini"))
    bad_pair = ini(tmp_path / "pair.ini", "[gauge]\ngauge = custom\ne = 1, 2, 3\n")
    with pytest.raises(ConfigurationError):
        load_config(bad_pair)
    bad_kind = ini(tmp_path / "kind.ini", "[gauge]\ngauge = weird\n")
    with pytest.raises(ConfigurationError):
        load_config(bad_kind)
    bad_tol = ini(tmp_path / "tol.ini", "[tolerances]\nfdtd = 1e-20\n")
    with pytest.raises(ConfigurationError):
        load_config(bad_tol)
    neg_time = ini(tmp_path / "t.ini", "[controls]\ntimes = -0.1\n")
    with pytest.raises(ConfigurationError):
        load_config(neg_time)
    with pytest.raises(ConfigurationError):
        load_config(None, fmt="yaml")


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


def test_exit_3_inadmissible_potential(tmp_path):
    path = ini(tmp_path / "low.ini", """
        [problem]
        potential = const(-15)

        [numerics]
        grid_n = 200
        modes = 3
    """)
    assert main(["eigs", "--config", path, "--out", str(tmp_path)]) == 3


def test_exit_2_unstable_cfl(tmp_path):
    path = ini(tmp_path / "cfl.ini", """
        [numerics]
        grid_n = 200
        modes = 10
        horizon = 0.2
        cfl = 1.2
    """)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 2


def test_eigs_artifacts_and_determinism(tmp_path, capsys):
    path = ini(tmp_path / "c.ini", COSINE_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["eigs", "--config", path, "--out", str(out1)]) == 0
    assert main(["eigs", "--config", path, "--out", str(out2)]) == 0
    capsys.readouterr()

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


def test_simulate_json_wavefield(tmp_path, capsys):
    path = ini(tmp_path / "s.ini", """
        [numerics]
        grid_n = 200
        modes = 20
        horizon = 0.2
        fdtd = off
    """)
    out = tmp_path / "simj"
    assert main(["simulate", "--config", path, "--out", str(out),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert not list(out.glob("*.csv"))
    table = json.loads((out / "wavefield.json").read_text())
    assert table["columns"] == ["t", "x", "re", "im"]
    assert len(table["rows"]) == 201


def test_wavefield_streams_one_block_per_snapshot(tmp_path, capsys):
    """One block of grid rows per snapshot time, in the configured order;
    CSV and JSON hold the same floats."""
    path = ini(tmp_path / "s.ini", """
        [numerics]
        grid_n = 200
        modes = 20
        fdtd = off

        [controls]
        times = 0.2, 0.45, 0.3
    """)
    for fmt in ("csv", "json"):
        assert main(["simulate", "--config", path, "--out", str(tmp_path / fmt),
                     "--format", fmt]) == 0
    capsys.readouterr()
    csv = np.loadtxt(tmp_path / "csv" / "wavefield.csv", delimiter=",", skiprows=1)
    rows = np.array(json.loads((tmp_path / "json" / "wavefield.json").read_text())["rows"])
    x = build_grid(1.0, 200).x
    assert np.array_equal(csv[:, 0], np.repeat([0.2, 0.45, 0.3], x.size))
    assert np.array_equal(csv[:, 1], np.tile(x, 3))
    assert np.array_equal(rows.view(np.int64), csv.view(np.int64))


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
    assert "truth_error" not in rep       # observer runs blind
    q1 = np.array(rep["branches"][0])
    q2 = np.array(rep["branches"][1])
    lines = (out / "recovery.csv").read_text().strip().splitlines()
    x = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
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


def _oracle_csv(text: str) -> str:
    """The table's own values reloaded and re-formatted one by one."""
    lines = text.split("\n")
    rows = [",".join("%.17g" % float(v) for v in ln.split(",")) for ln in lines[1:-1]]
    return "\n".join([lines[0], *rows]) + "\n"


def test_artefacts_are_canonical(tmp_path, capsys):
    """Every artefact reads back to its own bytes: a CSV table under a
    per-value %.17g oracle, a JSON file under json.dumps of what it loads.
    The CSV and JSON tables hold the same floats, bit for bit."""
    problem = "[problem]\npotential = 2 + cos(3)\n"
    rest = ("[numerics]\ngrid_n = 200\nmodes = 4\nfdtd = off\n"
            "[controls]\ntimes = 0.2, 0.45\n")
    path = ini(tmp_path / "c.ini", problem + rest)
    table = tmp_path / "csv" / "model" / "model.csv"
    follow = ini(tmp_path / "r.ini", problem + f"coefficients = {table}\n" + rest)
    runs = [(c, path, c) for c in ("eigs", "simulate", "model", "recover")]
    runs.append(("recover", follow, "table"))
    for fmt in ("csv", "json"):
        for cmd, config, sub in runs:
            assert main([cmd, "--config", config, "--out", str(tmp_path / fmt / sub),
                         "--format", fmt]) == 0
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
# ("table"), in both formats
PINNED_DIGESTS = {
    "csv/model/gauge.csv": "d642c8c9a50345d3bc18ccf028ba6a4491d82beb6dac6d8c3500c64bca9e0f27",
    "csv/model/model.csv": "e80cae6c19ce5afcc7112ccbbae5e9a82b59b9710d61d6d2673e4f596a305244",
    "csv/recover/recovery.csv": "3f097a90da5e170ee4d83d6047112614744528fe3489f76235ab02dd126cf5e6",
    "csv/recover/recovery_report.json":
        "f16a53b5bed6e890563f42c2093854b7368793899845c389935cc7c7080169fc",
    "csv/table/recovery.csv": "024ea0907e3b9799e9501a2724476beb2be33176ac4294e90e5d95eae964c0ef",
    "csv/table/recovery_report.json":
        "2d5672fc5dbc44346d301e4e1ad07da25f6cc6aebeedee16e66d0e7f36debc4d",
    "json/model/gauge.json": "46222cf2ae3e39dada6956b2ecd88a2072555db44298d7956e5d320ea677da22",
    "json/model/model.json": "00fb3927300865f390daaa9058e96588377a5836fa0a833d2f49546c027f7340",
    "json/recover/recovery.json": "bf2e14b6da1c2e45205d3f275d9481f8cefa3d5097074026c8333825326d8571",
    "json/recover/recovery_report.json":
        "f16a53b5bed6e890563f42c2093854b7368793899845c389935cc7c7080169fc",
    "json/table/recovery.json": "8b7cccf10996c0f37edd20090c216c7241ba9cf31afcd098f9cd7c06f21b18f2",
    "json/table/recovery_report.json":
        "2d5672fc5dbc44346d301e4e1ad07da25f6cc6aebeedee16e66d0e7f36debc4d",
}


def test_model_recover_bytes_are_pinned(tmp_path, capsys):
    """The model and recover artefacts, byte for byte.  No BLAS call enters
    them: only + and * on the potential, the scalar RK4 sweeps of the
    kernel basis and longdouble arithmetic, so the digests do not depend
    on the CPU (given 80-bit longdouble)."""
    problem = "[problem]\npotential = 2 + poly(0, 1, -1)\n"
    numerics = "[numerics]\ngrid_n = 200\n"
    path = ini(tmp_path / "c.ini", problem + numerics)
    table = tmp_path / "csv" / "model" / "model.csv"
    follow = ini(tmp_path / "t.ini", problem + f"coefficients = {table}\n" + numerics)
    runs = [("model", path, "model"), ("recover", path, "recover"),
            ("recover", follow, "table")]
    for fmt in ("csv", "json"):
        for cmd, config, sub in runs:
            assert main([cmd, "--config", config, "--out", str(tmp_path / fmt / sub),
                         "--format", fmt]) == 0
    capsys.readouterr()
    digests = {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(tmp_path.glob("*/*/*.*"))}
    assert digests == PINNED_DIGESTS


def test_model_algebra_needs_extended_precision(tmp_path, capsys, monkeypatch,
                                                example_gauge):
    """Where np.longdouble is plain double the gauge and recovery algebra
    loses its margins; the pipeline must refuse, not degrade silently."""
    kb = kernel_basis(potential(build_grid(1.0, 400), Const(0.0)))
    mc = assemble_coefficients(example_gauge)
    monkeypatch.setattr(model, "_LD_NMANT", 52)
    with pytest.raises(NumericalError, match="63 mantissa bits"):
        model.default_gauge(kb)
    with pytest.raises(NumericalError, match="63 mantissa bits"):
        assemble_coefficients(example_gauge)
    with pytest.raises(NumericalError, match="63 mantissa bits"):
        recover_potential(mc)
    path = ini(tmp_path / "m.ini", COSINE_SMALL)
    assert main(["model", "--config", path, "--out", str(tmp_path / "m")]) == 3
    assert "63 mantissa bits" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


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
    # the report must still be written, with the gauge identity check failing
    rep = json.loads((out / "verification_report.json").read_text())
    failed = {c["name"] for c in rep["checks"] if not c["passed"]}
    assert failed
    assert "gauge_identities" in failed
    # spectrum and recovery are insensitive to a scalar rescaling of T
    assert "dirichlet_spectrum" not in failed
    assert "potential_recovery" not in failed


def _cr(name):
    return CheckResult(name, 1e-9, 1e-6, "<=", True, "probe", {"n": 4.0})


def test_report_roundtrip_and_uniqueness():
    rep = VerificationReport((_cr("alpha"), _cr("beta")), {"numpy": "x"})
    payload = json.loads(rep.to_json())
    assert payload == {"checks": [c.to_dict() for c in rep.checks],
                       "environment": {"numpy": "x"}}
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == rep.to_json()
    with pytest.raises(VerificationFailure):
        VerificationReport((_cr("alpha"), _cr("alpha")), {})


@pytest.mark.parametrize("measured, sense", [(np.nan, "<="), (np.inf, ">=")])
def test_non_finite_measurement_is_a_failed_check(measured, sense):
    """NaN or infinity as a measured value becomes the failed sentinel, so
    the report stays valid JSON and the check cannot pass."""
    c = CheckResult("probe", measured, 1e-6, sense, True, "probe")
    assert c.measured == 9e99 and not c.passed
    assert "probe" in c.detail
    text = VerificationReport((c,), {}).to_json()
    assert "NaN" not in text and "Infinity" not in text
    assert json.loads(text)["checks"][0] == c.to_dict()


def test_non_finite_report_value_is_refused(tmp_path, capsys, monkeypatch):
    """Any other NaN or infinity in a report raises instead of writing the
    tokens NaN/Infinity: verify exits 3 and leaves no report behind."""
    bad = CheckResult("probe", 1e-9, 1e-6, "<=", True, "probe", {"n": np.inf})
    with pytest.raises(NumericalError, match="non-finite"):
        VerificationReport((bad,), {}).to_json()
    monkeypatch.setattr(cli, "run_all", lambda ws: VerificationReport((bad,), {}))
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "verification_report.json").exists()


def test_json_artefact_refuses_nan(tmp_path):
    cfg = load_config(None, out_dir=str(tmp_path / "j"))
    with pytest.raises(NumericalError, match="non-finite"):
        cli._write_json(cfg, "summary", {"kappa": float("nan")})
    assert not (tmp_path / "j" / "summary.json").exists()
