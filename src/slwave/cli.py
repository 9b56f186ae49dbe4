"""Batch front door: config-driven runs that write CSV/JSON artifacts.

Subcommands mirror the pipeline stages: `eigs` (spectrum), `simulate`
(controlled waves plus support and oracle reports), `model` (gauge and
model-coefficient tables), `verify` (the full check suite), `recover`
(potential branches from model coefficients).

Config is INI-style with sections [problem], [numerics], [gauge],
[controls], [tolerances]; every key has a default, so a missing file or
empty section still yields a runnable configuration, and any other
section or key is a configuration error.  Outputs are
deterministic byte-for-byte for a fixed config and seed: floats print as
%.17g in CSV and round-trip repr in JSON, keys are sorted, and no
timestamps are embedded.  Every table, the wave field and the
eigenfunctions included, goes through `_write_tables`, which streams it
through `grid.write_tables` (CSV) or `grid.write_json_table` one block at
a time.  `eigs` and `simulate` lay out their rows once per command, in a
`grid.RowLayout`: the columns every block shares (the grid nodes and the
zero imaginary parts) are formatted and laid into the row buffer once, so
each eigenfunction file or snapshot formats only its own values, and the
values of consecutive snapshots, or of consecutive eigenfunction files
(written together), share formatting calls.  The snapshot times are
formatted once by `_column`, and a snapshot's t column is a zero-stride
view of its one text cell.

Exit codes: 0 all good, 2 configuration problems, 3 numerical failures
(inadmissible potential or gauge, instability), 4 verification failures
(a verify check, or a support or FDTD check of simulate, reported after
the artefacts are written).
"""

from __future__ import annotations

import argparse
import configparser
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .analytic import ClosedForm, parse_expression
from .control import (LEAPFROG_CFL, ControlSignal, _leapfrog_steps, control_to_kernel,
                      fdtd_oracle, smooth_waves, support_report)
from .errors import (ConfigurationError, ContractError, NumericalError,
                     SlwaveError, VerificationFailure)
from .grid import (GridFunction, RowLayout, build_grid, format_column, json_text, quad,
                   write_json_table, write_tables)
from .model import GUARD_CELLS, default_gauge
from .operator import (ModelCoefficients, assemble_coefficients, recover_potential,
                       unordered_branch_error)
from .sturm import check_lower_bound, dirichlet_eigensystem, kernel_basis, potential

_EPS_FLOOR = 100.0 * np.finfo(float).eps


def _finite_positive(value: float) -> bool:
    return 0.0 < value < np.inf


@dataclass(eq=False)
class RunConfig:
    """Resolved run parameters; every field validated on construction.
    The three expressions are parsed once, into `q_form`, `f0_form` and
    `fl_form`, which every command reads."""

    l: float = 1.0
    potential_expr: str = "const(0)"
    grid_n: int = 2000
    modes: int = 200
    horizon: float = 0.5
    cfl: float = LEAPFROG_CFL
    shoot_tol: float = 1e-10
    gauge_e: Optional[tuple] = None
    gauge_e1: Optional[tuple] = None
    gauge_e2: Optional[tuple] = None
    f0_expr: str = "bump(0.06, 0.1, 1.0, 6)"
    fl_expr: str = "const(0)"
    times: tuple = ()
    run_fdtd: bool = True
    coefficients_path: Optional[str] = None
    fdtd_tol: float = 1e-3
    support_tol: float = 1e-6
    seed: int = 0
    t_perturbation: float = 0.0
    out_dir: Path = Path(".")
    fmt: str = "csv"
    config_keys: tuple = ()     # the (section, key) pairs the config file set
    q_form: ClosedForm = field(init=False, repr=False)
    f0_form: ClosedForm = field(init=False, repr=False)
    fl_form: ClosedForm = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("l", "horizon", "cfl", "shoot_tol"):
            if not _finite_positive(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite and positive")
        if self.grid_n <= 0 or self.modes <= 0:
            raise ConfigurationError("grid_n and modes must be positive")
        if not all(map(_finite_positive, self.times)):
            raise ConfigurationError("snapshot times must be finite and positive")
        for key, val in (("fdtd", self.fdtd_tol), ("support", self.support_tol)):
            if not _EPS_FLOOR <= val < np.inf:
                raise ConfigurationError(
                    f"tolerance {key}={val:g} must be finite and at least 100x machine precision")
        self.q_form, self.f0_form, self.fl_form = map(
            parse_expression, (self.potential_expr, self.f0_expr, self.fl_expr))
        if self.fmt not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {self.fmt!r}")


def _parse_pair(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigurationError(
            "gauge element needs four numbers: re(c0), im(c0), re(cl), im(cl)")
    try:
        v = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"bad gauge coefficients {text!r}") from None
    if not all(map(np.isfinite, v)):
        raise ConfigurationError(f"gauge coefficients {text!r} must be finite")
    return (complex(v[0], v[1]), complex(v[2], v[3]))


def _as_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _as_times(raw: str) -> tuple:
    return tuple(float(p) for p in raw.split(",") if p.strip())


# every config key: (section, key) -> (RunConfig field, parser); an absent
# key keeps the field's default
_KEYS = {
    ("problem", "l"): ("l", float),
    ("problem", "potential"): ("potential_expr", str),
    ("problem", "coefficients"): ("coefficients_path", str),
    ("numerics", "grid_n"): ("grid_n", int),
    ("numerics", "modes"): ("modes", int),
    ("numerics", "horizon"): ("horizon", float),
    ("numerics", "cfl"): ("cfl", float),
    ("numerics", "shoot_tol"): ("shoot_tol", float),
    ("numerics", "fdtd"): ("run_fdtd", _as_bool),
    ("numerics", "seed"): ("seed", int),
    ("gauge", "e"): ("gauge_e", _parse_pair),
    ("gauge", "e1"): ("gauge_e1", _parse_pair),
    ("gauge", "e2"): ("gauge_e2", _parse_pair),
    ("controls", "f0"): ("f0_expr", str),
    ("controls", "fl"): ("fl_expr", str),
    ("controls", "times"): ("times", _as_times),
    ("tolerances", "fdtd"): ("fdtd_tol", float),
    ("tolerances", "support"): ("support_tol", float),
}


def load_config(path: Optional[str], out_dir: str = ".", fmt: str = "csv",
                seed: Optional[int] = None,
                t_perturbation: float = 0.0) -> RunConfig:
    """RunConfig from an INI file; an unknown section or key is a
    ConfigurationError, so a misspelling never runs with a default."""
    cp = configparser.ConfigParser()
    try:
        if path is not None and not cp.read(path):
            raise ConfigurationError(f"cannot read config file {path}")
        items = {section: cp.items(section) for section in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from None
    known = {section for section, _ in _KEYS}
    for section in list(items) + ([cp.default_section] if cp.defaults() else []):
        if section not in known:
            raise ConfigurationError(f"unknown config section [{section}]")
    fields, keys = {}, []
    for section, pairs in items.items():
        for key, raw in pairs:
            if (section, key) not in _KEYS:
                raise ConfigurationError(f"unknown config key [{section}] {key}")
            name, cast = _KEYS[section, key]
            try:
                value = cast(raw)
            except ConfigurationError as exc:
                # the parser's own reason; a bare ValueError only says which value
                raise ConfigurationError(f"bad value for [{section}] {key}: {exc}") from None
            except (ValueError, TypeError):
                raise ConfigurationError(
                    f"bad value for [{section}] {key}: {raw!r}") from None
            fields[name] = value
            keys.append((section, key))
    if seed is not None:
        fields["seed"] = int(seed)
    return RunConfig(**fields, t_perturbation=float(t_perturbation),
                     out_dir=Path(out_dir), fmt=fmt, config_keys=tuple(keys))


def _write(cfg: RunConfig, names: list, write) -> list:
    """Write the artefacts `names` in the output directory, made if
    missing, by calling write(paths); a directory or file that cannot be
    made or opened is a configuration error."""
    paths = [cfg.out_dir / name for name in names]
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        write(paths)
    except OSError as exc:
        raise ConfigurationError(f"cannot use output directory {cfg.out_dir}: {exc}") from None
    return paths


def _write_tables(cfg: RunConfig, names: list, table, tables) -> list:
    """Tables of one header or RowLayout (whose shared columns the blocks
    leave out), one per name: `tables` yields each one's iterable of
    blocks, and a block's columns are float arrays, or columns from
    `_column`.  In CSV, the tables are streamed together, one block at a
    time."""
    def write(paths):
        if cfg.fmt == "json":
            for path, blocks in zip(paths, tables):
                write_json_table(path, table, blocks)
        else:
            write_tables(table, zip(paths, tables))
    return _write(cfg, [f"{name}.{cfg.fmt}" for name in names], write)


def _write_table(cfg: RunConfig, name: str, table, blocks) -> Path:
    """One table from an iterable of blocks."""
    return _write_tables(cfg, [name], table, [blocks])[0]


def _column(cfg: RunConfig, values):
    """Values whose text many blocks repeat: text cells in CSV mode."""
    return values if cfg.fmt == "json" else format_column(values)


def _complex_table(names: str, mats) -> tuple:
    """Header and re/im columns of 2x2 fields, entries row-major; the cast
    to complex128 rounds each part as float() does."""
    header = [f"{p}({nm}{a}{b})" for nm in names for a in "12" for b in "12"
              for p in ("re", "im")]
    data = np.concatenate([np.asarray(M, dtype=complex).view(float).reshape(-1, 8)
                           for M in mats], axis=1)
    return header, list(data.T)


def _write_json(cfg: RunConfig, name: str, payload: dict) -> Path:
    text = json_text(payload)
    return _write(cfg, [f"{name}.json"], lambda paths: paths[0].write_text(text))[0]


def _problem(cfg: RunConfig):
    grid = build_grid(cfg.l, cfg.grid_n)
    q = potential(grid, cfg.q_form)
    return grid, q


def _control(cfg: RunConfig) -> ControlSignal:
    return ControlSignal(cfg.f0_form, cfg.fl_form)


def run_eigs(cfg: RunConfig) -> list:
    """Spectrum artifacts: eigenvalue table, kappa summary, eigenfunctions."""
    _, q = _problem(cfg)
    es = dirichlet_eigensystem(q, cfg.modes, rel_tol=cfg.shoot_tol)
    kappa = check_lower_bound(es)
    files = [_write_table(cfg, "eigenvalues", ["n", "lambda"],
                          [[np.arange(1.0, es.count + 1), es.lam]])]
    files.append(_write_json(cfg, "eigs_summary",
                             {"kappa": kappa, "count": es.count,
                              "l": cfg.l, "grid_n": cfg.grid_n}))
    # the eigenfunctions are real: every file shares the nodes and a zero
    # im column, laid out once, and the files are written together
    layout = RowLayout(["x", "re", "im"], {"x": es.grid.x, "im": np.zeros(es.grid.size)})
    files += _write_tables(cfg, [f"eigenfunction_{k + 1:04d}" for k in range(es.count)],
                           layout, ([[phi]] for phi in es.phi))
    return files


def run_simulate(cfg: RunConfig) -> list:
    """Controlled waves at the requested times, support report, FDTD check.
    An unstable leapfrog time step fails before any work or output; a
    failed support or FDTD check fails after both artefacts are written."""
    grid, q = _problem(cfg)
    times = cfg.times if cfg.times else (cfg.horizon,)
    if cfg.run_fdtd:
        _leapfrog_steps(q, max(times), cfg.cfl)
    es = dirichlet_eigensystem(q, cfg.modes, rel_tol=cfg.shoot_tol)
    check_lower_bound(es)
    kb = kernel_basis(q)
    c = _control(cfg)
    kc = control_to_kernel(c, kb)
    snaps = smooth_waves(kc, times, es)
    # the waves are real: every snapshot shares the nodes and a zero im
    # column, laid out once; the times are formatted once, and a block's t
    # column repeats its own cell
    layout = RowLayout(["t", "x", "re", "im"], {"x": grid.x, "im": np.zeros(grid.size)})
    wf_path = _write_table(cfg, "wavefield", layout,
                           ([np.broadcast_to(t, (grid.size, *np.shape(t))), row]
                            for t, row in zip(_column(cfg, np.array(times)), snaps)))
    support = []
    for t, row in zip(times, snaps):
        rep = support_report(GridFunction(grid, row), t, tol=cfg.support_tol)
        support.append({"t": t, "ratio": rep.ratio, "outside_mass": rep.outside_mass,
                        "total_mass": rep.total_mass, "passed": rep.passed})
    payload = {"times": list(times), "support": support, "fdtd_l2": None}
    if cfg.run_fdtd:
        horizon = max(times)
        oracle = fdtd_oracle(c, q, horizon=horizon, cfl=cfg.cfl)
        diff = snaps[int(np.argmax(times))] - oracle.values
        l2 = float(np.sqrt(quad(GridFunction(grid, np.abs(diff) ** 2)).real))
        payload["fdtd_l2"] = l2
        payload["fdtd_tol"] = cfg.fdtd_tol
        payload["fdtd_passed"] = l2 <= cfg.fdtd_tol
    files = [wf_path, _write_json(cfg, "simulate_report", payload)]
    failed = [f"support at t={s['t']!r}" for s in support if not s["passed"]]
    if not payload.get("fdtd_passed", True):
        failed.append(f"fdtd_l2 {payload['fdtd_l2']:.3e} > {payload['fdtd_tol']:.3e}")
    if failed:
        raise VerificationFailure("simulate checks failed: " + ", ".join(failed))
    return files


def _gauge_of(cfg: RunConfig):
    _, q = _problem(cfg)
    return default_gauge(kernel_basis(q), e=cfg.gauge_e, e1=cfg.gauge_e1, e2=cfg.gauge_e2)


def run_model(cfg: RunConfig) -> list:
    """Gauge table on the half grid plus model coefficients off the band."""
    gd = _gauge_of(cfg)
    mc = assemble_coefficients(gd)
    header, cols = _complex_table("TG", (gd.T, gd.G))
    files = [_write_table(cfg, "gauge", ["x", *header, "rho"],
                          [[gd.half_x, *cols, gd.rho]])]
    ok = mc.admissible
    header, cols = _complex_table("PQ", (mc.Phat[ok], mc.Qhat[ok]))
    files.append(_write_table(cfg, "model", ["x", *header], [[mc.half_x[ok], *cols]]))
    return files


def _coefficients_from_csv(path: str, l: float, grid_n: int) -> ModelCoefficients:
    """Rebuild sampled coefficients from a model table; the analytic P^'
    is unavailable, so downstream recovery must use the observer path.

    The pole of the model sits at l/2 of the configured problem, so a table
    was written for another problem, and is rejected, when its row spacing
    (smallest gap between rows) is not l / grid_n or its last row is not
    the last node before the guard band at l/2.
    """
    try:
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read coefficient table {path}: {exc}") from None
    if not text or not text[0].startswith("x,"):
        raise ConfigurationError(f"{path} is not a model coefficient table")
    try:
        with warnings.catch_warnings():     # a table of no rows has the wrong column count
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(text[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise ConfigurationError(f"{path} has ragged or non-numeric rows") from None
    if len(data) != len(text) - 1:          # loadtxt skips blank lines
        raise ConfigurationError(f"{path} has ragged or non-numeric rows")
    if data.shape[1] != 17:
        raise ConfigurationError(f"{path} has the wrong column count")
    if not np.isfinite(data).all():         # loadtxt parses nan and inf
        raise ConfigurationError(f"{path} has non-finite values")
    xs = data[:, 0]
    h = l / grid_n
    spacing = float(np.min(np.diff(xs))) if xs.size > 1 else h
    if abs(spacing - h) > 1e-9 * h:
        raise ConfigurationError(
            f"{path} has row spacing {spacing!r}, but the config asks for "
            f"l / grid_n = {h!r}; the table was written for another l or grid_n")
    m = int(round(0.5 * l / h))
    half_x = np.arange(m + 1, dtype=float) * h
    js = np.rint(xs / h).astype(int)
    if np.any(js < 0) or js.max() != m - GUARD_CELLS:
        raise ConfigurationError(
            f"{path} rows end at x = {xs.max()!r}, but with row spacing "
            f"l / grid_n = {h!r} a model table for l = {l!r} ends at the guard "
            f"band, x = {(m - GUARD_CELLS) * h!r}; the table was written for "
            "another l or grid_n")
    admissible = np.zeros(m + 1, dtype=bool)
    admissible[js] = True
    Phat = np.zeros((m + 1, 2, 2), dtype=complex)
    Qhat = np.zeros_like(Phat)
    vals = (data[:, 1::2] + 1j * data[:, 2::2]).reshape(-1, 2, 2, 2)
    Phat[js] = vals[:, 0]
    Qhat[js] = vals[:, 1]
    return ModelCoefficients(half_x, admissible, Phat, np.zeros_like(Phat),
                             Qhat, h, 0.0)


def run_recover(cfg: RunConfig) -> list:
    """Potential branches from model coefficients; reflection note attached."""
    if cfg.coefficients_path is not None:
        mc = _coefficients_from_csv(cfg.coefficients_path, cfg.l, cfg.grid_n)
        rr = recover_potential(mc, sampled_derivatives=True)
        compare = None
    else:
        mc = assemble_coefficients(_gauge_of(cfg))
        rr = recover_potential(mc)
        compare = unordered_branch_error(rr, cfg.q_form, cfg.l)
    files = [_write_table(cfg, "recovery", ["x", "q1", "q2", "collision"],
                          [[rr.x, rr.q1, rr.q2, rr.collision]])]
    payload = {"reflection_note": rr.note, "max_imaginary_part": rr.max_imag}
    if compare is not None:
        payload["truth_error"] = compare
    files.append(_write_json(cfg, "recovery_report", payload))
    return files


def run_verify(cfg: RunConfig) -> list:
    """Full check suite; report written even when checks fail.

    The checks run on a pinned workspace (three potentials at n = 2000,
    300 modes) against tolerances calibrated there, so of the config
    keys verify reads only [numerics] seed: a config that sets any other
    key is refused before any work.  The seed and the fault-injection
    knob flow through.  The suite is imported here, so the other
    commands never load it.
    """
    ignored = [f"[{section}] {key}" for section, key in cfg.config_keys
               if (section, key) != ("numerics", "seed")]
    if ignored:
        raise ConfigurationError("verify checks its pinned workspace and reads only "
                                 f"[numerics] seed from a config; it would ignore {', '.join(ignored)}")
    from .verify import Workspace, run_all

    ws = Workspace(seed=cfg.seed, t_perturbation=cfg.t_perturbation)
    report = run_all(ws)
    path = _write_json(cfg, "verification_report", report.to_dict())
    for c in report.checks:
        mark = "PASS" if c.passed else "FAIL"
        print(f"{mark} {c.name}: measured {c.measured:.3e} {c.sense} {c.tolerance:.3e}")
    if not report.all_passed:
        raise VerificationFailure(
            "verification checks failed: "
            + ", ".join(c.name for c in report.checks if not c.passed))
    return [path]


_COMMANDS = {"eigs": run_eigs, "simulate": run_simulate, "model": run_model,
             "verify": run_verify, "recover": run_recover}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="slwave",
        description="Wave-model pipeline: spectra, controlled waves, gauge "
                    "and model coefficient tables, verification, recovery.")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default="csv", choices=("csv", "json"),
                   dest="fmt", help="table output format")
    p.add_argument("--seed", default=None, type=int,
                   help="seed override for randomized probes")
    p.add_argument("--inject-t-perturbation", default=0.0, type=float,
                   dest="t_perturbation", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, out_dir=args.out, fmt=args.fmt,
                          seed=args.seed, t_perturbation=args.t_perturbation)
        files = _COMMANDS[args.command](cfg)
    except (ConfigurationError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SlwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
