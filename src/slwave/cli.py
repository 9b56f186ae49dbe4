"""Batch front door: config-driven runs that write CSV/JSON artifacts.

Subcommands mirror the pipeline stages: `eigs` (spectrum), `simulate`
(controlled waves plus support and oracle reports), `model` (gauge and
model-coefficient tables), `verify` (the full check suite), `recover`
(potential branches from model coefficients).

Config is INI-style with sections [problem], [numerics], [gauge],
[controls], [tolerances]; every key has a default, so a missing file or
empty section still yields a runnable configuration.  Outputs are
deterministic byte-for-byte for a fixed config and seed: floats print as
%.17g in CSV and round-trip repr in JSON, keys are sorted, and no
timestamps are embedded.  Every table, the wave field and the
eigenfunctions included, goes through `_write_table`, which streams CSV
through `grid.write_table` one block at a time.

Exit codes: 0 all good, 2 configuration problems, 3 numerical failures
(inadmissible potential or gauge, instability), 4 verification failures.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .analytic import parse_expression
from .control import (ControlSignal, control_to_kernel, fdtd_oracle,
                      smooth_wave, support_report)
from .errors import (ConfigurationError, ContractError, NumericalError,
                     SlwaveError, VerificationFailure)
from .grid import (GridFunction, build_grid, format_column, json_text, quad,
                   write_table)
from .model import GUARD_CELLS, default_gauge
from .operator import (ModelCoefficients, assemble_coefficients, recover_potential,
                       unordered_branch_error)
from .sturm import check_lower_bound, dirichlet_eigensystem, kernel_basis, potential
from .verify import Workspace, run_all

_EPS_FLOOR = 100.0 * np.finfo(float).eps


def _finite_positive(value: float) -> bool:
    return 0.0 < value < np.inf


@dataclass
class RunConfig:
    """Resolved run parameters; every field validated on construction."""

    l: float = 1.0
    potential_expr: str = "const(0)"
    grid_n: int = 2000
    modes: int = 200
    horizon: float = 0.5
    cfl: float = 0.5
    shoot_tol: float = 1e-10
    gauge_e: Optional[tuple] = None
    gauge_e1: Optional[tuple] = None
    gauge_e2: Optional[tuple] = None
    f0_expr: str = "bump(0.06, 0.1, 1.0, 6)"
    fl_expr: str = "const(0)"
    times: tuple = ()
    run_fdtd: bool = True
    coefficients_path: Optional[str] = None
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    t_perturbation: float = 0.0
    out_dir: Path = Path(".")
    fmt: str = "csv"

    def __post_init__(self):
        for name in ("l", "horizon", "cfl", "shoot_tol"):
            if not _finite_positive(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite and positive")
        if self.grid_n <= 0 or self.modes <= 0:
            raise ConfigurationError("grid_n and modes must be positive")
        if not all(map(_finite_positive, self.times)):
            raise ConfigurationError("snapshot times must be finite and positive")
        for key, val in self.tolerances.items():
            if not _EPS_FLOOR <= val < np.inf:
                raise ConfigurationError(
                    f"tolerance {key}={val:g} must be finite and at least 100x machine precision")
        parse_expression(self.potential_expr)   # fail early if unresolvable
        if self.fmt not in ("csv", "json"):
            raise ConfigurationError(f"unknown output format {self.fmt!r}")

    def tol(self, key: str, default: float) -> float:
        return float(self.tolerances.get(key, default))


def _parse_pair(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigurationError(
            "gauge element needs four numbers: re(c0), im(c0), re(cl), im(cl)")
    try:
        v = [float(p) for p in parts]
    except ValueError:
        raise ConfigurationError(f"bad gauge coefficients {text!r}") from None
    return (complex(v[0], v[1]), complex(v[2], v[3]))


def load_config(path: Optional[str], out_dir: str = ".", fmt: str = "csv",
                seed: Optional[int] = None,
                t_perturbation: float = 0.0) -> RunConfig:
    cp = configparser.ConfigParser()
    if path is not None:
        read = cp.read(path)
        if not read:
            raise ConfigurationError(f"cannot read config file {path}")

    def get(section, key, default, cast):
        try:
            raw = cp.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            return default
        try:
            return cast(raw)
        except (ValueError, TypeError):
            raise ConfigurationError(
                f"bad value for [{section}] {key}: {raw!r}") from None

    def as_bool(raw):
        try:
            return cp.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None

    def as_times(raw):
        return tuple(float(p) for p in raw.split(",") if p.strip())

    gauge_kind = get("gauge", "gauge", "default", str).strip().lower()
    ge = ge1 = ge2 = None
    if gauge_kind not in ("default", "custom"):
        raise ConfigurationError(f"unknown gauge kind {gauge_kind!r}")
    if gauge_kind == "custom" or cp.has_option("gauge", "e"):
        ge = get("gauge", "e", None, _parse_pair)
        ge1 = get("gauge", "e1", None, _parse_pair)
        ge2 = get("gauge", "e2", None, _parse_pair)

    tolerances = {}
    if cp.has_section("tolerances"):
        for key in cp.options("tolerances"):
            tolerances[key] = get("tolerances", key, 0.0, float)

    cfg_seed = get("numerics", "seed", 0, int)
    cfg = RunConfig(
        l=get("problem", "l", 1.0, float),
        potential_expr=get("problem", "potential", "const(0)", str),
        grid_n=get("numerics", "grid_n", 2000, int),
        modes=get("numerics", "modes", 200, int),
        horizon=get("numerics", "horizon", 0.5, float),
        cfl=get("numerics", "cfl", 0.5, float),
        shoot_tol=get("numerics", "shoot_tol", 1e-10, float),
        gauge_e=ge, gauge_e1=ge1, gauge_e2=ge2,
        f0_expr=get("controls", "f0", "bump(0.06, 0.1, 1.0, 6)", str),
        fl_expr=get("controls", "fl", "const(0)", str),
        times=get("controls", "times", (), as_times),
        run_fdtd=get("numerics", "fdtd", True, as_bool),
        coefficients_path=get("problem", "coefficients", None, str),
        tolerances=tolerances,
        seed=cfg_seed if seed is None else int(seed),
        t_perturbation=float(t_perturbation),
        out_dir=Path(out_dir),
        fmt=fmt,
    )
    return cfg


def _write_table(cfg: RunConfig, name: str, header: list, blocks) -> Path:
    """One table from an iterable of blocks, each a list of equally long
    columns: float arrays, or columns from `_column` (formatted once in CSV
    mode).  CSV streams one block at a time."""
    if cfg.fmt == "json":
        rows = [row for block in blocks for row in
                np.column_stack([np.asarray(c, dtype=float) for c in block]).tolist()]
        return _write_json(cfg, name, {"columns": header, "rows": rows})
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{name}.csv"
    write_table(path, header, blocks)
    return path


def _column(cfg: RunConfig, values):
    """A column repeated over many blocks: %.17g strings in CSV mode."""
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
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{name}.json"
    path.write_text(text)
    return path


def _problem(cfg: RunConfig):
    grid = build_grid(cfg.l, cfg.grid_n)
    q = potential(grid, parse_expression(cfg.potential_expr))
    return grid, q


def _control(cfg: RunConfig) -> ControlSignal:
    return ControlSignal(parse_expression(cfg.f0_expr),
                         parse_expression(cfg.fl_expr))


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
    xs = _column(cfg, es.grid.x)
    for k in range(es.count):
        f = es.eigenfunction(k)
        files.append(_write_table(cfg, f"eigenfunction_{k + 1:04d}", ["x", "re", "im"],
                                  [[xs, f.values.real, f.values.imag]]))
    return files


def run_simulate(cfg: RunConfig) -> list:
    """Controlled waves at the requested times, support report, FDTD check."""
    grid, q = _problem(cfg)
    es = dirichlet_eigensystem(q, cfg.modes, rel_tol=cfg.shoot_tol)
    check_lower_bound(es)
    kb = kernel_basis(q)
    c = _control(cfg)
    kc = control_to_kernel(c, kb)
    times = cfg.times if cfg.times else (cfg.horizon,)
    snaps = [smooth_wave(kc, t, es) for t in times]
    xs = _column(cfg, grid.x)
    wf_path = _write_table(cfg, "wavefield", ["t", "x", "re", "im"],
                           ([[t] * grid.size, xs, s.values.real, s.values.imag]
                            for t, s in zip(_column(cfg, times), snaps)))
    support = []
    for t, s in zip(times, snaps):
        rep = support_report(s, t, tol=cfg.tol("support", 1e-6))
        support.append({"t": t, "ratio": rep.ratio, "outside_mass": rep.outside_mass,
                        "total_mass": rep.total_mass, "passed": rep.passed})
    payload = {"times": list(times), "support": support, "fdtd_l2": None}
    if cfg.run_fdtd:
        horizon = max(times)
        oracle = fdtd_oracle(c, q, horizon=horizon, cfl=cfg.cfl)
        diff = snaps[int(np.argmax(times))].values - oracle.values
        l2 = float(np.sqrt(quad(GridFunction(grid, np.abs(diff) ** 2 + 0j)).real))
        payload["fdtd_l2"] = l2
        payload["fdtd_tol"] = cfg.tol("fdtd", 1e-3)
        payload["fdtd_passed"] = l2 <= cfg.tol("fdtd", 1e-3)
    files = [wf_path, _write_json(cfg, "simulate_report", payload)]
    return files


def _gauge_of(cfg: RunConfig):
    _, q = _problem(cfg)
    kb = kernel_basis(q)
    return q, default_gauge(kb, e=cfg.gauge_e, e1=cfg.gauge_e1, e2=cfg.gauge_e2)


def run_model(cfg: RunConfig) -> list:
    """Gauge table on the half grid plus model coefficients off the band."""
    _, gd = _gauge_of(cfg)
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
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("x,"):
        raise ConfigurationError(f"{path} is not a model coefficient table")
    try:
        data = np.array([line.split(",") for line in text[1:]], dtype=float)
    except ValueError:
        raise ConfigurationError(f"{path} has ragged or non-numeric rows") from None
    if data.ndim != 2 or data.shape[1] != 17:
        raise ConfigurationError(f"{path} has the wrong column count")
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
        _, gd = _gauge_of(cfg)
        mc = assemble_coefficients(gd)
        rr = recover_potential(mc)
        compare = unordered_branch_error(rr, parse_expression(cfg.potential_expr),
                                         cfg.l)
    files = [_write_table(cfg, "recovery", ["x", "q1", "q2", "collision"],
                          [[rr.x, rr.q1, rr.q2, rr.collision]])]
    payload = {"branches": [rr.q1.tolist(), rr.q2.tolist()],
               "collision_flags": rr.collision.tolist(),
               "reflection_note": rr.note,
               "max_imaginary_part": rr.max_imag}
    if compare is not None:
        payload["truth_error"] = compare
    files.append(_write_json(cfg, "recovery_report", payload))
    return files


def run_verify(cfg: RunConfig) -> list:
    """Full check suite; report written even when checks fail.

    The check tolerances are calibrated at a fixed workspace size, so the
    [numerics] grid/mode settings are ignored here; only the seed and the
    fault-injection knob flow through.
    """
    ws = Workspace(seed=cfg.seed, t_perturbation=cfg.t_perturbation)
    report = run_all(ws)
    path = _write_json(cfg, "verification_report",
                       json.loads(report.to_json()))
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
