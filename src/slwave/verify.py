"""Executable verification suite.

Each check_* function measures one falsifiable statement about the built
objects (spectrum accuracy, d'Alembert agreement, algebraic gauge
identities, Parseval, intertwining, recovery, ...) and returns a
CheckResult.  run_all executes the standard twelve in a fixed order and
wraps them in a VerificationReport; checks share a Workspace so the
expensive artifacts (eigensystems, gauges, coefficients) are built once.

The t_perturbation knob scales the gauge matrix fields by (1 + eps) after
assembly.  It exists for fault injection: a corrupted T must make the
identity, Parseval and intertwining checks fail loudly, never silently.
"""

from __future__ import annotations

import dataclasses
import platform
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import mat2
from .analytic import Const, Poly, Trig, bump, parse_expression
from .control import (ControlSignal, control_to_kernel, fdtd_oracle,
                      reachable_span_estimate, smooth_wave, support_report)
from .errors import SlwaveError, VerificationFailure
from .geometry import Atom, distance_profile, eikonal_metric
from .grid import GridFunction, build_grid, json_text, quad, sample
from .model import (DET_FLOOR, default_gauge, form_limit_check, hat_value,
                    parseval_residual, smooth_from_closed_form)
from .operator import (apply_model, assemble_coefficients, graph_sample,
                       intertwine_residual, recover_potential,
                       unordered_branch_error)
from .sturm import dirichlet_eigensystem, kernel_basis, potential

__all__ = ["CheckResult", "VerificationReport", "Workspace", "run_all",
           "CHECK_NAMES"]

_FAILED_SENTINEL = 9e99


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome: measured value against its tolerance."""

    name: str
    measured: float
    tolerance: float
    sense: str
    passed: bool
    detail: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # a non-finite measurement has no JSON spelling and passes nothing
        if not np.isfinite(self.measured):
            object.__setattr__(self, "detail", f"{self.detail} [measured {self.measured}]".strip())
            object.__setattr__(self, "measured", _FAILED_SENTINEL)
            object.__setattr__(self, "passed", False)

    def to_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "tolerance": self.tolerance, "sense": self.sense,
                "passed": self.passed, "detail": self.detail,
                "extras": dict(sorted(self.extras.items()))}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    environment: dict

    def __post_init__(self):
        names = [c.name for c in self.checks]
        if len(set(names)) != len(names):
            raise VerificationFailure("duplicate check names in report")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {"checks": [c.to_dict() for c in self.checks],
                   "environment": self.environment}
        return json_text(payload)


class Workspace:
    """Shared lazily-built artifacts for the verification checks, on [0, 1]."""

    _Q_EXPR = {"zero": "const(0)", "one": "const(1)", "cosine": "2 + cos(3)"}

    def __init__(self, grid_n: int = 2000, modes: int = 300, seed: int = 0,
                 t_perturbation: float = 0.0):
        self.grid_n = int(grid_n)
        self.modes = int(modes)
        self.seed = int(seed)
        self.t_perturbation = float(t_perturbation)
        self.grid = build_grid(1.0, self.grid_n)
        self._forms = {}
        self._potentials = {}
        self._eigen = {}
        self._kernels = {}
        self._gauges = {}
        self._coeffs = {}

    def q_form(self, key: str):
        if key not in self._forms:
            self._forms[key] = parse_expression(self._Q_EXPR[key])
        return self._forms[key]

    def potential(self, key: str):
        if key not in self._potentials:
            self._potentials[key] = potential(self.grid, self.q_form(key))
        return self._potentials[key]

    def eigensystem(self, key: str):
        if key not in self._eigen:
            self._eigen[key] = dirichlet_eigensystem(self.potential(key), self.modes)
        return self._eigen[key]

    def kernel(self, key: str):
        if key not in self._kernels:
            self._kernels[key] = kernel_basis(self.potential(key))
        return self._kernels[key]

    def gauge(self, key: str):
        if key not in self._gauges:
            gd = default_gauge(self.kernel(key))
            self._gauges[key] = _perturb_gauge(gd, self.t_perturbation)
        return self._gauges[key]

    def coefficients(self, key: str):
        if key not in self._coeffs:
            self._coeffs[key] = assemble_coefficients(self.gauge(key))
        return self._coeffs[key]


def _perturb_gauge(gd, eps: float):
    """Scale T and its derivative fields by (1 + eps); fault hook."""
    if eps == 0.0:
        return gd
    T = gd.T * (1.0 + eps)
    dT = gd.dT * (1.0 + eps)
    d2T = gd.d2T * (1.0 + eps)
    detT = mat2.det2(T)
    admissible = (~gd.band) & (np.abs(detT) > DET_FLOOR)
    return dataclasses.replace(gd, T=T, dT=dT, d2T=d2T, detT=detT,
                               admissible=admissible)


def check_dirichlet_spectrum(ws: Workspace) -> CheckResult:
    """q=0 on [0, pi]: the first ten eigenvalues are exactly 1, 4, ..., 100."""
    g = build_grid(np.pi, ws.grid_n)
    es = dirichlet_eigensystem(potential(g, 0.0), 10)
    k = np.arange(1, 11, dtype=float)
    measured = float(np.max(np.abs(es.lam / k ** 2 - 1.0)))
    return CheckResult("dirichlet_spectrum", measured, 1e-7, "<=",
                       measured <= 1e-7,
                       "max relative eigenvalue error vs k^2, q=0, l=pi")


def check_dalembert_wave(ws: Workspace) -> CheckResult:
    """q=0 travelling wave: u^h(t, x) equals f0(t - x) before reflection."""
    es = ws.eigensystem("zero")
    kb = ws.kernel("zero")
    f0 = bump(0.06, 0.10, 1.0, smoothness=6)
    c = ControlSignal(f0, Const(0.0))
    t = 0.2 * ws.grid.l
    u = smooth_wave(control_to_kernel(c, kb), t, es)
    ref = f0.deriv(t - es.grid.x, 0)
    measured = float(np.max(np.abs(u.values - ref)))
    return CheckResult("dalembert_wave", measured, 2e-3, "<=",
                       measured <= 2e-3,
                       "sup |spectral wave - f0(t-x)| at t=0.2l, N modes")


def check_fdtd_cross(ws: Workspace) -> CheckResult:
    """Spectral propagator against an independent leapfrog solver, q variable."""
    es = ws.eigensystem("cosine")
    kb = ws.kernel("cosine")
    q = ws.potential("cosine")
    c = ControlSignal(bump(0.12, 0.20, 1.0, smoothness=6), Const(0.0))
    t = ws.grid.l
    u_spec = smooth_wave(control_to_kernel(c, kb), t, es)
    oracle = fdtd_oracle(c, q, horizon=t, cfl=0.5)
    diff = u_spec.values - oracle.values
    measured = float(np.sqrt(quad(GridFunction(ws.grid, np.abs(diff) ** 2 + 0j)).real))
    return CheckResult("fdtd_cross_check", measured, 1e-3, "<=",
                       measured <= 1e-3,
                       "L2 distance between spectral and FDTD fields at t=l")


def check_finite_speed(ws: Workspace) -> CheckResult:
    """Wave mass stays inside the light cone of the active endpoints."""
    es = ws.eigensystem("cosine")
    kb = ws.kernel("cosine")
    c = ControlSignal(bump(0.05, 0.08, 1.0, smoothness=6),
                      bump(0.045, 0.07, 0.8, smoothness=6))
    kc = control_to_kernel(c, kb)
    worst = 0.0
    extras = {}
    for frac in (0.1, 0.2, 0.4):
        t = frac * ws.grid.l
        rep = support_report(smooth_wave(kc, t, es), t, tol=1e-6)
        extras[f"ratio_t{frac:g}"] = rep.ratio
        worst = max(worst, rep.ratio)
    return CheckResult("finite_speed", worst, 1e-6, "<=", worst <= 1e-6,
                       "relative L2 mass outside [0,t+2h) u (l-t-2h, l]", extras)


def check_reachable_span(ws: Workspace) -> CheckResult:
    """Random controls at t=0.6l fill the coarse probe space: the snapshot
    matrix has no numerically dead directions."""
    es = ws.eigensystem("zero")
    kb = ws.kernel("zero")
    se = reachable_span_estimate(0.6 * ws.grid.l, es, kb, samples=96, seed=ws.seed)
    measured = se.ratio
    return CheckResult("reachable_span", measured, 1e-6, ">=",
                       measured >= 1e-6,
                       "sigma_min/sigma_max of 96 random-control snapshots at 24 probes")


def check_gauge_identities(ws: Workspace) -> CheckResult:
    """G = rho T T* everywhere and T* G^{-1} T = rho^{-1} I off det-degeneracy."""
    worst = 0.0
    extras = {}
    for key in ("zero", "one", "cosine"):
        gd = ws.gauge(key)
        G_from_T = gd.rho[:, None, None] * (gd.T @ mat2.herm2(gd.T))
        r1 = float(np.max(np.abs(gd.G - G_from_T)))
        mask = np.abs(gd.detT) > DET_FLOOR
        Tm = gd.T[mask]
        lhs = mat2.herm2(Tm) @ mat2.inv2(gd.G[mask]) @ Tm
        target = np.zeros_like(lhs)
        target[:, 0, 0] = 1.0 / gd.rho[mask]
        target[:, 1, 1] = 1.0 / gd.rho[mask]
        r2 = float(np.max(np.abs(lhs - target)))
        extras[f"gram_assembly_{key}"] = r1
        extras[f"gram_inverse_{key}"] = r2
        worst = max(worst, r1 / 1e-12, r2 / 1e-10)
    return CheckResult("gauge_identities", worst, 1.0, "<=", worst <= 1.0,
                       "worst residual ratio: assembly vs 1e-12, inverse identity vs 1e-10",
                       extras)


def check_parseval(ws: Workspace) -> CheckResult:
    """(u, v) over [0, l] equals the model inner product for a mixed battery."""
    es = ws.eigensystem("cosine")
    gd = ws.gauge("cosine")
    g = ws.grid
    battery = [es.eigenfunction(0), es.eigenfunction(1),
               sample(g, np.ones_like(g.x)),
               sample(g, g.x * (g.l - g.x)),
               gd.e.as_grid_function(g)]
    measured = 0.0
    for i, j in combinations_with_replacement(range(len(battery)), 2):
        measured = max(measured, parseval_residual(battery[i], battery[j], gd))
    return CheckResult("parseval", measured, 1e-6, "<=", measured <= 1e-6,
                       "max |(u,v) - model_inner| over 15 pairs incl. the gauge element")


def check_intertwining(ws: Workspace) -> CheckResult:
    """apply_model(hat u) = hat(-u'' + q u) for smooth u; zero for kernel u."""
    gd = ws.gauge("cosine")
    mc = ws.coefficients("cosine")
    g = ws.grid
    l = g.l
    battery = [Poly((0.0, 0.0, l * l, -2.0 * l, 1.0)),
               Trig("sin", 2.0 * np.pi / l),
               Trig("cos", 3.0),
               bump(0.37 * l, 0.30 * l, 1.0, smoothness=6),
               Poly((1.0, 0.5))]
    measured = 0.0
    for f in battery:
        u = smooth_from_closed_form(g, f)
        measured = max(measured, intertwine_residual(u, gd, mc))
    ker = apply_model(hat_value(gd.e1, gd), mc)
    kernel_res = float(np.max(np.abs(ker.values[mc.admissible])))
    passed = measured <= 1e-6 and kernel_res <= 1e-8
    return CheckResult("intertwining", measured, 1e-6, "<=", passed,
                       "sup residual over 5 analytic functions; kernel element vs 1e-8",
                       {"kernel_element": kernel_res})


def check_eikonal_metric(ws: Workspace) -> CheckResult:
    """Eikonal differences realize |x1 - x2|; metric axioms exact.

    Atom positions are dyadic rationals, so distances, their sums and the
    axiom comparisons are exact float arithmetic, not tolerance checks.
    """
    g = ws.grid
    rng = np.random.default_rng(ws.seed)
    ks = rng.integers(0, 513, size=(10, 2))
    atoms = [(Atom(int(k1) / 1024.0 * g.l), Atom(int(k2) / 1024.0 * g.l))
             for k1, k2 in ks]
    measured = 0.0
    for a1, a2 in atoms:
        d = eikonal_metric(a1, a2, g)
        sup = float(np.max(np.abs(distance_profile(a1, g) - distance_profile(a2, g))))
        measured = max(measured, abs(sup - d))
    pool = [a for pair in atoms for a in pair]
    axioms = all(eikonal_metric(a, a, g) == 0.0 for a in pool)
    for a in pool[:6]:
        for b in pool[:6]:
            axioms = axioms and (eikonal_metric(a, b, g) == eikonal_metric(b, a, g))
            for c in pool[:6]:
                axioms = axioms and (eikonal_metric(a, c, g)
                                     <= eikonal_metric(a, b, g) + eikonal_metric(b, c, g))
    passed = measured <= g.h and axioms
    return CheckResult("eikonal_metric", measured, g.h, "<=", passed,
                       "grid-sup eikonal difference vs |x1-x2|; axioms exact on dyadic atoms",
                       {"axioms_exact": 1.0 if axioms else 0.0})


def check_potential_recovery(ws: Workspace) -> CheckResult:
    """Eigenvalues of S reproduce {q(x), q(l-x)} on [3h, l/2-3h]."""
    mc = ws.coefficients("cosine")
    qf = ws.q_form("cosine")
    g = ws.grid
    rr_a = recover_potential(mc)
    rr_o = recover_potential(mc, sampled_derivatives=True)
    lo = 3.0 * g.h - 1e-12 * g.l

    def _restrict(rr):
        keep = rr.x >= lo
        return dataclasses.replace(rr, x=rr.x[keep], q1=rr.q1[keep],
                                   q2=rr.q2[keep], collision=rr.collision[keep])

    err_a = unordered_branch_error(_restrict(rr_a), qf, g.l)
    err_o = unordered_branch_error(_restrict(rr_o), qf, g.l)
    passed = err_a <= 1e-6 and err_o <= 1e-3
    return CheckResult("potential_recovery", err_a, 1e-6, "<=", passed,
                       "max unordered branch error; observer path vs 1e-3 in extras",
                       {"observer_error": err_o})


def check_form_limit(ws: Workspace) -> CheckResult:
    """Projected-mass ratios converge to the boundary form value."""
    gd = ws.gauge("zero")
    g = ws.grid
    u = sample(g, np.ones_like(g.x))
    worst = 0.0
    extras = {}
    for frac in (0.1, 0.25):
        rep = form_limit_check(u, frac * g.l, gd)
        extras[f"target_x{frac:g}"] = rep.target
        extras[f"deviation_x{frac:g}"] = rep.deviation
        worst = max(worst, rep.deviation)
        if not rep.monotone:
            worst = max(worst, _FAILED_SENTINEL)
    return CheckResult("form_limit", worst, 1e-4, "<=", worst <= 1e-4,
                       "Richardson limit of mass ratios vs boundary form, u=1", extras)


def check_graph_consistency(ws: Workspace) -> CheckResult:
    """Graph points sampled from waves satisfy the model operator equation."""
    es = ws.eigensystem("cosine")
    kb = ws.kernel("cosine")
    gd = ws.gauge("cosine")
    mc = ws.coefficients("cosine")
    l = ws.grid.l
    # wide bumps: the image field scales like h'', so narrow controls put
    # w**-8 weight into the Duhamel quadrature of the h''-driven run
    controls = [ControlSignal(bump(0.15 * l, 0.22 * l, 1.0, smoothness=6), Const(0.0)),
                ControlSignal(bump(0.17 * l, 0.20 * l, 0.8, smoothness=6),
                              bump(0.12 * l, 0.18 * l, -0.6, smoothness=6))]
    t = 0.35 * l
    measured = 0.0
    for c in controls:
        h1, h2 = graph_sample(c, t, es, kb, gd)
        lhs = apply_model(h1, mc)
        diff = np.abs(lhs.values - h2.values)[mc.admissible]
        measured = max(measured, float(np.max(diff)))
    return CheckResult("graph_consistency", measured, 2e-3, "<=",
                       measured <= 2e-3,
                       "sup |apply_model(hat u^h) + hat u^{h''}| for two bump controls")


_CHECKS = [
    ("dirichlet_spectrum", 1e-7, "<=", check_dirichlet_spectrum),
    ("dalembert_wave", 2e-3, "<=", check_dalembert_wave),
    ("fdtd_cross_check", 1e-3, "<=", check_fdtd_cross),
    ("finite_speed", 1e-6, "<=", check_finite_speed),
    ("reachable_span", 1e-6, ">=", check_reachable_span),
    ("gauge_identities", 1.0, "<=", check_gauge_identities),
    ("parseval", 1e-6, "<=", check_parseval),
    ("intertwining", 1e-6, "<=", check_intertwining),
    ("eikonal_metric", None, "<=", check_eikonal_metric),
    ("potential_recovery", 1e-6, "<=", check_potential_recovery),
    ("form_limit", 1e-4, "<=", check_form_limit),
    ("graph_consistency", 2e-3, "<=", check_graph_consistency),
]

CHECK_NAMES = tuple(name for name, _, _, _ in _CHECKS)


def run_all(ws: Workspace) -> VerificationReport:
    """Execute the twelve standard checks; exceptions become failed rows."""
    results = []
    for name, tol, sense, fn in _CHECKS:
        try:
            results.append(fn(ws))
        except SlwaveError as exc:
            results.append(CheckResult(name, _FAILED_SENTINEL,
                                       tol if tol is not None else 0.0,
                                       sense, False,
                                       f"{type(exc).__name__}: {exc}"))
    env = {"grid_n": ws.grid_n, "modes": ws.modes, "seed": ws.seed,
           "t_perturbation": ws.t_perturbation,
           "runtime": {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "platform": platform.platform(),
                       "longdouble_eps": float(np.finfo(np.longdouble).eps),
                       "longdouble_nmant": int(np.finfo(np.longdouble).nmant)}}
    return VerificationReport(tuple(results), env)
