"""Executable verification suite.

Each check_* function measures one falsifiable statement about the built
objects (spectrum accuracy, d'Alembert agreement, algebraic gauge
identities, Parseval, intertwining, recovery, ...) and returns a
CheckResult.  run_all executes the standard twelve and wraps them in a
VerificationReport, in CHECK_NAMES order.  The checks share a Workspace,
a lazy cache of the expensive artifacts (eigensystems, kernels, gauges,
coefficients) that holds one potential's pipeline at a time; run_all
runs the checks in _RUN_ORDER, one potential after another, so each
artifact is built once.

Helpers that only the checks call live here, not in the model layers:
the pointwise boundary form and its small-radius limit
(form_limit_check), and graph points sampled from waves (graph_sample).

The t_perturbation knob scales the gauge matrix fields by (1 + eps) after
assembly.  It exists for fault injection, and the checks catch it by
measurement: gauge_identities reads about 1e12 eps against its 1, and
parseval reads 2 eps, so from eps = 1e-6 on it fails as well.
intertwining and graph_consistency do not move: a constant factor on T
leaves P^ and Q^ unchanged, which is the gauge freedom of the model, not
a blind spot.
"""

from __future__ import annotations

import dataclasses
import platform
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from . import mat2
from .analytic import Const, Poly, Trig, bump
from .control import (ControlSignal, _batched_smooth_wave, control_to_kernel,
                      fdtd_oracle, reachable_span_estimate, smooth_wave,
                      smooth_waves, support_report)
from .errors import (ConfigurationError, NumericalError, SlwaveError,
                     VerificationFailure)
from .geometry import distance_profile
from .grid import (GridFunction, _cubic_apply, _cubic_stencil, build_grid, diff_samples,
                   inner, interp_cubic, quad, sample, simpson_sum)
from .model import (DET_FLOOR, GaugeData, SmoothFunction, default_gauge, hat_value,
                    model_inner, smooth_from_closed_form)
from .operator import (apply_model, assemble_coefficients, intertwine_residual,
                       recover_potential, unordered_branch_error)
from .sturm import (EigenSystem, KernelBasis, dirichlet_eigensystem, kernel_basis,
                    potential)

__all__ = ["CheckResult", "VerificationReport", "Workspace", "run_all",
           "CHECK_NAMES"]

_FAILED_SENTINEL = 9e99


@dataclass(eq=False)
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
            self.detail = f"{self.detail} [measured {self.measured}]".strip()
            self.measured = _FAILED_SENTINEL
            self.passed = False

    def to_dict(self) -> dict:
        return {"name": self.name, "measured": self.measured,
                "tolerance": self.tolerance, "sense": self.sense,
                "passed": self.passed, "detail": self.detail,
                "extras": dict(sorted(self.extras.items()))}


@dataclass(eq=False)
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

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks],
                "environment": self.environment}


class Workspace:
    """Lazily-built artifacts the checks share, on [0, 1], for one potential at a time."""

    _Q_EXPR = {"zero": "const(0)", "one": "const(1)", "cosine": "2 + cos(3)"}

    def __init__(self, grid_n: int = 2000, modes: int = 300, seed: int = 0,
                 t_perturbation: float = 0.0):
        self.grid_n = int(grid_n)
        self.modes = int(modes)
        self.seed = int(seed)
        self.t_perturbation = float(t_perturbation)
        self.grid = build_grid(1.0, self.grid_n)
        self._built = {}

    def _memo(self, kind: str, key: str, build):
        """The artifact (kind, key) of potential `key`, built by build() on
        first use, after the artifacts of every other potential are dropped."""
        if (kind, key) not in self._built:
            self._built = {a: v for a, v in self._built.items() if a[1] == key}
            self._built[kind, key] = build()
        return self._built[kind, key]

    def potential(self, key: str):
        return self._memo("potential", key, lambda: potential(self.grid, self._Q_EXPR[key]))

    def eigensystem(self, key: str):
        return self._memo("eigensystem", key,
                          lambda: dirichlet_eigensystem(self.potential(key), self.modes))

    def kernel(self, key: str):
        return self._memo("kernel", key, lambda: kernel_basis(self.potential(key)))

    def gauge(self, key: str):
        return self._memo("gauge", key, lambda: _perturb_gauge(
            default_gauge(self.kernel(key)), self.t_perturbation))

    def coefficients(self, key: str):
        return self._memo("coefficients", key,
                          lambda: assemble_coefficients(self.gauge(key)))


def _declared(ws: Workspace, name: str) -> tuple:
    """The tolerance and sense of check `name` in _CHECKS; a tolerance of
    None there is the grid step h."""
    _, tol, sense, _ = next(c for c in _CHECKS if c[0] == name)
    return (ws.grid.h if tol is None else tol), sense


def _result(ws: Workspace, name: str, measured: float, detail: str, extras: dict = None,
            also: bool = True) -> CheckResult:
    """The CheckResult of check `name`, with its declared tolerance and
    sense; `also` is a pass condition beside the tolerance."""
    tol, sense = _declared(ws, name)
    within = measured <= tol if sense == "<=" else measured >= tol
    return CheckResult(name, measured, tol, sense, bool(within and also), detail,
                       extras or {})


def _perturb_gauge(gd, eps: float):
    """Scale T and its derivative fields by (1 + eps); fault hook."""
    if eps == 0.0:
        return gd
    T = gd.T * (1.0 + eps)
    return dataclasses.replace(gd, T=T, dT=gd.dT * (1.0 + eps),
                               d2T=gd.d2T * (1.0 + eps), detT=mat2.det2(T))


def check_dirichlet_spectrum(ws: Workspace) -> CheckResult:
    """q=0 on [0, pi]: the first ten eigenvalues are exactly 1, 4, ..., 100."""
    g = build_grid(np.pi, ws.grid_n)
    es = dirichlet_eigensystem(potential(g, 0.0), 10)
    k = np.arange(1, 11, dtype=float)
    measured = float(np.max(np.abs(es.lam / k ** 2 - 1.0)))
    return _result(ws, "dirichlet_spectrum", measured,
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
    return _result(ws, "dalembert_wave", measured,
                   "sup |spectral wave - f0(t-x)| at t=0.2l, N modes")


def check_fdtd_cross(ws: Workspace) -> CheckResult:
    """Spectral propagator against an independent leapfrog solver, q variable."""
    es = ws.eigensystem("cosine")
    kb = ws.kernel("cosine")
    q = ws.potential("cosine")
    c = ControlSignal(bump(0.12, 0.20, 1.0, smoothness=6), Const(0.0))
    t = ws.grid.l
    u_spec = smooth_wave(control_to_kernel(c, kb), t, es)
    oracle = fdtd_oracle(c, q, horizon=t)
    diff = u_spec.values - oracle.values
    measured = float(np.sqrt(quad(GridFunction(ws.grid, np.abs(diff) ** 2)).real))
    return _result(ws, "fdtd_cross_check", measured,
                   "L2 distance between spectral and FDTD fields at t=l")


def check_finite_speed(ws: Workspace) -> CheckResult:
    """Wave mass stays inside the light cone of the active endpoints."""
    es = ws.eigensystem("cosine")
    kb = ws.kernel("cosine")
    c = ControlSignal(bump(0.05, 0.08, 1.0, smoothness=6),
                      bump(0.045, 0.07, 0.8, smoothness=6))
    fracs = (0.1, 0.2, 0.4)
    times = [frac * ws.grid.l for frac in fracs]
    snaps = smooth_waves(control_to_kernel(c, kb), times, es)
    worst = 0.0
    extras = {}
    for frac, t, snap in zip(fracs, times, snaps):
        rep = support_report(GridFunction(ws.grid, snap), t)
        extras[f"ratio_t{frac:g}"] = rep.ratio
        worst = max(worst, rep.ratio)
    return _result(ws, "finite_speed", worst,
                   "relative L2 mass outside [0,t+2h) u (l-t-2h, l]", extras)


def check_reachable_span(ws: Workspace) -> CheckResult:
    """Random controls at t=0.6l fill the coarse probe space: the snapshot
    matrix has no numerically dead directions."""
    es = ws.eigensystem("zero")
    kb = ws.kernel("zero")
    sv = reachable_span_estimate(0.6 * ws.grid.l, es, kb, samples=96, seed=ws.seed)
    ratio = float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0
    return _result(ws, "reachable_span", ratio,
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
        lhs = mat2.herm2(Tm) @ gd.Ginv[mask] @ Tm
        target = np.zeros_like(lhs)
        target[:, 0, 0] = 1.0 / gd.rho[mask]
        target[:, 1, 1] = 1.0 / gd.rho[mask]
        r2 = float(np.max(np.abs(lhs - target)))
        extras[f"gram_assembly_{key}"] = r1
        extras[f"gram_inverse_{key}"] = r2
        worst = max(worst, r1 / 1e-12, r2 / 1e-10)
    return _result(ws, "gauge_identities", worst,
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
    hats = [hat_value(u, gd) for u in battery]
    measured = 0.0
    for i, j in combinations_with_replacement(range(len(battery)), 2):
        residual = abs(inner(battery[i], battery[j]) - model_inner(hats[i], hats[j], gd))
        measured = max(measured, float(residual))
    return _result(ws, "parseval", measured,
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
    ker = apply_model(hat_value(gd.e1.as_smooth(g), gd), mc)
    kernel_res = float(np.max(np.abs(ker[mc.admissible])))
    return _result(ws, "intertwining", measured,
                   "sup residual over 5 analytic functions; kernel element vs 1e-8",
                   {"kernel_element": kernel_res}, also=kernel_res <= 1e-8)


def check_eikonal_metric(ws: Workspace) -> CheckResult:
    """Eikonal differences realize |x1 - x2|; metric axioms exact.

    The profiles of the 20 drawn atoms are built once, and the grid sup of
    every pairwise difference is held against D = |x_i - x_j| to within h:
    the eikonal differences realize the atom metric.  Atom positions are
    dyadic rationals, so distances, their sums and the axiom comparisons
    on D are exact float arithmetic, not tolerance checks.
    """
    g = ws.grid
    rng = np.random.default_rng(ws.seed)
    x = rng.integers(0, 513, size=(10, 2)).ravel() / 1024.0 * g.l
    D = np.abs(x[:, None] - x[None, :])
    # grid sup of every profile difference, one row at a time
    prof = np.stack([distance_profile(a, g) for a in x])
    sup = np.stack([np.max(np.abs(prof - row), axis=1) for row in prof])
    off = np.abs(sup - D)
    if np.any(off > g.h):
        i, j = np.unravel_index(np.argmax(off), off.shape)
        raise NumericalError(
            f"eikonal sup-norm {sup[i, j]} disagrees with |x1-x2| = {D[i, j]} beyond h")
    # the ten drawn pairs are the atoms (2i, 2i + 1)
    pairs = np.arange(0, len(x), 2)
    measured = float(np.max(off[pairs, pairs + 1]))
    axioms = bool(np.all(np.diag(D) == 0.0) and np.array_equal(D, D.T)
                  and np.all(D[:, None, :] <= D[:, :, None] + D[None, :, :]))
    return _result(ws, "eikonal_metric", measured,
                   "grid-sup eikonal difference vs |x1-x2|; axioms exact on dyadic atoms",
                   {"axioms_exact": 1.0 if axioms else 0.0}, also=axioms)


def check_potential_recovery(ws: Workspace) -> CheckResult:
    """Eigenvalues of S reproduce {q(x), q(l-x)} on [3h, l/2-3h]."""
    mc = ws.coefficients("cosine")
    qf = ws.potential("cosine").fn
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
    return _result(ws, "potential_recovery", err_a,
                   "max unordered branch error; observer path vs 1e-3 in extras",
                   {"observer_error": err_o}, also=err_o <= 1e-3)


def _check_atom(x: float, l: float) -> None:
    if not (0.0 <= x <= 0.5 * l * (1.0 + 1e-12)):
        raise ConfigurationError(f"boundary form is defined for x in [0, l/2], got {x}")


def boundary_form(u: GridFunction, v: GridFunction, x: float, gd: GaugeData) -> complex:
    """Pointwise boundary form
    <u, v>_x = (u(x) conj(v(x)) + u(l-x) conj(v(l-x))) / rho(x),
    with cubic interpolation off the nodes."""
    l = gd.grid.l
    _check_atom(x, l)
    ux = interp_cubic(u, [x, l - x])
    vx = ux if v is u else interp_cubic(v, [x, l - x])
    stencil = _cubic_stencil(np.array([x]), gd.grid.x[: gd.half + 1], gd.grid.h)
    rho = float(_cubic_apply(gd.rho, *stencil)[0])
    return complex((ux[0] * np.conj(vx[0]) + ux[1] * np.conj(vx[1])) / rho)


def union_masses(fs, unions) -> list:
    """L2 masses of the grid functions fs (one grid) over each union of
    intervals (a, b), one list per function; an overlap counts once per
    interval.  Each interval is clipped to [0, l], resampled by cubic
    interpolation (one stencil for every interval) and integrated by
    Simpson, so endpoint cells are not smeared to node resolution."""
    g = fs[0].grid
    xs, parts, off = [np.empty(0)], [], 0
    for union in unions:
        parts.append([])
        for a, b in union:
            a, b = max(0.0, a), min(g.l, b)
            if b <= a:
                continue
            m = max(32, 2 * int(np.ceil((b - a) / g.h)))
            xs.append(np.linspace(a, b, m + 1))
            parts[-1].append((off, off + m + 1, (b - a) / m))
            off += m + 1
    stencil = _cubic_stencil(np.concatenate(xs), g.x, g.h)
    dens = [np.abs(_cubic_apply(f.values, *stencil)) ** 2 for f in fs]
    masses = [[0.0] * len(parts) for _ in fs]
    for d, row in zip(dens, masses):
        for k, part in enumerate(parts):
            # left to right, one rounding a term: sum() compensates from Python 3.12
            for i, j, dx in part:
                row[k] += float(simpson_sum(d[i:j], dx).real)
    return masses


@dataclass(eq=False)
class FormLimitReport:
    """Small-radius limit of atom-projected mass ratios against the
    pointwise boundary form."""

    target: float
    deviation: float
    monotone: bool


def form_limit_check(u: GridFunction, x: float, gd: GaugeData) -> FormLimitReport:
    """Ratio ||P_{omega_x(t)} u||^2 / ||P_{omega_x(t)} e||^2 for t = 0.08 l,
    0.04 l and 0.02 l, Richardson-extrapolated in t^2 and compared with the
    boundary form value at x in [0, l/2].  omega_x(t) is the radius-t
    intervals about x and l - x, their masses summed even where they
    overlap, which keeps each mass's expansion in t^2."""
    l = gd.grid.l
    _check_atom(x, l)
    radii = (0.08 * l, 0.04 * l, 0.02 * l)
    if radii[0] >= x:
        raise ConfigurationError("largest radius must stay inside (0, l)")
    e_gf = gd.e.as_grid_function(gd.grid)
    unions = [((x - t, x + t), (l - x - t, l - x + t)) for t in radii]
    ratios = [a / b for a, b in zip(*union_masses((u, e_gf), unions))]
    t1, t2 = radii[-2], radii[-1]
    r1, r2 = ratios[-2], ratios[-1]
    extrapolated = r2 + (r2 - r1) * t2 ** 2 / (t1 ** 2 - t2 ** 2)
    target = boundary_form(u, u, x, gd).real
    deviation = abs(extrapolated - target)
    devs = [abs(r - target) for r in ratios]
    floor = max(1e-10, 1e-8 * abs(target))
    monotone = all(d2 <= d1 * 2.0 + floor for d1, d2 in zip(devs, devs[1:]))
    return FormLimitReport(float(target), float(deviation), monotone)


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
    return _result(ws, "form_limit", worst,
                   "Richardson limit of mass ratios vs boundary form, u=1", extras)


def smooth_from_samples(u: GridFunction) -> SmoothFunction:
    """Attach fourth-order differenced derivatives to grid samples; the
    observer route when no analytic derivative is available (measured wave
    snapshots)."""
    d1 = diff_samples(u.values, u.grid.h, order=1)
    d2 = diff_samples(u.values, u.grid.h, order=2)
    return SmoothFunction(u.grid, u.values.copy(), d1, d2)


def graph_sample(c: ControlSignal, t: float, es: EigenSystem, kb: KernelBasis,
                 gd: GaugeData) -> tuple:
    """Point (u^, (L u)^) of the model operator graph sampled from waves.

    First component: hat of u^h(t) with differenced derivatives.  Second:
    hat of -u^{h''}(t), which equals -d2/dt2 u^h(t) and therefore the
    image under the operator.  No model coefficients enter; this is pure
    dynamics data for consistency checks against apply_model.  Both
    waves come from one batched synthesis.
    """
    u1, u2 = _batched_smooth_wave([control_to_kernel(c, kb),
                                   control_to_kernel(c.differentiate(2), kb)], (t,), es)
    hat1 = hat_value(smooth_from_samples(GridFunction(gd.grid, u1)), gd)
    hat2 = hat_value(GridFunction(gd.grid, -u2), gd)
    return hat1, hat2


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
        diff = np.abs(lhs - h2.values)[mc.admissible]
        measured = max(measured, float(np.max(diff)))
    return _result(ws, "graph_consistency", measured,
                   "sup |apply_model(hat u^h) + hat u^{h''}| for two bump controls")


# (name, tolerance, sense, check); a tolerance of None is the grid step h
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

# the order run_all runs the checks in: those that read no Workspace
# artifact, then the q = 0, q = 1 and cosine pipelines in turn
_RUN_ORDER = ("dirichlet_spectrum", "eikonal_metric", "dalembert_wave", "reachable_span",
              "form_limit", "gauge_identities", "fdtd_cross_check", "finite_speed",
              "parseval", "intertwining", "potential_recovery", "graph_consistency")


def _run_check(ws: Workspace, entry: tuple) -> CheckResult:
    """The result of one _CHECKS entry; an exception is a failed row."""
    name, _, _, fn = entry
    try:
        return fn(ws)
    except SlwaveError as exc:
        return CheckResult(name, _FAILED_SENTINEL, *_declared(ws, name), False,
                           f"{type(exc).__name__}: {exc}")


def run_all(ws: Workspace) -> VerificationReport:
    """Execute the twelve standard checks; exceptions become failed rows.

    The checks run in _RUN_ORDER, so that the Workspace, which holds one
    potential's pipeline at a time, builds each artifact once; they are
    reported in CHECK_NAMES order."""
    entries = {entry[0]: entry for entry in _CHECKS}
    results = {name: _run_check(ws, entries[name]) for name in _RUN_ORDER}
    env = {"grid_n": ws.grid_n, "modes": ws.modes, "seed": ws.seed,
           "t_perturbation": ws.t_perturbation,
           "runtime": {"python": platform.python_version(),
                       "numpy": np.__version__,
                       "platform": platform.platform(),
                       "longdouble_eps": float(np.finfo(np.longdouble).eps),
                       "longdouble_nmant": int(np.finfo(np.longdouble).nmant)}}
    return VerificationReport(tuple(results[name] for name in CHECK_NAMES), env)
