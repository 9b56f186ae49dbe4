"""Boundary control of the wave system: trace maps into the defect kernel,
controlled smooth waves, separable interior source waves, an explicit
time-stepping oracle, and reachability diagnostics.

The control dictionary translates endpoint signals (f0, fl) into the
time-dependent kernel element h(t) = a(t) phi0 + b(t) phil with
a(t) = -fl(t)/phi0(l) and b(t) = -f0(t)/phil(0); evaluated at the ends this
gives h(t)(0) = -f0(t) and h(t)(l) = -fl(t).  The controlled wave is
u^h(t) = -h(t) + int_0^t L^{-1/2} sin((t-s) L^{1/2}) h''(s) ds, realized on
the first computed modes.  The s-integral is exact: every control is a
closed form, so each mode's Duhamel term is a sine moment of a'' and b''
(analytic.sine_moments), and the modal coefficients of phi0 and phil come
from Green's identity instead of a quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .analytic import ClosedForm, bump, sine_moments
from .errors import ConfigurationError, ContractError, NumericalError
from .grid import Grid, GridFunction, _cubic_stencil, quad
from .sturm import (EigenSystem, KernelBasis, Potential, check_lower_bound,
                    modal_coefficients)

__all__ = [
    "ControlSignal", "KernelControl", "SourceTerm", "SupportReport",
    "SpanEstimate", "gamma1", "gamma2", "control_to_kernel", "smooth_wave",
    "source_wave", "fdtd_oracle", "support_report", "reachable_span_estimate",
]

_JET_TOL = 1e-9
# cells between the light cone and the region support_report measures
_MARGIN_CELLS = 2
# interior probe points of reachable_span_estimate
_COARSE_M = 24


def _check_admissible(f: ClosedForm, name: str):
    """Vanishing 2-jet at t=0."""
    t0 = np.zeros(1)
    jet = [float(np.max(np.abs(f.deriv(t0, k)))) for k in range(3)]
    if max(jet) > _JET_TOL:
        raise ContractError(
            f"control {name} must vanish with its first two derivatives at t=0, "
            f"got 2-jet {jet}")


@dataclass(frozen=True)
class ControlSignal:
    """Endpoint control pair (f0 at x=0, fl at x=l) with analytic
    derivatives and a vanishing 2-jet at t=0."""

    f0: ClosedForm
    fl: ClosedForm

    def __post_init__(self):
        _check_admissible(self.f0, "f0")
        _check_admissible(self.fl, "fl")

    def differentiate(self, k: int = 1) -> "ControlSignal":
        """Signal pair differentiated k times (used for graph sampling);
        admissibility of the derivatives is re-validated."""
        return ControlSignal(self.f0.differentiate(k), self.fl.differentiate(k))


@dataclass(frozen=True)
class KernelControl:
    """Kernel-valued control h(t) = a(t) phi0 + b(t) phil."""

    a: ClosedForm
    b: ClosedForm
    kb: KernelBasis


def gamma1(u: GridFunction, kb: KernelBasis) -> tuple:
    """Kernel coefficients of the first trace map,
    (a, b) = (-u(l)/phi0(l), -u(0)/phil(0))."""
    a = -complex(u.values[-1]) / kb.phi0_at_l
    b = -complex(u.values[0]) / kb.phil_at_0
    return a, b


def gamma2(u: GridFunction, lstar_u: GridFunction, kb: KernelBasis) -> tuple:
    """Kernel projection coefficients of the second trace map.

    Solves the 2x2 Gram system of (phi0, phil) against the inner products
    of lstar_u (samples of -u'' + q u) with the basis.
    """
    p0, pl = kb.phi0.u, kb.phil.u
    from .grid import inner
    g11 = inner(p0, p0).real
    g12 = inner(pl, p0).real
    g22 = inner(pl, pl).real
    r0 = inner(lstar_u, p0)
    rl = inner(lstar_u, pl)
    det = g11 * g22 - g12 * g12
    if abs(det) < 1e-14 * max(1.0, g11 * g22):
        raise NumericalError("kernel basis Gram matrix is numerically singular")
    c0 = (g22 * r0 - g12 * rl) / det
    cl = (g11 * rl - g12 * r0) / det
    return complex(c0), complex(cl)


def control_to_kernel(c: ControlSignal, kb: KernelBasis) -> KernelControl:
    """Dictionary between endpoint signals and kernel coefficients."""
    a = (-1.0 / kb.phi0_at_l) * c.fl
    b = (-1.0 / kb.phil_at_0) * c.f0
    return KernelControl(a, b, kb)


def _kernel_modal_coefficients(es: EigenSystem, kb: KernelBasis) -> tuple:
    """(phi0, phi_n) and (phil, phi_n) for all computed modes by Green's
    identity: lam_n (phi0, phi_n) = -phi0(l) phi_n'(l) and
    lam_n (phil, phi_n) = phil(0) phi_n'(0)."""
    return (-kb.phi0_at_l * es.dphi[:, -1] / es.lam,
            kb.phil_at_0 * es.dphi[:, 0] / es.lam)


def _batched_smooth_wave(controls: Sequence[KernelControl], t: float,
                         es: EigenSystem) -> np.ndarray:
    """Wave snapshots u^h(t) for several kernel controls sharing one
    eigensystem; returns real values of shape (len(controls), n+1)."""
    if t < 0.0:
        raise ConfigurationError("time must be nonnegative")
    check_lower_bound(es)
    kb = controls[0].kb
    mu = np.sqrt(es.lam)
    c0, cl = _kernel_modal_coefficients(es, kb)
    m = sine_moments([kc.a for kc in controls] + [kc.b for kc in controls], mu, t, 2)
    coeff = (m[:len(controls)] * c0 + m[len(controls):] * cl) / mu
    at = np.array([[float(kc.a.deriv(t, 0)), float(kc.b.deriv(t, 0))] for kc in controls])
    kernel = np.stack([kb.phi0.u.values.real, kb.phil.u.values.real])
    return coeff @ es.phi - at @ kernel


def smooth_wave(h: KernelControl, t: float, es: EigenSystem) -> GridFunction:
    """Controlled wave u^h(t) = -h(t) + Duhamel term over the computed
    modes.  The Duhamel term is exact per mode: the sine moments of a''
    and b'' (analytic.sine_moments) times the modal coefficients of the
    kernel basis.  Needs lambda_1 > 0 (AdmissibilityError otherwise)."""
    vals = _batched_smooth_wave([h], t, es)[0]
    return GridFunction(es.grid, vals)


@dataclass(frozen=True)
class SourceTerm:
    """Separable interior source g(s) = signal(s) * profile."""

    profile: GridFunction
    signal: ClosedForm


def source_wave(g: Union[SourceTerm, Sequence[SourceTerm]], t: float,
                es: EigenSystem) -> GridFunction:
    """Source wave v^g(t) = int_0^t L^{-1/2} sin((t-s)L^{1/2}) g(s) ds of a
    separable source (or a sum of them), exact in s through the sine
    moments of the signals."""
    if t < 0.0:
        raise ConfigurationError("time must be nonnegative")
    check_lower_bound(es)
    if t == 0.0:
        return GridFunction(es.grid, np.zeros(es.grid.size))
    mu = np.sqrt(es.lam)
    if isinstance(g, SourceTerm):
        g = [g]
    if not isinstance(g, Sequence):
        raise ContractError("source must be a SourceTerm or a sequence of them")
    m = sine_moments([term.signal for term in g], mu, t, 0)
    cn = np.stack([modal_coefficients(es, term.profile) for term in g])
    coeff = np.sum(cn * m, axis=0) / mu
    return GridFunction(es.grid, coeff @ es.phi)


def fdtd_oracle(c: ControlSignal, q: Potential, horizon: float,
                cfl: float = 0.5) -> GridFunction:
    """Explicit leapfrog oracle for u_tt = u_xx - q u with endpoint data
    written directly into the boundary nodes and zero initial data;
    returns the field at the horizon.

    The first step is the Taylor start consistent with zero Cauchy data
    (interior stays zero, boundaries take the signal values).  Blow-up
    beyond 1e6 times the control scale raises a stability error.
    """
    if not (0.0 < cfl <= 0.98):
        raise ConfigurationError(f"leapfrog needs 0 < cfl <= 0.98, got {cfl}")
    if horizon <= 0.0:
        raise ConfigurationError("horizon must be positive")
    g = q.grid
    h = g.h
    steps = max(1, int(math.ceil(horizon / (cfl * h))))
    dt = horizon / steps
    r2 = (dt / h) ** 2
    qv = q.values
    tgrid = dt * np.arange(steps + 1)
    f0v = np.asarray(c.f0(tgrid), dtype=float)
    flv = np.asarray(c.fl(tgrid), dtype=float)
    scale = 1e6 * (1.0 + max(np.max(np.abs(f0v)), np.max(np.abs(flv))))

    # three rotating buffers; the interior update is evaluated as
    # ((2z - z_prev) + r2 ((z[2:] - 2z) + z[:-2])) - (dt^2 q) z
    z_prev = np.zeros(g.size)
    z = np.zeros(g.size)
    z_next = np.empty(g.size)
    z[0] = f0v[1]
    z[-1] = flv[1]
    dq = dt * dt * qv[1:-1]
    two_z = np.empty(g.size - 2)
    work = np.empty(g.size - 2)
    for m in range(2, steps + 1):
        zi = z[1:-1]
        np.multiply(2.0, zi, out=two_z)
        np.subtract(z[2:], two_z, out=work)
        work += z[:-2]
        work *= r2
        out = z_next[1:-1]
        np.subtract(two_z, z_prev[1:-1], out=out)
        out += work
        np.multiply(dq, zi, out=work)
        out -= work
        z_next[0] = f0v[m]
        z_next[-1] = flv[m]
        z_prev, z, z_next = z, z_next, z_prev
        if m % 100 == 0 and np.max(np.abs(z)) > scale:
            raise NumericalError(
                f"leapfrog instability detected at t={tgrid[m]:.6g} (cfl={cfl})")
    if np.max(np.abs(z)) > scale or not np.all(np.isfinite(z)):
        raise NumericalError(f"leapfrog instability detected at the horizon (cfl={cfl})")
    return GridFunction(g, z)


@dataclass(frozen=True)
class SupportReport:
    """L2 mass budget of a snapshot against the reachable set at time t."""

    t: float
    margin: float
    region: tuple
    outside_mass: float
    total_mass: float
    ratio: float
    tol: float
    passed: bool


def support_report(u: GridFunction, t: float, tol: float = 1e-6) -> SupportReport:
    """Mass of u on [t+eps, l-t-eps] (eps = 2 h) relative to the total;
    passes iff the ratio is below tol."""
    g = u.grid
    eps = _MARGIN_CELLS * g.h
    lo, hi = t + eps, g.l - t - eps
    dens = np.abs(u.values) ** 2
    total = quad(GridFunction(g, dens.astype(complex))).real
    if hi <= lo:
        return SupportReport(t, eps, (lo, hi), 0.0, total, 0.0, tol, True)
    mask = (g.x >= lo) & (g.x <= hi)
    outside = quad(GridFunction(g, np.where(mask, dens, 0.0).astype(complex))).real
    ratio = outside / total if total > 0.0 else 0.0
    return SupportReport(t, eps, (lo, hi), float(outside), float(total),
                         float(ratio), tol, bool(ratio <= tol))


@dataclass(frozen=True)
class SpanEstimate:
    """Snapshot matrix on a coarse probe grid and its singular values."""

    t: float
    coarse_x: np.ndarray
    snapshots: np.ndarray       # (samples, coarse_m)
    singular_values: np.ndarray

    @property
    def ratio(self) -> float:
        sv = self.singular_values
        return float(sv[-1] / sv[0]) if sv[0] > 0.0 else 0.0


def _probe_matrix(g: Grid, xq: np.ndarray) -> np.ndarray:
    """Cubic interpolation at xq as a matrix: row i holds the stencil
    weights of xq[i] on its four nodes."""
    j, w = _cubic_stencil(xq, g.x, g.h)
    W = np.zeros((xq.shape[0], g.size))
    W[np.arange(xq.shape[0]), j + np.arange(4)[:, None]] = w
    return W


def reachable_span_estimate(t: float, es: EigenSystem, kb: KernelBasis,
                            samples: int, seed: int = 0) -> SpanEstimate:
    """L2-density surrogate for the reachable set at time t.

    Draws `samples` random admissible bump controls acting from both ends,
    collects u^h(t) on a coarse probe grid of 24 interior points (cubic
    interpolation of the snapshots), and returns the singular value profile
    of the snapshot matrix.  Only spans in the L2 sense at fixed t are
    probed; no smooth-norm claim is made.
    """
    if samples < _COARSE_M:
        raise ConfigurationError(
            f"need at least as many samples ({samples}) as probe points ({_COARSE_M})")
    g = es.grid
    rng = np.random.default_rng(seed)
    controls = []
    for _ in range(samples):
        sig = {}
        for end in ("f0", "fl"):
            wsup = float(rng.uniform(0.1, 0.4)) * t
            lo = 0.02 * t + wsup / 2.0
            hi = 0.98 * t - wsup / 2.0
            center = float(rng.uniform(lo, hi))
            amp = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            sig[end] = bump(center, wsup, amp)
        controls.append(control_to_kernel(ControlSignal(sig["f0"], sig["fl"]), kb))
    fields = _batched_smooth_wave(controls, t, es)
    xq = g.l * (np.arange(1, _COARSE_M + 1)) / (_COARSE_M + 1.0)
    A = fields @ _probe_matrix(g, xq).T
    sv = np.linalg.svd(A, compute_uv=False)
    return SpanEstimate(t, xq, A, sv)
