"""Boundary control of the wave system: the dictionary from endpoint
signals into the defect kernel, controlled smooth waves, an explicit
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
from typing import Sequence

import numpy as np

from .analytic import ClosedForm, bump, sine_moments, values
from .errors import ConfigurationError, ContractError, NumericalError
from .grid import Grid, GridFunction, _cubic_stencil, quad
from .sturm import EigenSystem, KernelBasis, Potential, check_lower_bound

__all__ = [
    "ControlSignal", "KernelControl", "SupportReport", "control_to_kernel",
    "smooth_wave", "smooth_waves", "fdtd_oracle", "support_report",
    "reachable_span_estimate",
]

_JET_TOL = 1e-9
# cells between the light cone and the region support_report measures
_MARGIN_CELLS = 2
# interior probe points of reachable_span_estimate
_COARSE_M = 24
# bound on forms x modes per sine_moments call of _batched_smooth_wave,
# whatever the control and snapshot counts: the largest work array, the
# power moments of _poly_moments, holds degree + 1 cells per piece and mode
# (11 for a smoothness-6 bump's second derivative, of degree 10), and a
# call's transient measured 5.2 MB on a 300-mode, 48-snapshot simulate
_MOMENT_CELLS = 1 << 15
# leapfrog CFL number dt/h of fdtd_oracle and every caller: at cfl = 1 the
# leapfrog transports q = 0 waves exactly (the magic time step), and with
# the potential averaged over the outer time levels it stays stable there
# for every q >= 0
LEAPFROG_CFL = 1.0
# a horizon within this relative distance of a whole number of steps takes
# that number, so rounding in horizon / h never costs a step or leaves r2 a
# few ulps off 1
_WHOLE_STEPS_TOL = 1e-12


def _check_admissible(f: ClosedForm, name: str):
    """Vanishing 2-jet at t=0; a NaN in the jet fails too."""
    jet = np.abs(f.jet(2)).tolist()
    if not all(v <= _JET_TOL for v in jet):
        raise ContractError(
            f"control {name} must vanish with its first two derivatives at t=0, "
            f"got 2-jet {jet}")


@dataclass(eq=False)
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


@dataclass(eq=False)
class KernelControl:
    """Kernel-valued control h(t) = a(t) phi0 + b(t) phil."""

    a: ClosedForm
    b: ClosedForm
    kb: KernelBasis


def control_to_kernel(c: ControlSignal, kb: KernelBasis) -> KernelControl:
    """Dictionary between endpoint signals and kernel coefficients."""
    a = (-1.0 / kb.phi0_at_l) * c.fl
    b = (-1.0 / kb.phil_at_0) * c.f0
    return KernelControl(a, b, kb)


def _kernel_modal_coefficients(es: EigenSystem, kb: KernelBasis) -> tuple:
    """(phi0, phi_n) and (phil, phi_n) for all computed modes by Green's
    identity: lam_n (phi0, phi_n) = -phi0(l) phi_n'(l) and
    lam_n (phil, phi_n) = phil(0) phi_n'(0)."""
    return (-kb.phi0_at_l * es.dphil / es.lam,
            kb.phil_at_0 * es.dphi0 / es.lam)


def _batched_smooth_wave(controls: Sequence[KernelControl], times,
                         es: EigenSystem, probe=None) -> np.ndarray:
    """Wave snapshots u^h(t) for several kernel controls sharing one
    eigensystem, each at every time; returns real values of shape
    (len(controls) * len(times), n+1), control-major: row i len(times) + j
    holds control i at times[j].  With `probe`, a matrix W of shape
    (m, n+1), the rows are the snapshots at the probe points, u W^T, of
    shape (..., m): the modes and the kernel basis are projected before
    the sum, so no field is built.

    The sine moments are taken a chunk of (control, time) rows at a time
    (at most _MOMENT_CELLS moment cells per call); a(t) and b(t) of every
    control come from one analytic.values pass; the modal sum is one
    matrix product over all rows, from which the kernel term is
    subtracted in place."""
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times):
        raise ConfigurationError("time must be nonnegative")
    check_lower_bound(es)
    kb = controls[0].kb
    mu = np.sqrt(es.lam)
    c0, cl = _kernel_modal_coefficients(es, kb)
    rows = [(kc, t) for kc in controls for t in times]
    coeff = np.empty((len(rows), es.count))
    step = max(1, _MOMENT_CELLS // (2 * es.count))
    for s in range(0, len(rows), step):
        chunk = rows[s:s + step]
        forms = [kc.a for kc, _ in chunk] + [kc.b for kc, _ in chunk]
        m = sine_moments(forms, mu, [t for _, t in chunk] * 2, 2)
        coeff[s:s + step] = (m[:len(chunk)] * c0 + m[len(chunk):] * cl) / mu
    at = values([kc.a for kc in controls] + [kc.b for kc in controls], times)
    at = at.reshape(2, -1).T.copy()
    phi, kernel = es.phi, np.stack([kb.phi0, kb.phil])
    if probe is not None:
        # a probe row holds four stencil weights, so the products run over
        # the at most 4 m columns W touches, not the n+1 nodes; the zeros
        # they skip add nothing to the sums
        cols = np.flatnonzero(probe.any(axis=0))
        phi, kernel = (b[:, cols] @ probe[:, cols].T for b in (phi, kernel))
    u = coeff @ phi
    u -= at @ kernel
    return u


def smooth_waves(h: KernelControl, times: Sequence[float], es: EigenSystem) -> np.ndarray:
    """Controlled waves u^h(t) at every time in `times`: real node values of
    shape (len(times), n+1), row j at times[j].  The snapshots share one
    moment pass and one matrix product (see smooth_wave)."""
    return _batched_smooth_wave([h], times, es)


def smooth_wave(h: KernelControl, t: float, es: EigenSystem) -> GridFunction:
    """Controlled wave u^h(t) = -h(t) + Duhamel term over the computed
    modes.  The Duhamel term is exact per mode: the sine moments of a''
    and b'' (analytic.sine_moments) times the modal coefficients of the
    kernel basis.  Needs lambda_1 > 0 (AdmissibilityError otherwise)."""
    return GridFunction(es.grid, _batched_smooth_wave([h], (t,), es)[0])


def _leapfrog_steps(q: Potential, horizon: float, cfl: float) -> tuple:
    """(steps, dt, r2) of the leapfrog up to `horizon`, time step
    dt <= cfl h and r2 = (dt / h)^2; r2 = 1 exactly when the horizon is a
    whole number of cells and cfl = 1.

    Checks before any work that the scheme is stable.  With the potential
    averaged over the outer time levels, a frozen-coefficient mode of
    fdtd_oracle's update has amplification g + 1/g = 2 c with
    c = (1 - 2 r2 sin^2(k h / 2)) / (1 + dt^2 q / 2).  For q >= 0,
    |c| <= 1 and so |g| = 1 for every mode at any r2 <= 1.  For q < 0 the
    bound needs 1 + dt^2 min(q) / 2 > 0; a step past it is a
    ConfigurationError that names the largest cfl the bound allows.
    Inside it, |c| <= 1 / (1 + dt^2 min(q) / 2), so every mode grows at
    most like exp(t sqrt(-min q)), the rate of the PDE's own smooth modes.
    """
    if not (0.0 < cfl <= 1.0):
        raise ConfigurationError(f"leapfrog needs 0 < cfl <= 1, got {cfl}")
    if horizon <= 0.0:
        raise ConfigurationError("horizon must be positive")
    h = q.grid.h
    steps = max(1, int(math.ceil(horizon / (cfl * h) * (1.0 - _WHOLE_STEPS_TOL))))
    dt = horizon / steps
    r2 = (dt / h) ** 2
    if r2 > 1.0 - 2.0 * _WHOLE_STEPS_TOL:
        r2 = 1.0
    qmin = float(np.min(q.values))
    denom = 1.0 + 0.5 * dt * dt * qmin
    if not denom > 0.0:
        # dt <= cfl h, so every cfl below sqrt(2 / -min q) / h keeps it positive
        stable = (math.ceil(1e4 * math.sqrt(2.0 / -qmin) / h) - 1) / 1e4
        raise ConfigurationError(
            f"leapfrog unstable at cfl={cfl}: 1 + dt^2 min(q)/2 = {denom:.6g} <= 0; "
            f"the largest stable cfl is {stable:.4f}")
    return steps, dt, r2


def fdtd_oracle(c: ControlSignal, q: Potential, horizon: float,
                cfl: float = LEAPFROG_CFL) -> GridFunction:
    """Explicit leapfrog oracle for u_tt = u_xx - q u with endpoint data
    written directly into the boundary nodes and zero initial data;
    returns the field at the horizon.

    The potential term is the mean of the two outer time levels,
    (1 + dt^2 q / 2) (u^{n+1} + u^{n-1}) = 2 u^n + r2 delta^2 u^n, which
    stays explicit because q is diagonal.  At r2 = 1 (cfl = 1 and a whole
    number of cells to the horizon) the update is
    u^{n+1}_j = (u^n_{j+1} + u^n_{j-1}) / (1 + dt^2 q_j / 2) - u^{n-1}_j,
    which transports q = 0 waves exactly; otherwise it adds the centre
    term 2 (1 - r2) u^n_j / (1 + dt^2 q_j / 2).  The first step is the
    Taylor start consistent with zero Cauchy data (interior stays zero,
    boundaries take the signal values).  A time step beyond the stability
    bound of _leapfrog_steps is a ConfigurationError before any work;
    blow-up beyond 1e6 times the control scale still raises a stability
    error.
    """
    steps, dt, r2 = _leapfrog_steps(q, horizon, cfl)
    g = q.grid
    tgrid = dt * np.arange(steps + 1)
    f0v = np.asarray(c.f0(tgrid), dtype=float)
    flv = np.asarray(c.fl(tgrid), dtype=float)
    scale = 1e6 * (1.0 + max(np.max(np.abs(f0v)), np.max(np.abs(flv))))

    # three rotating buffers, each with its stencil views made once,
    # (z, z[1:-1], z[2:], z[:-2]); the interior update is evaluated as
    # ((z[2:] + z[:-2]) side [+ centre z]) - z_prev with
    # side = r2 / (1 + dt^2 q / 2) and centre = 2 (1 - r2) / (1 + dt^2 q / 2);
    # the boundary samples are read as Python floats, the ufuncs bound once
    prev, cur, nxt = ((b, b[1:-1], b[2:], b[:-2])
                      for b in (np.zeros(g.size), np.zeros(g.size), np.empty(g.size)))
    f0s, fls = f0v.tolist(), flv.tolist()
    cur[0][[0, -1]] = f0s[1], fls[1]
    side = 1.0 / (1.0 + 0.5 * dt * dt * q.values[1:-1])
    centre = work = None
    if r2 != 1.0:
        centre = (2.0 * (1.0 - r2)) * side
        side *= r2
        work = np.empty(g.size - 2)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    for m in range(2, steps + 1):
        z_next, out = nxt[0], nxt[1]
        add(cur[2], cur[3], out=out)
        multiply(out, side, out=out)
        if centre is not None:
            multiply(centre, cur[1], out=work)
            add(out, work, out=out)
        subtract(out, prev[1], out=out)
        z_next[0] = f0s[m]
        z_next[-1] = fls[m]
        prev, cur, nxt = cur, nxt, prev
        if m % 100 == 0 and np.max(np.abs(cur[0])) > scale:
            raise NumericalError(
                f"leapfrog instability detected at t={tgrid[m]:.6g} (cfl={cfl})")
    z = cur[0]
    if np.max(np.abs(z)) > scale or not np.all(np.isfinite(z)):
        raise NumericalError(f"leapfrog instability detected at the horizon (cfl={cfl})")
    return GridFunction(g, z)


@dataclass(eq=False)
class SupportReport:
    """L2 mass budget of a snapshot against the reachable set at time t."""

    outside_mass: float
    total_mass: float
    ratio: float
    passed: bool


def support_report(u: GridFunction, t: float, tol: float = 1e-6) -> SupportReport:
    """Mass of u on [t+eps, l-t-eps] (eps = 2 h) relative to the total;
    passes iff the ratio is below tol."""
    g = u.grid
    eps = _MARGIN_CELLS * g.h
    lo, hi = t + eps, g.l - t - eps
    dens = np.abs(u.values) ** 2
    total = quad(GridFunction(g, dens)).real
    if hi <= lo:
        return SupportReport(0.0, total, 0.0, True)
    mask = (g.x >= lo) & (g.x <= hi)
    outside = quad(GridFunction(g, np.where(mask, dens, 0.0))).real
    ratio = outside / total if total > 0.0 else 0.0
    return SupportReport(float(outside), float(total), float(ratio), bool(ratio <= tol))


def _probe_matrix(g: Grid, xq: np.ndarray) -> np.ndarray:
    """Cubic interpolation at xq as a matrix: row i holds the stencil
    weights of xq[i] on its four nodes."""
    j, w = _cubic_stencil(xq, g.x, g.h)
    W = np.zeros((xq.shape[0], g.size))
    W[np.arange(xq.shape[0]), j + np.arange(4)[:, None]] = w
    return W


def _span_draws(t: float, samples: int, seed: int) -> tuple:
    """Centres, widths and amplitudes, each (samples, 2), of the random
    bumps of reachable_span_estimate, supported inside (0, t).  The four
    uniforms of each end (width, centre, amplitude, sign) are drawn in one
    call, in the order of scalar `uniform` draws, and mapped by their own
    arithmetic, low + (high - low) u, so every bit matches those draws."""
    u = np.random.default_rng(seed).random((samples, 2, 4))
    width = (0.1 + (0.4 - 0.1) * u[..., 0]) * t
    lo = 0.02 * t + width / 2.0
    hi = 0.98 * t - width / 2.0
    center = lo + (hi - lo) * u[..., 1]
    amp = (0.5 + (1.5 - 0.5) * u[..., 2]) * np.where(u[..., 3] < 0.5, 1.0, -1.0)
    return center, width, amp


def _span_controls(t: float, kb: KernelBasis, samples: int, seed: int) -> list:
    """The random admissible bump controls of reachable_span_estimate, one
    bump at each end per sample."""
    return [control_to_kernel(ControlSignal(*map(bump, *params)), kb)
            for params in zip(*(v.tolist() for v in _span_draws(t, samples, seed)))]


def reachable_span_estimate(t: float, es: EigenSystem, kb: KernelBasis,
                            samples: int, seed: int = 0) -> np.ndarray:
    """L2-density surrogate for the reachable set at time t.

    Draws `samples` random admissible bump controls acting from both ends,
    collects u^h(t) on a coarse probe grid of 24 interior points (cubic
    interpolation of the snapshots, applied to the modes and the kernel
    basis before the synthesis), and returns the singular values of the
    snapshot matrix, largest first.  Only spans in the L2 sense at fixed t are
    probed; no smooth-norm claim is made.
    """
    if samples < _COARSE_M:
        raise ConfigurationError(
            f"need at least as many samples ({samples}) as probe points ({_COARSE_M})")
    g = es.grid
    xq = g.l * (np.arange(1, _COARSE_M + 1)) / (_COARSE_M + 1.0)
    A = _batched_smooth_wave(_span_controls(t, kb, samples, seed), (t,), es,
                             probe=_probe_matrix(g, xq))
    return np.linalg.svd(A, compute_uv=False)
