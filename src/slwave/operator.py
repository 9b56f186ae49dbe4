"""Matrix model operator on the half interval and potential recovery.

Hat fields satisfy a second order 2x2 system

    -u^'' + P^ u^' + Q^ u^  =  (L0* u)^,

with coefficients assembled pointwise from the gauge matrix T and its
analytic derivatives:

    P^ = 2 T' T^{-1},
    Q^ = T Q T^{-1} - T (T^{-1})'',     Q = diag(q(x), q(l-x)).

The combination S = Q^ + P^^2/4 - P^'/2 equals T Q T^{-1}, so the pair
{q(x), q(l-x)} is recovered from model data alone as the eigenvalues of S.
Everything here is restricted to the admissible half-grid nodes; inside
the guard band T is too close to singular to invert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import mat2
from .control import ControlSignal, control_to_kernel, smooth_wave
from .errors import ContractError, InternalError, NumericalError
from .grid import GridFunction, diff_samples
from .model import (GaugeData, HatField, SmoothFunction, _require_extended_precision,
                    hat_value)
from .sturm import EigenSystem, KernelBasis

__all__ = [
    "ModelCoefficients", "RecoveryResult", "assemble_coefficients",
    "apply_model", "intertwine_residual", "graph_sample",
    "smooth_from_samples", "recover_potential", "unordered_branch_error",
]

_LD = np.longdouble
_CLD = np.clongdouble
# relative branch separation below which recover_potential flags a collision
_COLLISION_TOL = 1e-6


@dataclass(frozen=True)
class ModelCoefficients:
    """P^, Q^ and the analytic P^' on the half grid.

    Rows outside the admissible mask are zero filled and carry no meaning.
    route_residual is the measured disagreement of the two P^ routes.
    """

    half_x: np.ndarray
    admissible: np.ndarray
    Phat: np.ndarray
    dPhat: np.ndarray
    Qhat: np.ndarray
    h: float
    route_residual: float


def assemble_coefficients(gd: GaugeData) -> ModelCoefficients:
    """Pointwise assembly of the model coefficients from the gauge fields
    and the potential they were built from.

    P^ is computed both as 2 T' T^{-1} and as -2 T (T^{-1})'; the two must
    agree to 1e-10 or the gauge data is corrupt.
    """
    _require_extended_precision("assemble_coefficients")
    m = gd.half
    idx = np.flatnonzero(gd.admissible)
    if idx.size == 0:
        raise NumericalError("no admissible nodes; grid too coarse for the guard band")
    T = gd.T[idx]
    dT = gd.dT[idx]
    d2T = gd.d2T[idx]
    Tinv = mat2.inv2(T, det=gd.detT[idx])

    Phat = 2.0 * (dT @ Tinv)
    dTinv = -Tinv @ dT @ Tinv
    Phat_alt = -2.0 * (T @ dTinv)
    scale = 1.0 + float(np.max(np.abs(Phat)))
    route_res = float(np.max(np.abs(Phat - Phat_alt)))
    if route_res > 1e-10 * scale:
        raise InternalError(
            f"P^ assembly routes disagree by {route_res:.3e}; gauge data is corrupt")

    A = Tinv @ dT
    d2Tinv = -Tinv @ d2T @ Tinv + 2.0 * (A @ A @ Tinv)
    dPhat = 2.0 * (d2T @ Tinv) + 2.0 * (dT @ dTinv)

    qv = gd.q.values.astype(_LD)
    qpair = np.stack([qv[idx], qv[::-1][idx]], axis=1)     # (q(x), q(l-x))
    Qhat = (T * qpair[:, None, :]) @ Tinv - T @ d2Tinv

    def _embed(block):
        full = np.zeros((m + 1, 2, 2), dtype=_CLD)
        full[idx] = block
        return full

    return ModelCoefficients(gd.half_x, gd.admissible.copy(), _embed(Phat),
                             _embed(dPhat), _embed(Qhat), gd.grid.h, route_res)


def apply_model(uh: HatField, mc: ModelCoefficients) -> HatField:
    """-u^'' + P^ u^' + Q^ u^ on the admissible nodes (zero elsewhere)."""
    if not uh.has_derivatives():
        raise ContractError("apply_model needs a hat with derivative data")
    ok = mc.admissible[:, None]
    vals = -uh.d2 + mat2.apply2(mc.Phat, uh.d1) + mat2.apply2(mc.Qhat, uh.values)
    return HatField(mc.half_x, np.where(ok, vals, 0.0))


def intertwine_residual(u: SmoothFunction, gd: GaugeData, mc: ModelCoefficients) -> float:
    """Sup over admissible nodes of | (L u^)(x) - (L0* u)^(x) |.

    Left side: the matrix operator applied to the hat of u.  Right side:
    the hat of -u'' + q u computed directly from samples.  Agreement is
    the unitary-equivalence certificate at the operator level.
    """
    lhs = apply_model(hat_value(u, gd), mc)
    lstar = GridFunction(gd.grid, np.asarray(-u.d2 + gd.q.values * u.values,
                                             dtype=complex))
    rhs = hat_value(lstar, gd)
    diff = np.abs(lhs.values - rhs.values)[mc.admissible]
    return float(np.max(diff))


def smooth_from_samples(u: GridFunction) -> SmoothFunction:
    """Attach fourth-order differenced derivatives to grid samples; the
    observer route when no analytic derivative is available (measured wave
    snapshots)."""
    d1 = diff_samples(u.values, u.grid.h, order=1)
    d2 = diff_samples(u.values, u.grid.h, order=2)
    return SmoothFunction(u.grid, u.values.copy(), d1, d2)


def graph_sample(c: ControlSignal, t: float, es: EigenSystem, kb: KernelBasis,
                 gd: GaugeData) -> Tuple[HatField, HatField]:
    """Point (u^, (L u)^) of the model operator graph sampled from waves.

    First component: hat of u^h(t) with differenced derivatives.  Second:
    hat of -u^{h''}(t), which equals -d2/dt2 u^h(t) and therefore the
    image under the operator.  No model coefficients enter; this is pure
    dynamics data for consistency checks against apply_model.
    """
    u1 = smooth_wave(control_to_kernel(c, kb), t, es)
    u2 = smooth_wave(control_to_kernel(c.differentiate(2), kb), t, es)
    hat1 = hat_value(smooth_from_samples(u1), gd)
    hat2 = hat_value(GridFunction(gd.grid, -u2.values), gd)
    return hat1, hat2


@dataclass(frozen=True)
class RecoveryResult:
    """Potential pair recovered from model coefficients.

    q1/q2 are the continued eigenvalue branches of S = Q^ + P^^2/4 - P^'/2
    at the admissible nodes x; up to relabeling they are {q(x), q(l-x)},
    so the potential is determined up to the reflection x -> l-x.
    collision marks nodes where the two branches are too close to label
    continuously.
    """

    x: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    collision: np.ndarray
    max_imag: float
    note: str


def recover_potential(mc: ModelCoefficients,
                      sampled_derivatives: bool = False) -> RecoveryResult:
    """Eigenvalues of S(x), continued in x by nearest-neighbor matching.

    With sampled_derivatives the analytic P^' is discarded and recomputed
    by order-4 differencing of P^ along the admissible run, emulating an
    observer who only holds tabulated coefficients.
    """
    _require_extended_precision("recover_potential")
    idx = np.flatnonzero(mc.admissible)
    if idx.size < 6:
        raise NumericalError("too few admissible nodes for recovery")
    # keep the contiguous run from the left edge; holes would break both
    # the differencing stencils and branch continuation
    run = int(np.argmin(np.diff(idx) == 1)) + 1 if not np.all(np.diff(idx) == 1) else idx.size
    idx = idx[:run]
    Phat = mc.Phat[idx]
    Qhat = mc.Qhat[idx]
    if sampled_derivatives:
        # det T vanishes linearly at l/2 for every admissible frame, so P^
        # carries at worst a simple pole there.  Difference the bounded
        # field R = (l/2 - x) P^ instead and convert: P^' = (R' + P^)/(l/2 - x).
        # Raw stencils on P^ itself would amplify the pole as h^4/d^6.
        dist = mc.half_x[-1] - mc.half_x[idx]
        R = dist[:, None, None] * Phat
        dR = np.empty_like(R)
        for i in range(2):
            for j in range(2):
                dR[:, i, j] = diff_samples(R[:, i, j].astype(complex), mc.h)
        dPhat = (dR + Phat) / dist[:, None, None]
    else:
        dPhat = mc.dPhat[idx]

    S = Qhat + 0.25 * (Phat @ Phat) - 0.5 * dPhat
    tr = S[:, 0, 0] + S[:, 1, 1]
    disc = tr * tr - 4.0 * mat2.det2(S)
    sq = np.sqrt(disc)
    r1 = 0.5 * (tr + sq)
    r2 = 0.5 * (tr - sq)

    max_imag = float(max(np.max(np.abs(r1.imag)), np.max(np.abs(r2.imag))))
    a = r1.real.astype(float)
    b = r2.real.astype(float)
    if a[0] < b[0]:
        a[0], b[0] = b[0], a[0]
    for k in range(1, a.size):
        keep = abs(a[k] - a[k - 1]) + abs(b[k] - b[k - 1])
        swap = abs(b[k] - a[k - 1]) + abs(a[k] - b[k - 1])
        if swap < keep:
            a[k], b[k] = b[k], a[k]
    sep_scale = 1.0 + np.maximum(np.abs(a), np.abs(b))
    collision = np.abs(a - b) <= _COLLISION_TOL * sep_scale
    note = ("branch labels are continued from the left edge and defined up to "
            "the reflection x -> l-x; collision nodes carry no stable labeling")
    return RecoveryResult(mc.half_x[idx].astype(float), a, b, collision,
                          max_imag, note)


def unordered_branch_error(rr: RecoveryResult, qf, l: float) -> float:
    """Sup error of the branches against the closed form qf, up to the
    reflection x -> l-x: the smaller of the direct and swapped labelings."""
    qx = qf.deriv(rr.x, 0)
    qr = qf.deriv(l - rr.x, 0)
    direct = np.maximum(np.abs(rr.q1 - qx), np.abs(rr.q2 - qr))
    flipped = np.maximum(np.abs(rr.q1 - qr), np.abs(rr.q2 - qx))
    return float(np.max(np.minimum(direct, flipped)))
