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
the guard band T is too close to singular to invert.  The arithmetic runs
in the precision of the gauge fields (extended, see model.py) or, for
tabulated coefficients, in double.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mat2
from .errors import ContractError, InternalError, NumericalError
from .grid import GridFunction, diff_samples
from .model import GaugeData, HatField, SmoothFunction, hat_value

__all__ = [
    "ModelCoefficients", "RecoveryResult", "assemble_coefficients",
    "apply_model", "intertwine_residual", "recover_potential",
    "unordered_branch_error",
]

# relative branch separation below which recover_potential flags a collision
_COLLISION_TOL = 1e-6


@dataclass(eq=False)
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

    qv = gd.q.values.astype(gd.rho.dtype)
    qpair = np.stack([qv[idx], qv[::-1][idx]], axis=1)     # (q(x), q(l-x))
    Qhat = (T * qpair[:, None, :]) @ Tinv - T @ d2Tinv

    def _embed(block):
        full = np.zeros((m + 1, 2, 2), dtype=block.dtype)
        full[idx] = block
        return full

    return ModelCoefficients(gd.half_x, gd.admissible.copy(), _embed(Phat),
                             _embed(dPhat), _embed(Qhat), gd.grid.h, route_res)


def apply_model(uh: HatField, mc: ModelCoefficients) -> np.ndarray:
    """-u^'' + P^ u^' + Q^ u^ on the admissible nodes (zero elsewhere)."""
    if uh.d1 is None or uh.d2 is None:
        raise ContractError("apply_model needs a hat with derivative data")
    vals = -uh.d2 + mat2.apply2(mc.Phat, uh.d1) + mat2.apply2(mc.Qhat, uh.values)
    return np.where(mc.admissible[:, None], vals, 0.0)


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
    diff = np.abs(lhs - rhs.values)[mc.admissible]
    return float(np.max(diff))


@dataclass(eq=False)
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

    S = Qhat + 0.25 * mat2.mul2(Phat, Phat) - 0.5 * dPhat
    tr = S[:, 0, 0] + S[:, 1, 1]
    disc = tr * tr - 4.0 * mat2.det2(S)
    sq = np.sqrt(disc)
    r1 = 0.5 * (tr + sq)
    r2 = 0.5 * (tr - sq)

    max_imag = float(max(np.max(np.abs(r1.imag)), np.max(np.abs(r2.imag))))
    r1 = r1.real.astype(float)
    r2 = r2.real.astype(float)
    swapped = _branch_swaps(r1, r2)
    a = np.where(swapped, r2, r1)
    b = np.where(swapped, r1, r2)
    sep_scale = 1.0 + np.maximum(np.abs(a), np.abs(b))
    collision = np.abs(a - b) <= _COLLISION_TOL * sep_scale
    note = ("branch labels are continued from the left edge and defined up to "
            "the reflection x -> l-x; collision nodes carry no stable labeling")
    return RecoveryResult(mc.half_x[idx].astype(float), a, b, collision,
                          max_imag, note)


def _branch_swaps(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Nearest-neighbour continuation of the branch pair (r1, r2) from the
    left edge: True where the labels swap, so q1 = r2 and q2 = r1 there.

    The first node puts the larger root first.  Node k keeps the labels of
    node k-1 when that costs less than swapping them, cost being the summed
    jumps of the two branches; at a tie (or a NaN cost) it takes the raw
    order.  The costs of keeping and swapping trade places when node k-1
    is swapped, so with d_k = [raw swap cost < raw keep cost] the state is
    s_k = 0 at a tie and s_{k-1} XOR d_k otherwise: an XOR scan restarted
    after the last tie gives the node-by-node continuation's labels.
    """
    keep = np.abs(r1[1:] - r1[:-1]) + np.abs(r2[1:] - r2[:-1])
    swap = np.abs(r2[1:] - r1[:-1]) + np.abs(r1[1:] - r2[:-1])
    d = np.empty(r1.size, dtype=bool)
    d[0] = r1[0] < r2[0]
    d[1:] = swap < keep
    tie = np.zeros(r1.size, dtype=bool)
    tie[1:] = ~(d[1:] | (keep < swap))
    scan = np.bitwise_xor.accumulate(d)
    # the scan at the last tie at or before each node (False before the first)
    last = np.maximum.accumulate(np.where(tie, np.arange(r1.size), -1))
    return scan ^ (scan[last] & (last >= 0))


def unordered_branch_error(rr: RecoveryResult, qf, l: float) -> float:
    """Sup error of the branches against the closed form qf, up to the
    reflection x -> l-x: the smaller of the direct and swapped labelings."""
    qx = qf.deriv(rr.x, 0)
    qr = qf.deriv(l - rr.x, 0)
    direct = np.maximum(np.abs(rr.q1 - qx), np.abs(rr.q2 - qr))
    flipped = np.maximum(np.abs(rr.q1 - qr), np.abs(rr.q2 - qx))
    return float(np.max(np.minimum(direct, flipped)))
