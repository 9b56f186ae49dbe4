"""Potentials, Cauchy solutions, the kernel basis, Dirichlet spectra and
modal coefficients on [0, l].

The second-order equation -u'' + q u = lam u is integrated as a first-order
system with a fixed-step fourth-order Runge-Kutta scheme on the grid nodes,
with q at the half steps taken from the closed form when available and from
cubic interpolation otherwise.  One RK4 step is exactly a 2x2 matrix,
(u, v)_{j+1} = M_j(lam) (u, v)_j, whose entries are quadratics in lam.
Cauchy solutions (solve_ivp, kernel_basis) run the staged RK4 loop for a
single lam on Python floats, bit for bit the float64 arithmetic of the
scheme.  The eigensolver runs on the transfer matrices instead: once per
solve it stores the coefficients of every step and the exact degree-8
products of every four consecutive steps, both independent of lam (the
lam-independent precomputation of MATSLISE, Ledoux, Van Daele and Vanden
Berghe 2005), so the matrices at a batch of lam are one matmul against the
powers of lam.  End values come from a log-depth pairwise product of the
n/4 four-step matrices, node histories from a two-level blocked scan
(blocks of about sqrt(n) steps, a multiple of 4).  Eigenvalues come from
shooting: separators with exactly k oscillations, counted once each,
bracket the roots of u_lam(l), and a safeguarded secant on the Prufer
phase of (u, u')(l) refines them.  Matrix eigensolvers are deliberately
not used here; they serve as independent oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .analytic import ClosedForm, parse_expression
from .errors import AdmissibilityError, ConfigurationError, NumericalError
from .grid import Grid, GridFunction, _simpson_weights, interp_cubic

__all__ = [
    "Potential", "OdeSolution", "KernelBasis", "EigenSystem",
    "potential", "solve_ivp", "kernel_basis", "dirichlet_eigensystem",
    "check_lower_bound", "modal_coefficients",
]

_BLOWUP = 1e120
# node cells (steps x lam columns) per batch of the transfer-matrix kernels:
# a batch holds its two step-major histories and its four-step matrices,
# about n K cells each, so its working set stays near 3 MB whatever the
# mode count
_BATCH_CELLS = 1 << 17


@dataclass(frozen=True)
class Potential:
    """Real potential q on a grid, with optional closed form for off-node
    evaluation.  mid holds q at the half steps used by the integrator."""

    grid: Grid
    values: np.ndarray
    fn: Optional[ClosedForm] = None
    mid: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size,):
            raise ConfigurationError("potential samples do not match the grid")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("potential samples must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        xm = self.grid.x[:-1] + 0.5 * self.grid.h
        if self.fn is not None:
            qm = np.asarray(self.fn(xm), dtype=float)
        else:
            qm = interp_cubic(GridFunction(self.grid, v.astype(complex)), xm).real
        qm.setflags(write=False)
        object.__setattr__(self, "mid", qm)


def potential(grid: Grid, q: Union[str, float, ClosedForm, np.ndarray]) -> Potential:
    """Build a potential from an expression string, a constant, a closed
    form, or plain samples."""
    if isinstance(q, str):
        q = parse_expression(q)
    if isinstance(q, (int, float)):
        from .analytic import Const
        q = Const(float(q))
    if isinstance(q, ClosedForm):
        vals = np.asarray(q(grid.x), dtype=float)
        return Potential(grid, vals, q)
    return Potential(grid, np.asarray(q, dtype=float))


@dataclass(frozen=True)
class OdeSolution:
    """Cauchy solution of -u'' + q u = lam u with derivative samples."""

    lam: float
    u: GridFunction
    du: GridFunction


def _check_end_state(u, v):
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))) or np.max(np.abs(u)) > _BLOWUP:
        raise NumericalError("Cauchy integration blew up; refine the grid or check q and lam")


def _rk4_sweep(qn, qm, h, lam, v0, s0):
    """Staged RK4 loop for u'' = (q - lam) u, left to right, for one scalar
    lam: node histories (U, V), each of shape (n+1,).

    qn: q at nodes (n+1,), qm: q at half steps (n,).  The steps run on
    Python floats, which round + - * as float64 array arithmetic does and
    never contract to FMA, so with the stage expressions kept as written
    the result is bit for bit that of the same loop on numpy arrays, at a
    fraction of its per-step call overhead.  Overflow gives inf or nan
    rather than an exception; the end-state check catches it.
    """
    lam = float(lam)
    h = float(h)
    c = (qn - lam).tolist()
    cm = (qm - lam).tolist()
    u = float(v0)
    v = float(s0)
    U = [u]
    V = [v]
    hh = 0.5 * h
    h6 = h / 6.0
    for cj, cmj, c1 in zip(c, cm, c[1:]):
        dv1 = cj * u
        u2 = u + hh * v
        v2 = v + hh * dv1
        dv2 = cmj * u2
        u3 = u + hh * v2
        v3 = v + hh * dv2
        dv3 = cmj * u3
        u4 = u + h * v3
        v4 = v + h * dv3
        dv4 = c1 * u4
        u = u + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + h6 * (dv1 + 2.0 * (dv2 + dv3) + dv4)
        U.append(u)
        V.append(v)
    _check_end_state(u, v)
    return np.array(U), np.array(V)


@dataclass(frozen=True)
class _Transfer:
    """The RK4 step matrices of one mesh as polynomials in lam, built once
    per solve; their values at a batch of lam are one matmul away.

    C4 (4, ceil(n/4), 9) holds the exact degree-8 products of four
    consecutive steps, steps past n being identities.  C4h holds them for
    the end values, padded by identities to 8 Q rows and reordered so that
    the first three pairwise levels multiply contiguous halves: four-step
    matrix j = 8 q + r sits in row rev(r) Q + q, rev reversing three bits.
    For the blocked scan the n steps are grouped into B blocks of b steps,
    b a multiple of 4 near sqrt(n) and B b > n; C1s (b-1, 4, B, 3) holds the
    quadratic single steps taken inside the blocks, step-major: C1s[i, :, k]
    is step i of block k.
    """

    n: int
    b: int
    B: int
    C4: np.ndarray
    C4h: np.ndarray
    C1s: np.ndarray


_REV3 = np.array([0, 4, 2, 6, 1, 5, 3, 7])


def _polymul2(R, L):
    """Stacked 2x2 products R L of polynomial matrices: entry arrays
    (4, m, dR) and (4, m, dL) of coefficients in increasing degree."""
    dl = L.shape[2]
    P = np.zeros(R.shape[:2] + (R.shape[2] + dl - 1,))
    for i, (r, l) in enumerate(((0, 0), (0, 1), (2, 0), (2, 1))):
        for a, c in ((r, l), (r + 1, l + 2)):
            for k in range(R.shape[2]):
                P[i, :, k:k + dl] += R[a, :, k, None] * L[c]
    return P


def _transfer(qn, qm, h):
    """Step-matrix polynomials of the mesh (qn at nodes, qm at half steps).

    With c = q - lam at x_j, x_j + h/2 and x_{j+1} (cj, cm, c1), the four
    stages of the scheme expand exactly to
      m11 = 1 + h^2 (cj + 2 cm)/6 + h^4 cm cj/24,   m12 = h + h^3 cm/6,
      m21 = h (cj + 4 cm + c1)/6 + h^3 cm (cj + c1)/12,
      m22 = 1 + h^2 (2 cm + c1)/6 + h^4 c1 cm/24,
    each alpha_j + beta_j lam + gamma lam^2.
    """
    n = qm.shape[0]
    qj, q1 = qn[:-1], qn[1:]
    h2, h3, h4 = h * h, h ** 3, h ** 4
    coefficients = (
        (1.0 + h2 * (qj + 2.0 * qm) / 6.0 + h4 * (qm * qj) / 24.0,
         -0.5 * h2 - h4 * (qm + qj) / 24.0, h4 / 24.0),
        (h + h3 * qm / 6.0, -h3 / 6.0, 0.0),
        (h * (qj + 4.0 * qm + q1) / 6.0 + h3 * qm * (qj + q1) / 12.0,
         -h - h3 * (qj + q1 + 2.0 * qm) / 12.0, h3 / 6.0),
        (1.0 + h2 * (2.0 * qm + q1) / 6.0 + h4 * (q1 * qm) / 24.0,
         -0.5 * h2 - h4 * (q1 + qm) / 24.0, h4 / 24.0),
    )
    b = max(4, 4 * round(np.sqrt(n) / 4.0))
    B = n // b + 1
    C1b = np.zeros((4, B * b, 3))      # C1 (4, n, 3), then identity steps
    for e, entry in zip(C1b, coefficients):
        for d, c in enumerate(entry):
            e[:n, d] = c
    C1b[(0, 3), n:, 0] = 1.0
    C1 = C1b[:, :-(-n // 4) * 4]
    C2 = _polymul2(C1[:, 1::2], C1[:, 0::2])
    C4 = _polymul2(C2[:, 1::2], C2[:, 0::2])
    j = np.arange(C4.shape[1])
    Q = -(-j.size // 8)
    C4h = np.zeros((4, 8 * Q, 9))
    C4h[(0, 3), :, 0] = 1.0
    C4h[:, _REV3[j % 8] * Q + j // 8] = C4
    C1s = C1b.reshape(4, B, b, 3)[:, :, :-1].transpose(2, 0, 1, 3).copy()
    for a in (C4, C4h, C1s):
        a.setflags(write=False)
    return _Transfer(n, b, B, C4, C4h, C1s)


def _powers(lam, d):
    """lam^0 .. lam^(d-1), shape (d, K)."""
    return np.vander(lam, d, increasing=True).T


def _evaluate(C, powers):
    """Values (..., K) of the polynomials C (..., d) at each lam, from its
    powers (d, K): one matmul."""
    return (C.reshape(-1, C.shape[-1]) @ powers).reshape(C.shape[:-1] + powers.shape[1:])


def _mul2(R, L):
    """Stacked 2x2 products R L on entry arrays of shape (4, ...)."""
    P = np.empty(R.shape)
    t = np.empty(R.shape[1:])
    for i, (r, l) in enumerate(((0, 0), (0, 1), (2, 0), (2, 1))):
        np.multiply(R[r], L[l], out=P[i])
        np.multiply(R[r + 1], L[l + 2], out=t)
        P[i] += t
    return P


def _pairwise_product(E):
    """Ordered product M_{m-1} ... M_1 M_0 of the matrices stacked on axis 1
    of E (4, m, ...), in ceil(log2 m) pairwise levels.  On a level of odd
    length the last matrix is folded into the product of the last pair."""
    while E.shape[1] > 1:
        m = E.shape[1]
        P = _mul2(E[:, 1::2], E[:, 0:m - 1:2])
        if m % 2:
            P[:, -1] = _mul2(E[:, -1], P[:, -1])
        E = P
    return E[:, 0]


def _batches(n, K):
    step = max(1, _BATCH_CELLS // n)
    return [slice(s, s + step) for s in range(0, K, step)]


def _tm_end_values(tm, lam):
    """End state (u, v)(l) of u(0) = 0, u'(0) = 1 for a vector of lam: the
    second column of the pairwise product of the four-step matrices, whose
    first three levels pair contiguous halves of C4h."""
    u = np.empty(lam.shape[0])
    v = np.empty(lam.shape[0])
    for cols in _batches(tm.n, lam.shape[0]):
        E = _evaluate(tm.C4h, _powers(lam[cols], 9))
        for _ in range(3):
            half = E.shape[1] // 2
            E = _mul2(E[:, half:], E[:, :half])
        P = _pairwise_product(E)
        u[cols], v[cols] = P[1], P[3]
    _check_end_state(u, v)
    return u, v


def _tm_history_batch(tm, lam):
    """Node histories (U, V) of u(0) = 0, u'(0) = 1 by a two-level blocked
    scan, step-major: U[i, k] is node k b + i, each (b, B, K).

    The n steps are split into B blocks of b ~ sqrt(n) steps, b a multiple
    of 4, the last one padded with identities, so nodes past n repeat node
    n.  Pairwise products of the four-step matrices give each block's
    matrix, a sequential pass over the blocks gives their start states, and
    b - 1 single steps advance all blocks at once on contiguous (B, K)
    slabs: about B + b Python steps, not n.
    """
    b, B, K = tm.b, tm.B, lam.shape[0]
    C4 = tm.C4[:, :(B - 1) * b // 4]   # the blocks before the last
    T = _evaluate(C4, _powers(lam, 9)).reshape(4, B - 1, b // 4, K)
    T = _pairwise_product(T.swapaxes(1, 2))
    U = np.empty((b, B, K))
    V = np.empty((b, B, K))
    U[0, 0] = 0.0
    V[0, 0] = 1.0
    for k in range(B - 1):
        U[0, k + 1] = T[0, k] * U[0, k] + T[1, k] * V[0, k]
        V[0, k + 1] = T[2, k] * U[0, k] + T[3, k] * V[0, k]
    t = np.empty((B, K))
    powers = _powers(lam, 3)
    for i, C1 in enumerate(tm.C1s):
        E = _evaluate(C1, powers)
        np.multiply(E[0], U[i], out=U[i + 1])
        U[i + 1] += np.multiply(E[1], V[i], out=t)
        np.multiply(E[2], U[i], out=V[i + 1])
        V[i + 1] += np.multiply(E[3], V[i], out=t)
    end = divmod(tm.n, b)[::-1]
    _check_end_state(U[end], V[end])
    return U, V


def _tm_history(tm, lam):
    """Node histories (U, V), each (n+1, K), of u(0) = 0, u'(0) = 1 for a
    vector of lam: transposed views of fresh C-ordered (K, n+1) arrays, so
    each row U.T[k] is the history of lam[k]."""
    n, b, K = tm.n, tm.b, lam.shape[0]
    full = (tm.B - 1) * b              # nodes of the blocks before the last
    U = np.empty((K, n + 1))
    V = np.empty_like(U)
    for cols in _batches(n, K):
        for out, H in zip((U, V), _tm_history_batch(tm, lam[cols])):
            blocks = out[cols, :full].reshape(H.shape[2], tm.B - 1, b)
            blocks[...] = H[:, :-1].transpose(2, 1, 0)
            out[cols, full:] = H[:n + 1 - full, -1].T
    return U.T, V.T


def solve_ivp(q: Potential, lam: float, side: str = "left",
              value: float = 0.0, slope: float = 1.0) -> OdeSolution:
    """Solve -u'' + q u = lam u from one endpoint with given Cauchy data.

    side="left" imposes u(0)=value, u'(0)=slope; side="right" imposes the
    data at x=l and integrates leftward.
    """
    g = q.grid
    if side == "left":
        uu, vv = _rk4_sweep(q.values, q.mid, g.h, lam, value, slope)
    elif side == "right":
        U, V = _rk4_sweep(q.values[::-1], q.mid[::-1], g.h, lam, value, -slope)
        uu, vv = U[::-1], -V[::-1]
    else:
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    return OdeSolution(float(lam), GridFunction(g, uu.astype(complex)),
                       GridFunction(g, vv.astype(complex)))


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the defect kernel: phi0 (data at 0) and phil (data at l),
    both solving -u'' + q u = 0."""

    q: Potential
    phi0: OdeSolution
    phil: OdeSolution
    phi0_at_l: float
    phil_at_0: float

    @property
    def grid(self) -> Grid:
        return self.q.grid


def kernel_basis(q: Potential) -> KernelBasis:
    """Kernel solutions phi0(0)=0, phi0'(0)=1 and phil(l)=0, phil'(l)=1.

    Degeneracy guard: zero must not be (numerically) a Dirichlet eigenvalue,
    i.e. |phi0(l)| stays above 1e-10 * l; same for |phil(0)|.
    """
    phi0 = solve_ivp(q, 0.0, "left", 0.0, 1.0)
    phil = solve_ivp(q, 0.0, "right", 0.0, 1.0)
    p0l = float(phi0.u.values[-1].real)
    pl0 = float(phil.u.values[0].real)
    scale = 1e-10 * q.grid.l
    if abs(p0l) < scale or abs(pl0) < scale:
        raise AdmissibilityError(
            "zero is numerically a Dirichlet eigenvalue; the kernel basis degenerates "
            f"(phi0(l)={p0l:.3e}, phil(0)={pl0:.3e})")
    # constant Wronskian implies phi0(l) = -phil(0); cheap integration check
    if abs(p0l + pl0) > 1e-8 * max(1.0, abs(p0l)):
        raise NumericalError(
            f"Wronskian drift: phi0(l)={p0l!r} vs -phil(0)={-pl0!r}; refine the grid")
    return KernelBasis(q, phi0, phil, p0l, pl0)


@dataclass(frozen=True)
class EigenSystem:
    """First eigenvalues and L2-orthonormal eigenfunctions of the Dirichlet
    extension, eigenfunction sign fixed by phi_n'(0) > 0."""

    q: Potential
    lam: np.ndarray
    phi: np.ndarray      # (count, n+1) node samples
    dphi: np.ndarray     # (count, n+1) derivative samples

    def __post_init__(self):
        if np.any(np.diff(self.lam) <= 0.0):
            raise NumericalError("eigenvalues are not strictly increasing")
        for a in (self.lam, self.phi, self.dphi):
            np.asarray(a).setflags(write=False)

    @property
    def grid(self) -> Grid:
        return self.q.grid

    @property
    def count(self) -> int:
        return int(self.lam.shape[0])

    def eigenfunction(self, k: int) -> GridFunction:
        return GridFunction(self.grid, self.phi[k].astype(complex))


def _sign_change_counts(U: np.ndarray) -> np.ndarray:
    """Sign changes over the nodes past x=0, endpoint included, of
    step-major histories U (b, B, K) (nodes past n repeat node n).

    Including u(l) matters: just above an eigenvalue the new zero hugs
    the right end closer than any grid cell, so an interior-only count
    would lag by one until lambda grows enough to pull it inside.
    """
    s = np.sign(U)
    s[s == 0.0] = 1.0
    within = np.sum(s[:-1] * s[1:] < 0.0, axis=(0, 1))
    across = np.sum(s[-1, :-1] * s[0, 1:] < 0.0, axis=0)
    return within + across - (s[0, 0] * s[1, 0] < 0.0)


def _phase(sigma, w, u, v):
    """Prufer phase atan2(sigma w u, sigma v) of the end state (u, v)(l),
    w = sqrt(lam - shift): its sign is that of sigma u(l)."""
    return np.arctan2(sigma * w * u, sigma * v)


def dirichlet_eigensystem(q: Potential, count: int, rel_tol: float = 1e-10) -> EigenSystem:
    """First `count` Dirichlet eigenpairs by shooting on RK4 transfer matrices.

    Comparison bounds (k pi / l)^2 + [min q, max q], padded, place
    count + 1 separators s_0 < s_1 < ... < s_count, each counted once on a
    blocked-scan history and required to hold exactly k oscillations: s_0
    is mode 1's lower bound, s_k starts between the intervals of modes k
    and k+1, and a separator with the wrong count is bisected between
    points with counts <= k and >= k.  Mode k's root of u_lam(l) is then
    isolated in [s_{k-1}, s_k], and the counting histories give (u, u')(l)
    at both ends.  Each root is refined on the Prufer phase
    F_k = atan2(sigma w u(l), sigma u'(l)), sigma = (-1)^k,
    w = sqrt(lam - q_lo + 1) with q_lo the smaller of min q and s_0.  F_k has
    the sign of sigma u(l), is continuous on the bracket (its branch cut
    falls at the neighbouring roots) and is close to linear in w, so a
    secant in w on the two latest iterates takes about three end-value
    passes.  The secant point is kept half a tolerance inside the bracket:
    a step shorter than that is pushed to that length towards the retained
    end, so it lands across the root and closes the bracket (Dekker).  A
    point outside the bracket, or a bracket that has not halved in three
    passes, takes a bisection step instead.  Brackets are refined to width
    rel_tol * max(1, |lam|); the eigenfunctions are the blocked-scan
    histories at their midpoints.
    """
    if count < 1:
        raise ConfigurationError("eigenvalue count must be >= 1")
    g = q.grid
    if g.n < 6 * count:
        raise ConfigurationError(
            f"grid too coarse to resolve {count} oscillating modes (n={g.n})")
    qn, qm, h = q.values, q.mid, g.h
    tm = _transfer(qn, qm, h)
    qlo = min(qn.min(), qm.min())
    qhi = max(qn.max(), qm.max())
    k = np.arange(1, count + 2, dtype=float)
    base = (k * np.pi / g.l) ** 2
    # pad covers both float fuzz and the RK4 phase drift of the discrete
    # shooting roots, which grows like (lam - q)^3 h^4 / 60 for oscillatory
    # modes; on mode k's comparison interval lam - q is at most
    # base + (q_hi - q_lo), whatever the size of q itself
    drift = (base + (qhi - qlo)) ** 3 * h ** 4 / 10.0
    pad = 1e-6 * np.maximum(1.0, np.abs(base + qlo)) + drift
    a = base + qlo - pad               # comparison bounds of modes 1 .. count+1
    b = base + qhi + pad

    def counts(lams):
        """Oscillation counts and end states (u, u')(l) from blocked-scan histories."""
        UV = [_tm_history_batch(tm, lams[cols])
              for cols in _batches(g.n, lams.shape[0])]
        end = divmod(g.n, tm.b)[::-1]
        return (np.concatenate([_sign_change_counts(U) for U, _ in UV]),
                np.concatenate([U[end] for U, _ in UV]),
                np.concatenate([V[end] for _, V in UV]))

    target = np.arange(count + 1)
    s = np.concatenate(([a[0]], np.maximum(b[:-1], 0.5 * (b[:-1] + a[1:]))))
    c, u, v = counts(s)
    # comparison: lam_j lies below b_j and at or above a_j, so
    # #{b_j <= s} <= count(s) <= #{a_j < s}; the upper bound is known only
    # where a_{count+1} >= s
    below = np.sum(b <= s[:, None], axis=1)
    above = np.sum(a < s[:, None], axis=1)
    if np.any(c < below) or np.any((c > above) & (above <= count)):
        raise NumericalError("comparison brackets failed oscillation sanity check")
    bad = np.flatnonzero(c != target)
    lo = np.where(c <= bad[:, None], s, -np.inf).max(axis=1)
    hi = np.where(c >= bad[:, None], s, np.inf).min(axis=1)
    for _ in range(120):
        if bad.size == 0:
            break
        mid = 0.5 * (lo + hi)
        cm, um, vm = counts(mid)
        hit = cm == bad
        s[bad[hit]], u[bad[hit]], v[bad[hit]] = mid[hit], um[hit], vm[hit]
        lo, hi = np.where(cm < bad, mid, lo), np.where(cm > bad, mid, hi)
        bad, lo, hi = bad[~hit], lo[~hit], hi[~hit]
    if bad.size or np.any(np.diff(s) <= 0.0):
        raise NumericalError("oscillation counting failed to isolate eigenvalue brackets")

    ulo, uhi = u[:-1], u[1:]
    if np.any(ulo * uhi > 0.0):
        raise NumericalError("isolated bracket lost the sign change of u_lam(l)")
    # an end value that is exactly zero is a root: collapse its bracket
    lo = np.where(uhi == 0.0, s[1:], s[:-1])
    hi = np.where(ulo == 0.0, s[:-1], s[1:])
    sigma = (-1.0) ** target[1:]
    shift = min(qlo, s[0]) - 1.0
    w = np.sqrt(s - shift)
    # the two latest iterates (w, F) of each secant, first the bracket ends;
    # the latest is always an end of the bracket
    w0, w1 = w[:-1].copy(), w[1:].copy()
    F0 = _phase(sigma, w0, ulo, v[:-1])
    F1 = _phase(sigma, w1, uhi, v[1:])
    width = hi - lo
    stall = np.zeros(count, dtype=int)
    for _ in range(300):
        tol = rel_tol * np.maximum(1.0, np.abs(lo + hi) * 0.5)
        act = np.flatnonzero(hi - lo > tol)
        if act.size == 0:
            break
        lo0, hi0, half = lo[act], hi[act], 0.5 * tol[act]
        with np.errstate(divide="ignore", invalid="ignore"):
            wc = w1[act] - F1[act] * (w1[act] - w0[act]) / (F1[act] - F0[act])
        x = wc * wc + shift
        # safeguard: bisect when the secant leaves the bracket or stalls;
        # else keep the point half a tolerance inside the bracket, which is
        # the closing step: a shorter step from the latest iterate (an end)
        # is pushed to half a tolerance, towards the retained end
        bisect = ~((x >= lo0) & (x <= hi0)) | (stall[act] >= 3)
        x = np.where(bisect, 0.5 * (lo0 + hi0), np.clip(x, lo0 + half, hi0 - half))
        ux, vx = _tm_end_values(tm, x)
        wx = np.sqrt(x - shift)
        su = sigma[act] * ux
        lo[act] = np.where(su <= 0.0, x, lo0)
        hi[act] = np.where(su >= 0.0, x, hi0)
        w0[act], F0[act] = w1[act], F1[act]
        w1[act], F1[act] = wx, _phase(sigma[act], wx, ux, vx)
        # anti-stagnation: count passes since the bracket last halved
        halved = hi[act] - lo[act] <= 0.5 * width[act]
        width[act] = np.where(halved, hi[act] - lo[act], width[act])
        stall[act] = np.where(halved, 0, stall[act] + 1)
    else:
        raise NumericalError(f"eigenvalue refinement did not reach rel_tol={rel_tol}")

    lam = 0.5 * (lo + hi)
    U, V = _tm_history(tm, lam)
    phi, dphi = U.T, V.T
    nrm = np.sqrt((phi * phi) @ _simpson_weights(g.n, h))[:, None]
    phi /= nrm
    dphi /= nrm
    return EigenSystem(q, lam, phi, dphi)


def check_lower_bound(es: EigenSystem) -> float:
    """Smallest eigenvalue if positive, else an admissibility error.

    Positive definiteness of the Dirichlet extension is what the wave
    constructions downstream rely on; everything refuses to run without it.
    """
    lam1 = float(es.lam[0])
    if lam1 <= 0.0:
        raise AdmissibilityError(
            f"operator is not positive definite: lambda_1 = {lam1:.6g} <= 0")
    return lam1


def modal_coefficients(es: EigenSystem, g: GridFunction) -> np.ndarray:
    """Quadrature inner products (g, phi_n) for all computed modes."""
    grid = es.grid
    if g.grid.n != grid.n or g.grid.l != grid.l:
        raise ConfigurationError("grid mismatch between eigensystem and data")
    return es.phi @ (_simpson_weights(grid.n, grid.h) * g.values)
