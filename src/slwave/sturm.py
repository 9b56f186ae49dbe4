"""Potentials, the kernel basis, Dirichlet spectra and modal coefficients
on [0, l].

The second-order equation -u'' + q u = lam u is integrated as a first-order
system with a fixed-step fourth-order Runge-Kutta scheme on the grid nodes,
with q at the half steps taken from the closed form when available and from
cubic interpolation otherwise.  One RK4 step is exactly a 2x2 matrix,
(u, v)_{j+1} = M_j(lam) (u, v)_j, whose entries are quadratics in lam.
The kernel basis runs the staged RK4 loop for lam = 0 on Python floats,
bit for bit the float64 arithmetic of the scheme, once from each end.
The eigensolver runs on the transfer matrices instead: once per solve it
stores the coefficients of every step and the exact degree-16
products of every eight consecutive steps, both independent of lam (the
lam-independent precomputation of MATSLISE, Ledoux, Van Daele and Vanden
Berghe 2005), so the matrices at a batch of lam are one matmul against the
powers of lam.  Each stacked 2x2 product after that is one np.einsum
contraction on the (2, 2, ...) views of the entry-major arrays, which
numpy's own loops evaluate as a0 b0 + a1 b1, without BLAS; a numpy whose
einsum fuses the multiply-add (NEON vfmaq, say) fails the loop references
in the tests instead of silently changing the bytes.  End values come from
a log-depth pairwise product of the n/8 eight-step matrices, node
histories from a two-level blocked scan (blocks of about sqrt(n) steps, a
multiple of 8): a contraction per block gives the block starts of every
lam of a call, then one per single step fills in the blocks, storing u
alone.  Eigenvalues come from shooting: separators with exactly k
oscillations bracket the roots of u_lam(l), and a safeguarded secant on
the Prufer phase of (u, u')(l) refines them.  The separators are
certified by the signs of u_lam(l) and the counts at the two outer ones;
they are counted one by one, and bisected, only when that fails.  Matrix
eigensolvers are deliberately not used here; they serve as independent
oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .analytic import ClosedForm, Const, parse_expression
from .errors import AdmissibilityError, ConfigurationError, NumericalError
from .grid import Grid, GridFunction, _cubic_apply, _cubic_stencil, _simpson_weights

__all__ = [
    "Potential", "KernelBasis", "EigenSystem",
    "potential", "kernel_basis", "dirichlet_eigensystem",
    "check_lower_bound",
]

_BLOWUP = 1e120
# node cells (steps x lam columns) per batch of the transfer-matrix kernels:
# a batch holds its eight-step matrices (4 entries of n/8 steps, about
# n K / 2 cells) and its step-major history of u (about n K cells), so its
# working set stays within a few MB whatever the mode count.  The
# eigenfunctions are normalised in place in blocks of about as many cells,
# a multiple of 16 rows (64 at n = 2000): OpenBLAS's dgemv takes rows four
# at a time, so each row's norm has the bits of one whole-array product, and
# it leaves blocks this small to one thread, so the bits do not depend on
# the thread count
_BATCH_CELLS = 1 << 17


@dataclass(eq=False)
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
        self.values = v
        xm = self.grid.x[:-1] + 0.5 * self.grid.h
        if self.fn is not None:
            qm = np.asarray(self.fn(xm), dtype=float)
        else:
            qm = _cubic_apply(v, *_cubic_stencil(xm, self.grid.x, self.grid.h))
        qm.setflags(write=False)
        self.mid = qm


def potential(grid: Grid, q: Union[str, float, ClosedForm, np.ndarray]) -> Potential:
    """Build a potential from an expression string, a constant, a closed
    form, or plain samples."""
    if isinstance(q, str):
        q = parse_expression(q)
    if isinstance(q, (int, float)):
        q = Const(float(q))
    if isinstance(q, ClosedForm):
        vals = np.asarray(q(grid.x), dtype=float)
        return Potential(grid, vals, q)
    return Potential(grid, np.asarray(q, dtype=float))


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


@dataclass(eq=False)
class _Transfer:
    """The RK4 step matrices of one mesh as polynomials in lam, built once
    per solve; their values at a batch of lam are one matmul away.

    C8 (4, ceil(n/8), 17) holds the exact degree-16 products of eight
    consecutive steps, steps past n being identities.  C8h holds them for
    the end values, padded by identities to 8 Q rows and reordered so that
    the first three pairwise levels multiply contiguous halves: eight-step
    matrix j = 8 q + r sits in row rev(r) Q + q, rev reversing three bits.
    For the blocked scan the n steps are grouped into B blocks of b steps,
    b a multiple of 8 near sqrt(n) and B b > n; C1s (b-1, 4, B, 3) holds the
    quadratic single steps taken inside the blocks, step-major: C1s[i, :, k]
    is step i of block k.
    """

    n: int
    b: int
    B: int
    C8: np.ndarray
    C8h: np.ndarray
    C1s: np.ndarray


_REV3 = np.array([0, 4, 2, 6, 1, 5, 3, 7])


def _polymul2(R, L):
    """Stacked 2x2 products R L of polynomial matrices, coefficient-major:
    entry arrays (4, dR, m) and (4, dL, m), coefficients in increasing
    degree, so every update is on whole (dL, m) planes."""
    dl = L.shape[1]
    P = np.zeros((4, R.shape[1] + dl - 1, R.shape[2]))
    for i, (r, l) in enumerate(((0, 0), (0, 1), (2, 0), (2, 1))):
        for a, c in ((r, l), (r + 1, l + 2)):
            for k in range(R.shape[1]):
                P[i, k:k + dl] += R[a, k] * L[c]
    return P


def _step_polynomials(qn, qm, h, steps):
    """Coefficients (4, 3, steps), coefficient-major, of the RK4 step
    matrices of the mesh (qn at nodes, qm at half steps), steps past the n
    of the mesh being identities.

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
    C1 = np.zeros((4, 3, steps))
    for e, entry in zip(C1, coefficients):
        for d, c in enumerate(entry):
            e[d, :n] = c
    C1[(0, 3), 0, n:] = 1.0
    return C1


def _transfer(qn, qm, h):
    """Step-matrix polynomials of the mesh (qn at nodes, qm at half steps);
    the two-, four- and eight-step products are built coefficient-major, on
    contiguous copies of the odd and even factors.  Identity steps pad n to
    a multiple of 8, which pads an odd four-step count with an identity."""
    n = qm.shape[0]
    b = max(8, 8 * round(np.sqrt(n) / 8.0))
    B = n // b + 1
    C1b = _step_polynomials(qn, qm, h, B * b)
    C = C1b[:, :, :-(-n // 8) * 8]
    for _ in range(3):
        C = _polymul2(C[:, :, 1::2].copy(), C[:, :, 0::2].copy())
    C8 = np.ascontiguousarray(C.transpose(0, 2, 1))
    j = np.arange(C8.shape[1])
    Q = -(-j.size // 8)
    C8h = np.zeros((4, 8 * Q, 17))
    C8h[(0, 3), :, 0] = 1.0
    C8h[:, _REV3[j % 8] * Q + j // 8] = C8
    C1s = C1b.reshape(4, 3, B, b)[..., :-1].transpose(3, 0, 2, 1).copy()
    for a in (C8, C8h, C1s):
        a.setflags(write=False)
    return _Transfer(n, b, B, C8, C8h, C1s)


def _powers(lam, d):
    """lam^0 .. lam^(d-1), shape (d, K)."""
    return np.vander(lam, d, increasing=True).T


def _evaluate(C, powers):
    """Values (..., K) of the polynomials C (..., d) at each lam, from its
    powers (d, K): one matmul."""
    return (C.reshape(-1, C.shape[-1]) @ powers).reshape(C.shape[:-1] + powers.shape[1:])


def _mul2(R, L):
    """Stacked 2x2 products R L on entry arrays of shape (4, ...): one
    contraction on their (2, 2, ...) views."""
    P = np.einsum("ijn...,jkn...->ikn...", R.reshape((2, 2) + R.shape[1:]),
                  L.reshape((2, 2) + L.shape[1:]))
    return P.reshape(R.shape)


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
    second column of the pairwise product of the eight-step matrices, whose
    first three levels pair contiguous halves of C8h."""
    u = np.empty(lam.shape[0])
    v = np.empty(lam.shape[0])
    for cols in _batches(tm.n, lam.shape[0]):
        E = _evaluate(tm.C8h, _powers(lam[cols], 17))
        for _ in range(3):
            half = E.shape[1] // 2
            E = _mul2(E[:, half:], E[:, :half])
        P = _pairwise_product(E)
        u[cols], v[cols] = P[1], P[3]
    _check_end_state(u, v)
    return u, v


def _block_matrices(tm, lam):
    """Matrices (4, B-1, K) of the blocks before the last, each the
    pairwise product of its b/8 eight-step matrices."""
    b, B = tm.b, tm.B
    C8 = tm.C8[:, :(B - 1) * b // 8]
    T = _evaluate(C8, _powers(lam, 17)).reshape(4, B - 1, b // 8, lam.shape[0])
    return _pairwise_product(T.swapaxes(1, 2))


def _block_starts(T):
    """States (u, u'), (2, B, K), of u(0) = 0, u'(0) = 1 at the first node
    of each block, from the block matrices T (4, B-1, K): one sequential
    pass over the blocks, one contraction per block."""
    S = np.empty((2, T.shape[1] + 1, T.shape[2]))
    S[0, 0], S[1, 0] = 0.0, 1.0
    T = T.reshape((2, 2) + T.shape[1:])
    for k in range(T.shape[2]):
        np.einsum("ijn,jn->in", T[:, :, k], S[:, k], out=S[:, k + 1])
    return S


def _block_steps(tm, lam, S):
    """Step-major history U (b, B, K) from the block starts S (2, B, K),
    U[i, k] being node k b + i, and the end slopes u'(l), (K,).

    b - 1 single steps advance all blocks at once, each one contraction
    into a rolling pair of (u, u') states (2, 2, B, K); u is stored on
    contiguous (B, K) slabs, the slope read at the step that reaches node n.
    """
    b, B, K = tm.b, tm.B, lam.shape[0]
    r = tm.n - (B - 1) * b             # node n is node r of the last block
    U = np.empty((b, B, K))
    X = np.empty((2, 2, B, K))
    X[0] = S
    U[0] = S[0]
    vl = S[1, -1].copy()
    powers = _powers(lam, 3)
    for i, C1 in enumerate(tm.C1s):
        x = X[(i + 1) % 2]
        np.einsum("ijbk,jbk->ibk", _evaluate(C1, powers).reshape(2, 2, B, K), X[i % 2], out=x)
        U[i + 1] = x[0]
        if i + 1 == r:
            vl = x[1, -1].copy()
    _check_end_state(U[r, -1], vl)
    return U, vl


def _tm_scan(tm, lam):
    """Node histories of u(0) = 0, u'(0) = 1 for a vector of lam by a
    two-level blocked scan, one batch of lam at a time: yields the columns
    of each batch, its step-major history U (b, B, K) and its end slopes
    u'(l).

    The n steps are split into B blocks of b ~ sqrt(n) steps, b a multiple
    of 8, the last one padded with identities, so nodes past n repeat node
    n.  Pairwise products of the eight-step matrices give each block's
    matrix, batch by batch; one sequential pass over the blocks gives the
    start states of every lam; then b - 1 single steps per batch fill in
    the blocks: about B + b Python steps, not n.
    """
    batches = _batches(tm.n, lam.shape[0])
    S = _block_starts(np.concatenate([_block_matrices(tm, lam[cols]) for cols in batches],
                                     axis=2))
    for cols in batches:
        yield (cols, *_block_steps(tm, lam[cols], S[:, :, cols]))


def _tm_history(tm, lam):
    """Node history U, (n+1, K), of u(0) = 0, u'(0) = 1 for a vector of
    lam, and the end slopes u'(l), (K,).  U is the transposed view of a
    fresh C-ordered (K, n+1) array, so each row U.T[k] is the history of
    lam[k]."""
    n, b, K = tm.n, tm.b, lam.shape[0]
    full = (tm.B - 1) * b              # nodes of the blocks before the last
    U = np.empty((K, n + 1))
    v = np.empty(K)
    for cols, H, vl in _tm_scan(tm, lam):
        v[cols] = vl
        blocks = U[cols, :full].reshape(H.shape[2], tm.B - 1, b)
        blocks[...] = H[:, :-1].transpose(2, 1, 0)
        U[cols, full:] = H[:n + 1 - full, -1].T
    return U.T, v


@dataclass(eq=False)
class KernelBasis:
    """Basis of the defect kernel: phi0 (data at 0) and phil (data at l),
    both solving -u'' + q u = 0, as read-only node samples (n+1,) with
    their derivatives dphi0 and dphil."""

    q: Potential
    phi0: np.ndarray
    dphi0: np.ndarray
    phil: np.ndarray
    dphil: np.ndarray
    phi0_at_l: float
    phil_at_0: float

    def __post_init__(self):
        for a in (self.phi0, self.dphi0, self.phil, self.dphil):
            a.setflags(write=False)

    @property
    def grid(self) -> Grid:
        return self.q.grid


def kernel_basis(q: Potential) -> KernelBasis:
    """Kernel solutions phi0(0)=0, phi0'(0)=1 and phil(l)=0, phil'(l)=1:
    one RK4 sweep from each end, the one for phil on the reversed mesh.

    Degeneracy guard: zero must not be (numerically) a Dirichlet eigenvalue,
    i.e. |phi0(l)| stays above 1e-10 * l; same for |phil(0)|.
    """
    h = q.grid.h
    phi0, dphi0 = _rk4_sweep(q.values, q.mid, h, 0.0, 0.0, 1.0)
    U, V = _rk4_sweep(q.values[::-1], q.mid[::-1], h, 0.0, 0.0, -1.0)
    phil, dphil = U[::-1], -V[::-1]
    p0l = float(phi0[-1])
    pl0 = float(phil[0])
    scale = 1e-10 * q.grid.l
    if abs(p0l) < scale or abs(pl0) < scale:
        raise AdmissibilityError(
            "zero is numerically a Dirichlet eigenvalue; the kernel basis degenerates "
            f"(phi0(l)={p0l:.3e}, phil(0)={pl0:.3e})")
    # constant Wronskian implies phi0(l) = -phil(0); cheap integration check
    if abs(p0l + pl0) > 1e-8 * max(1.0, abs(p0l)):
        raise NumericalError(
            f"Wronskian drift: phi0(l)={p0l!r} vs -phil(0)={-pl0!r}; refine the grid")
    return KernelBasis(q, phi0, dphi0, phil, dphil, p0l, pl0)


@dataclass(eq=False)
class EigenSystem:
    """First eigenvalues and L2-orthonormal eigenfunctions of the Dirichlet
    extension, eigenfunction sign fixed by phi_n'(0) > 0, with their slopes
    at the two ends (the boundary traces Green's identity reads)."""

    q: Potential
    lam: np.ndarray
    phi: np.ndarray      # (count, n+1) node samples
    dphi0: np.ndarray    # (count,) phi_n'(0)
    dphil: np.ndarray    # (count,) phi_n'(l)

    def __post_init__(self):
        if np.any(np.diff(self.lam) <= 0.0):
            raise NumericalError("eigenvalues are not strictly increasing")
        for a in (self.lam, self.phi, self.dphi0, self.dphil):
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
    would lag by one until lambda grows enough to pull it inside.  A
    change is a flip of u < 0 between neighbours, so 0.0 and -0.0 count
    as nonnegative; _block_steps has rejected non-finite histories.
    """
    neg = U < 0.0
    within = np.count_nonzero(neg[:-1] != neg[1:], axis=(0, 1))
    across = np.count_nonzero(neg[-1, :-1] != neg[0, 1:], axis=0)
    return within + across - (neg[0, 0] != neg[1, 0])


def _separators_certified(ends, u):
    """Whether separators s_0 < ... < s_count hold k oscillations each,
    read from the counts `ends` at s_0 and s_count and the end values u(l)
    at every s_k, without counting the others.

    The count rises by one at each root of u_lam(l).  With counts 0 and
    count at the ends there are count roots in (s_0, s_count); if u(l) at
    each s_k has the strict sign (-1)^k, each of the count brackets holds
    an odd number of them, so exactly one, and s_k has k oscillations.
    """
    count = u.shape[0] - 1
    sign = (-1.0) ** np.arange(count + 1)
    return ends[0] == 0 and ends[1] == count and bool(np.all(sign * u > 0.0))


def _phase(sigma, w, u, v):
    """Prufer phase atan2(sigma w u, sigma v) of the end state (u, v)(l),
    w = sqrt(lam - shift): its sign is that of sigma u(l)."""
    return np.arctan2(sigma * w * u, sigma * v)


def dirichlet_eigensystem(q: Potential, count: int, rel_tol: float = 1e-10) -> EigenSystem:
    """First `count` Dirichlet eigenpairs by shooting on RK4 transfer matrices.

    Comparison bounds (k pi / l)^2 + [min q, max q], padded, place
    count + 1 separators s_0 < s_1 < ... < s_count, each required to hold
    exactly k oscillations: s_0 is mode 1's lower bound and s_k starts
    between the intervals of modes k and k+1.  One end-value pass gives
    (u, u')(l) at every separator, and one blocked-scan history counts the
    oscillations at s_0 and s_count.  Counts 0 and count there, with u(l)
    of sign (-1)^k at each s_k, certify every separator (each bracket then
    holds exactly one root).  Otherwise, as when the comparison intervals
    overlap for steep or tunnelling potentials, every separator is counted,
    one with the wrong count is bisected between points with counts <= k
    and >= k, and the end values are taken again at the final separators.
    Mode k's root of u_lam(l) is then isolated in [s_{k-1}, s_k], with
    (u, u')(l) at both ends.  Each root is refined on the Prufer phase
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
    histories at their midpoints, normalised in place a block of rows at a
    time.
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
        """Oscillation counts from blocked-scan histories, one batch at a time."""
        c = np.empty(lams.shape[0], dtype=int)
        for cols, U, _ in _tm_scan(tm, lams):
            c[cols] = _sign_change_counts(U)
        return c

    target = np.arange(count + 1)
    s = np.concatenate(([a[0]], np.maximum(b[:-1], 0.5 * (b[:-1] + a[1:]))))
    u, v = _tm_end_values(tm, s)
    ends = counts(s[[0, -1]])
    if _separators_certified(ends, u):
        c = target
    else:
        c = counts(s)
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
        cm = counts(mid)
        hit = cm == bad
        s[bad[hit]] = mid[hit]
        lo, hi = np.where(cm < bad, mid, lo), np.where(cm > bad, mid, hi)
        bad, lo, hi = bad[~hit], lo[~hit], hi[~hit]
    if bad.size or np.any(np.diff(s) <= 0.0):
        raise NumericalError("oscillation counting failed to isolate eigenvalue brackets")
    if np.any(c != target):            # separators moved: end values again
        u, v = _tm_end_values(tm, s)

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
    U, v = _tm_history(tm, lam)
    phi = U.T
    wts = _simpson_weights(g.n, h)
    nrm = np.empty(count)
    rows = max(16, _BATCH_CELLS // g.size // 16 * 16)
    for i in range(0, max(1, count - 1), rows):
        # a lone last row joins its block: alone it would be a dot product
        j = count if count - i - rows == 1 else i + rows
        block = phi[i:j]
        nrm[i:j] = np.sqrt((block * block) @ wts)
        block /= nrm[i:j, None]
    return EigenSystem(q, lam, phi, 1.0 / nrm, v / nrm)


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

