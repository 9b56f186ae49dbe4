"""Shooting eigensolver and kernel basis against independent oracles.

Two oracles pin lambda_1 of -u'' + (2+cos 3x)u on [0,1]: a high-order
adaptive integrator with Brent root-finding (frozen to 12 digits), and a
finite-difference tridiagonal eigensolve whose absolute accuracy is
limited to ~1e-8 by the eps*||T|| noise floor of the matrix route.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from slwave.analytic import Const, parse_expression
from slwave.errors import AdmissibilityError, ConfigurationError, NumericalError
from slwave import sturm
from slwave.grid import GridFunction, _simpson_weights, build_grid, inner, interp_cubic
from slwave.sturm import (Potential, check_lower_bound, dirichlet_eigensystem,
                          kernel_basis, potential)

LAMBDA1_COSINE = 11.922697949810356   # DOP853 + brentq, frozen 2026-08


def shooting_oracle(lam):
    def rhs(x, y):
        return [y[1], (2 + np.cos(3 * x) - lam) * y[0]]
    sol = scipy_ivp(rhs, (0.0, 1.0), [0.0, 1.0], rtol=1e-12, atol=1e-14,
                    method="DOP853")
    return sol.y[0, -1]


def staged_loop_reference(qn, qm, h, lam, v0, s0):
    """The staged RK4 loop on float64 arrays, for a vector of lam: node
    histories (U, V), each (n+1, K).  Same stage expressions as the scalar
    sweep in sturm, so for one lam the two agree bit for bit."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    K = lam.shape[0]
    n = qn.shape[0] - 1
    u = np.full(K, float(v0))
    v = np.full(K, float(s0))
    U = np.empty((n + 1, K))
    V = np.empty((n + 1, K))
    U[0] = u
    V[0] = v
    h6 = h / 6.0
    for j in range(n):
        cj = qn[j] - lam
        cm = qm[j] - lam
        c1 = qn[j + 1] - lam
        dv1 = cj * u
        u2 = u + 0.5 * h * v
        v2 = v + 0.5 * h * dv1
        dv2 = cm * u2
        u3 = u + 0.5 * h * v2
        v3 = v + 0.5 * h * dv2
        dv3 = cm * u3
        u4 = u + h * v3
        v4 = v + h * dv3
        dv4 = c1 * u4
        u = u + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + h6 * (dv1 + 2.0 * (dv2 + dv3) + dv4)
        U[j + 1] = u
        V[j + 1] = v
    return U, V


def fd_lambda1(n=4000):
    """Tridiagonal FD eigenvalue with one Richardson step in h^2."""
    def raw(m):
        h = 1.0 / m
        x = np.linspace(0.0, 1.0, m + 1)[1:-1]
        d = 2.0 / h ** 2 + 2 + np.cos(3 * x)
        e = np.full(m - 2, -1.0 / h ** 2)
        return eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0][0]
    return (4 * raw(n) - raw(n // 2)) / 3.0


def test_frozen_oracle_reproducible():
    root = brentq(shooting_oracle, 11.5, 12.5, xtol=1e-13)
    assert root == pytest.approx(LAMBDA1_COSINE, abs=1e-11)


def test_fd_oracle_agrees_at_its_noise_floor():
    assert abs(fd_lambda1() - LAMBDA1_COSINE) <= 5e-8


def sine_sweep(n):
    """u(0) = 0, u'(0) = 1 at lam = pi^2 for q = 0: node samples of
    sin(pi x)/pi, with the grid."""
    g = build_grid(1.0, n)
    q = potential(g, Const(0.0))
    U, _ = sturm._rk4_sweep(q.values, q.mid, g.h, np.pi ** 2, 0.0, 1.0)
    return U, g


def test_ivp_zero_potential_linear():
    g = build_grid(1.0, 100)
    kb = kernel_basis(potential(g, Const(0.0)))
    assert np.max(np.abs(kb.phi0 - g.x)) <= 1e-10
    assert np.max(np.abs(kb.dphi0 - 1.0)) <= 1e-10


def test_ivp_sine_solution():
    U, g = sine_sweep(1000)
    assert np.max(np.abs(U - np.sin(np.pi * g.x) / np.pi)) <= 1e-8


def test_ivp_rk4_convergence_order():
    errs = []
    for n in (200, 400):
        U, g = sine_sweep(n)
        errs.append(np.max(np.abs(U - np.sin(np.pi * g.x) / np.pi)))
    assert np.log2(errs[0] / errs[1]) > 3.8


def test_ivp_right_side_data():
    g = build_grid(1.0, 400)
    kb = kernel_basis(potential(g, Const(0.0)))
    assert np.max(np.abs(kb.phil - (g.x - 1.0))) <= 1e-10


@pytest.mark.parametrize("n", [2000, 402])
@pytest.mark.parametrize("lam", [0.0, np.pi ** 2])
@pytest.mark.parametrize("side", ["left", "right"])
def test_scalar_sweep_matches_array_loop(n, lam, side):
    """The Python-float sweep reproduces the float64 array loop bit for bit,
    for the left data and for the reversed right data of kernel_basis."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression("2 + cos(3)"))
    qn, qm, s0 = q.values, q.mid, 1.0
    if side == "right":
        qn, qm, s0 = qn[::-1], qm[::-1], -1.0
    U0, V0 = staged_loop_reference(qn, qm, g.h, lam, 0.0, s0)
    U1, V1 = sturm._rk4_sweep(qn, qm, g.h, lam, 0.0, s0)
    assert U1.shape == V1.shape == (n + 1,)
    assert np.array_equal(U1, U0[:, 0]) and np.array_equal(V1, V0[:, 0])


def test_ivp_blowup_raises():
    """Python floats overflow to inf/nan without raising; the end-state
    check must turn that into a NumericalError."""
    q = potential(build_grid(1.0, 400), Const(1e6))
    with pytest.raises(NumericalError):
        kernel_basis(q)


def test_kernel_basis_hyperbolic():
    g = build_grid(1.0, 2000)
    kb = kernel_basis(potential(g, Const(1.0)))
    assert abs(kb.phi0[-1] - np.sinh(1.0)) <= 1e-8
    # phi0(l) = -phil(0), the control-dictionary pivot
    assert abs(kb.phi0_at_l + kb.phil_at_0) <= 1e-12


def test_kernel_basis_wronskian_constant():
    g = build_grid(1.0, 800)
    kb = kernel_basis(potential(g, parse_expression("2 + cos(3)")))
    w = kb.phi0 * kb.dphil - kb.dphi0 * kb.phil
    assert np.max(np.abs(w - w[0])) <= 1e-9


def test_spectrum_classical_pi():
    g = build_grid(np.pi, 2000)
    es = dirichlet_eigensystem(potential(g, Const(0.0)), 3)
    assert np.max(np.abs(es.lam - np.array([1.0, 4.0, 9.0]))) <= 1e-8


def test_spectrum_unit_interval():
    g = build_grid(1.0, 2000)
    es = dirichlet_eigensystem(potential(g, Const(0.0)), 2)
    want = np.array([np.pi ** 2, 4 * np.pi ** 2])
    assert np.max(np.abs(es.lam - want) / want) <= 1e-7


def test_spectrum_cosine_vs_oracles(q_cosine):
    es = dirichlet_eigensystem(q_cosine, 1)
    assert abs(es.lam[0] - fd_lambda1()) <= 1e-5     # matrix-oracle contract
    assert abs(es.lam[0] - LAMBDA1_COSINE) <= 1e-8   # actual headroom


def test_kappa_constant_shift():
    g = build_grid(1.0, 2000)
    es = dirichlet_eigensystem(potential(g, Const(5.0)), 1)
    kappa = check_lower_bound(es)
    assert abs(kappa - (np.pi ** 2 + 5.0)) <= 1e-7


def test_lower_bound_rejects_negative_operator():
    g = build_grid(1.0, 400)
    es = dirichlet_eigensystem(potential(g, Const(-15.0)), 1)
    with pytest.raises(AdmissibilityError):
        check_lower_bound(es)


def test_eigen_residual_and_orthonormality(es_zero, q_zero):
    g = q_zero.grid
    lam, phi = es_zero.lam[:10], es_zero.phi[:10]
    for k in (0, 4, 9):
        u = phi[k]
        d2 = (u[:-2] - 2 * u[1:-1] + u[2:]) / g.h ** 2
        res = np.max(np.abs(-d2 + (q_zero.values[1:-1] - lam[k]) * u[1:-1]))
        assert res <= 5e-3 * lam[k]   # second-difference residual, h^2-limited
    gram = np.empty((10, 10))
    for i in range(10):
        for j in range(10):
            gi = GridFunction(g, phi[i].astype(complex))
            gj = GridFunction(g, phi[j].astype(complex))
            gram[i, j] = inner(gi, gj).real
    assert np.max(np.abs(gram - np.eye(10))) <= 1e-8


def assert_transfer_matrices_match(expr, n, K):
    """Pairwise eight-step end values and the blocked-scan history with its
    end slopes run the RK4 scheme of the staged loop in another operation
    order, on the expanded
    lam-polynomials, with lam up to the top of the n >= 6 count cap plus
    max q, where the expansion cancels most."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression(expr))
    qhi = max(q.values.max(), q.mid.max())
    lam = np.linspace(0.0, (n // 6 * np.pi / g.l) ** 2 + qhi, K)
    U0, V0 = staged_loop_reference(q.values, q.mid, g.h, lam, 0.0, 1.0)
    tm = sturm._transfer(q.values, q.mid, g.h)
    U1, vl = sturm._tm_history(tm, lam)
    u1, v1 = sturm._tm_end_values(tm, lam)
    su = np.max(np.abs(U0), axis=0)
    sv = np.max(np.abs(V0), axis=0)
    assert U1.shape == U0.shape and vl.shape == (K,)
    assert np.all(np.abs(U1 - U0) <= 1e-12 * su)
    assert np.all(np.abs(vl - V0[-1]) <= 1e-12 * sv)
    assert np.all(np.abs(u1 - U0[-1]) <= 1e-12 * su)
    assert np.all(np.abs(v1 - V0[-1]) <= 1e-12 * sv)


@pytest.mark.parametrize("n", [2000, 402])
@pytest.mark.parametrize("K", [1, 300])
def test_transfer_matrices_match_staged_loop(n, K):
    """n = 2000 and n = 402 give odd pairwise levels and a ragged last
    block."""
    assert_transfer_matrices_match("2 + cos(3)", n, K)


@pytest.mark.parametrize("expr", ["1e4", "2000*cos(7) + 1500*sin(2)",
                                  "5000*bump(0.5, 0.2, 1.0, 3)", "1e4*cos(1)"])
@pytest.mark.parametrize("n", [2000, 1002, 402])
@pytest.mark.parametrize("K", [1, 300])
def test_transfer_matrices_match_staged_loop_large_q(n, K, expr):
    """Large, steep and rough potentials: at lam = 0 the solutions of the
    first two grow like exp(100) and exp(59).  A pairwise product of the n
    single-step matrices misses the 1e-12 bound on the steep one (1.5e-12
    at n = 402, K = 300).  The eight-step route stays below 7e-13: 6.9e-13
    on the steep one at n = 402, K = 300, 5.1e-13 on the barrier and
    5.0e-13 on the constant at n = 2000, 1.9e-13 on 1e4 cos x."""
    assert_transfer_matrices_match(expr, n, K)


@pytest.mark.parametrize("n", [2000, 402])
def test_eigensystem_end_slopes_match_staged_loop(n):
    """dphi0 and dphil are u'(0) and u'(l) of the staged loop at each
    eigenvalue, divided by the Simpson norm of its history."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression("2 + cos(3)"))
    es = dirichlet_eigensystem(q, n // 10)
    U0, V0 = staged_loop_reference(q.values, q.mid, g.h, es.lam, 0.0, 1.0)
    nrm = np.sqrt(_simpson_weights(g.n, g.h) @ (U0 * U0))
    assert es.dphi0.shape == es.dphil.shape == (es.count,)
    for got, want in ((es.dphi0, V0[0] / nrm), (es.dphil, V0[-1] / nrm)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("n", [2000, 402])
def test_sampled_potential_mid_matches_complex_route(n):
    """Half-step values of a sampled potential equal, bit for bit, the
    real part of the cubic interpolation of its complex grid function."""
    g = build_grid(1.0, n)
    rng = np.random.default_rng(n)
    v = 2.0 + np.cos(3.0 * g.x) + rng.standard_normal(g.size)
    q = Potential(g, v)
    xm = g.x[:-1] + 0.5 * g.h
    want = interp_cubic(GridFunction(g, v.astype(complex)), xm).real
    assert np.array_equal(q.mid.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n", [8, 402, 2000])
def test_step_major_counts_match_node_order(n):
    """The blocked scan keeps its histories step-major (node k b + i at
    [i, k], identities past node n); counted there, the oscillations are
    those of the node-order staged loop, u(l) included and x = 0 not."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression("2 + cos(3)"))
    lam = np.linspace(-5.0, ((n // 6 + 1) * np.pi) ** 2, 40)
    U0, _ = staged_loop_reference(q.values, q.mid, g.h, lam, 0.0, 1.0)
    s = np.sign(U0[1:])
    s[s == 0.0] = 1.0
    want = np.sum(s[:-1] * s[1:] < 0.0, axis=0)
    [(_, U, _)] = sturm._tm_scan(sturm._transfer(q.values, q.mid, g.h), lam)
    assert np.array_equal(sturm._sign_change_counts(U), want)
    assert want.max() >= n // 6


def sign_product_counts(U):
    """The sign-product count: np.sign with zeros made +1, a change where
    neighbouring signs multiply to a negative number."""
    s = np.sign(U)
    s[s == 0.0] = 1.0
    within = np.sum(s[:-1] * s[1:] < 0.0, axis=(0, 1))
    across = np.sum(s[-1, :-1] * s[0, 1:] < 0.0, axis=0)
    return within + across - (s[0, 0] * s[1, 0] < 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sign_bit_counts_match_sign_products(seed):
    """Counting flips of u < 0 gives the sign-product counts on histories
    with exact 0.0 and -0.0 nodes: both zeros count as nonnegative."""
    rng = np.random.default_rng(seed)
    U = np.cumsum(rng.standard_normal((12, 9, 33)), axis=0)
    U[rng.random(U.shape) < 0.1] = 0.0
    U[rng.random(U.shape) < 0.1] = -0.0
    U[:, :, 0] = rng.choice([0.0, -0.0, -1.0, 1.0], size=U.shape[:2])
    assert np.any(np.signbit(U) & (U == 0.0))
    got = sturm._sign_change_counts(U)
    assert np.array_equal(got, sign_product_counts(U)) and np.any(got > 0)


def test_refinement_brackets_each_root_in_few_passes(q_cosine, monkeypatch):
    """The Dekker-safeguarded secant on the Prufer phase closes every
    bracket: u_lam(l) changes sign across lam_k (1 +- rel_tol), within a
    dozen end-value passes."""
    passes = []
    end_values = sturm._tm_end_values

    def counted(tm, lam):
        passes.append(lam.size)
        return end_values(tm, lam)

    monkeypatch.setattr(sturm, "_tm_end_values", counted)
    rel_tol = 1e-10
    es = dirichlet_eigensystem(q_cosine, 300, rel_tol=rel_tol)
    assert len(passes) <= 12
    monkeypatch.undo()
    assert_roots_bracketed(q_cosine, es, rel_tol)


def test_refinement_reaches_tight_tolerance(q_cosine):
    """rel_tol = 1e-13, a thousandth of the default, still brackets every
    root of 300 modes."""
    rel_tol = 1e-13
    es = dirichlet_eigensystem(q_cosine, 300, rel_tol=rel_tol)
    assert_roots_bracketed(q_cosine, es, rel_tol)


def count_columns(monkeypatch):
    """Record the lam-columns of every blocked-scan and end-value call."""
    history, ends = [], []
    scan, end_values = sturm._tm_scan, sturm._tm_end_values

    def counted_history(tm, lam):
        history.append(lam.size)
        return scan(tm, lam)

    def counted_ends(tm, lam):
        ends.append(lam.size)
        return end_values(tm, lam)

    monkeypatch.setattr(sturm, "_tm_scan", counted_history)
    monkeypatch.setattr(sturm, "_tm_end_values", counted_ends)
    return history, ends


def test_shooting_column_budget(q_cosine, monkeypatch):
    """Oscillations are counted at two separators, not at all count + 1,
    and the phase secant needs about three end-value passes: on 2 + cos 3x
    the signs of u(l) and the two end counts certify every separator, so
    counting takes 2 history columns, one end-value pass covers the
    count + 1 separators, and refinement at most 4 * count end-value
    columns."""
    history, ends = count_columns(monkeypatch)
    count = 300
    dirichlet_eigensystem(q_cosine, count)
    counting = sum(history) - count          # the rest are the eigenfunctions
    assert counting <= 2
    assert ends[0] == count + 1
    assert sum(ends[1:]) <= 4 * count


def assert_roots_bracketed(q, es, rel_tol):
    """u_lam(l) changes sign across every lam_k (1 +- rel_tol)."""
    tm = sturm._transfer(q.values, q.mid, q.grid.h)
    lo, _ = sturm._tm_end_values(tm, es.lam * (1 - rel_tol))
    hi, _ = sturm._tm_end_values(tm, es.lam * (1 + rel_tol))
    assert np.all(lo * hi < 0.0)


@pytest.mark.parametrize("l, expr, count", [(1.0, "2 + cos(3)", 300), (np.pi, "0", 10),
                                             (1.0, "2 + cos(3)", 1)])
def test_counted_route_matches_certified_route(l, expr, count, monkeypatch):
    """With the certificate refused, every separator is counted; where all
    counts are already right, the eigenpairs are those of the certified
    route bit for bit, because both feed the secant the same end values."""
    q = potential(build_grid(l, 2000), parse_expression(expr))
    certified = dirichlet_eigensystem(q, count)
    history, _ = count_columns(monkeypatch)
    monkeypatch.setattr(sturm, "_separators_certified", lambda ends, u: False)
    counted = dirichlet_eigensystem(q, count)
    assert sum(history) - count == 2 + (count + 1)     # the ends, then every separator
    for f in ("lam", "phi", "dphi0", "dphil"):
        got, want = getattr(counted, f), getattr(certified, f)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_tunnelling_potential_takes_counted_route(monkeypatch):
    """A tall barrier makes the comparison intervals overlap, so u(l)
    signs cannot certify the separators: they are counted and bisected,
    and every root is still bracketed to rel_tol."""
    q = potential(build_grid(1.0, 2000), parse_expression("5000*bump(0.5, 0.2, 1.0, 3)"))
    history, _ = count_columns(monkeypatch)
    count, rel_tol = 40, 1e-10
    es = dirichlet_eigensystem(q, count, rel_tol=rel_tol)
    assert sum(history) - count > count + 1
    assert_roots_bracketed(q, es, rel_tol)


def test_certificate_refuses_wrong_counts_and_signs():
    u = np.array([0.5, -2.0, 1e-300, -3.0])
    assert sturm._separators_certified(np.array([0, 3]), u)
    for ends in ([1, 3], [0, 2], [0, 4]):
        assert not sturm._separators_certified(np.array(ends), u)
    for k in range(u.size):
        flipped = u.copy()
        flipped[k] = -flipped[k]
        assert not sturm._separators_certified(np.array([0, 3]), flipped)
    zero = u.copy()
    zero[2] = 0.0
    assert not sturm._separators_certified(np.array([0, 3]), zero)


def mul2_reference(R, L):
    """_mul2 as the entry-by-entry loop that the contraction replaced:
    P[i] = R[r] L[l] + R[r+1] L[l+2] on entry arrays (4, ...).  The
    contraction accumulates into a zeroed output, so it differs only where
    both products are -0 (it gives +0); no case here has one."""
    P = np.empty(R.shape)
    t = np.empty(R.shape[1:])
    for i, (r, l) in enumerate(((0, 0), (0, 1), (2, 0), (2, 1))):
        np.multiply(R[r], L[l], out=P[i])
        np.multiply(R[r + 1], L[l + 2], out=t)
        P[i] += t
    return P


def pairwise_reference(E):
    """_pairwise_product on mul2_reference."""
    while E.shape[1] > 1:
        m = E.shape[1]
        P = mul2_reference(E[:, 1::2], E[:, 0:m - 1:2])
        if m % 2:
            P[:, -1] = mul2_reference(E[:, -1], P[:, -1])
        E = P
    return E[:, 0]


def end_values_reference(tm, lam):
    """_tm_end_values on mul2_reference and pairwise_reference."""
    u = np.empty(lam.shape[0])
    v = np.empty(lam.shape[0])
    for cols in sturm._batches(tm.n, lam.shape[0]):
        E = sturm._evaluate(tm.C8h, sturm._powers(lam[cols], 17))
        for _ in range(3):
            half = E.shape[1] // 2
            E = mul2_reference(E[:, half:], E[:, :half])
        P = pairwise_reference(E)
        u[cols], v[cols] = P[1], P[3]
    return u, v


def block_matrices_reference(tm, lam):
    """Block matrices (4, B-1, K), each the pairwise_reference product of
    its b/8 eight-step matrices."""
    b, B = tm.b, tm.B
    C8 = tm.C8[:, :(B - 1) * b // 8]
    T = sturm._evaluate(C8, sturm._powers(lam, 17)).reshape(4, B - 1, b // 8, lam.shape[0])
    return pairwise_reference(T.swapaxes(1, 2))


def block_starts_reference(T):
    """_block_starts as the entry-by-entry loop over the blocks."""
    S = np.empty((2, T.shape[1] + 1, T.shape[2]))
    u, v = S
    u[0] = 0.0
    v[0] = 1.0
    for k in range(T.shape[1]):
        u[k + 1] = T[0, k] * u[k] + T[1, k] * v[k]
        v[k + 1] = T[2, k] * u[k] + T[3, k] * v[k]
    return S


def block_steps_reference(tm, lam, S):
    """_block_steps as the entry-by-entry loop on one rolling slope slab."""
    b, B, K = tm.b, tm.B, lam.shape[0]
    r = tm.n - (B - 1) * b
    U = np.empty((b, B, K))
    U[0] = S[0]
    v = S[1].copy()
    vl = v[-1].copy()
    t = np.empty((B, K))
    powers = sturm._powers(lam, 3)
    for i, C1 in enumerate(tm.C1s):
        E = sturm._evaluate(C1, powers)
        np.multiply(E[0], U[i], out=U[i + 1])
        U[i + 1] += np.multiply(E[1], v, out=t)
        np.multiply(E[3], v, out=t)
        np.multiply(E[2], U[i], out=v)
        v += t
        if i + 1 == r:
            vl = v[-1].copy()
    return U, vl


def loop_scan_reference(tm, lam):
    """_tm_scan on the loop references: one block-start pass over every
    lam, then the single steps batch by batch."""
    batches = sturm._batches(tm.n, lam.shape[0])
    S = block_starts_reference(np.concatenate(
        [block_matrices_reference(tm, lam[cols]) for cols in batches], axis=2))
    for cols in batches:
        yield (cols, *block_steps_reference(tm, lam[cols], S[:, :, cols]))


def history_batch_reference(tm, lam):
    """The blocked scan of one batch as the loop that _tm_scan replaced:
    the block starts by a sequential pass per batch, and a stored
    step-major slope history V beside U, each (b, B, K)."""
    b, B, K = tm.b, tm.B, lam.shape[0]
    U = np.empty((b, B, K))
    V = np.empty((b, B, K))
    U[0], V[0] = block_starts_reference(block_matrices_reference(tm, lam))
    t = np.empty((B, K))
    powers = sturm._powers(lam, 3)
    for i, C1 in enumerate(tm.C1s):
        E = sturm._evaluate(C1, powers)
        np.multiply(E[0], U[i], out=U[i + 1])
        U[i + 1] += np.multiply(E[1], V[i], out=t)
        np.multiply(E[2], U[i], out=V[i + 1])
        V[i + 1] += np.multiply(E[3], V[i], out=t)
    return U, V


def scan_reference(tm, lam):
    """What _tm_scan yields, batch by batch, from history_batch_reference:
    the columns, U and u'(l), read at node n = (B - 1) b + r."""
    r = tm.n - (tm.B - 1) * tm.b
    for cols in sturm._batches(tm.n, lam.shape[0]):
        U, V = history_batch_reference(tm, lam[cols])
        yield cols, U, V[r, -1]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("expr", ["2 + cos(3)", "0", "2000*cos(7) + 1500*sin(2)"])
@pytest.mark.parametrize("n", [8, 10, 402, 1002, 2000])
@pytest.mark.parametrize("K", [1, 2, 65, 66, 300])
def test_scan_matches_per_batch_loop(expr, n, K):
    """One block-start pass over all lam and a rolling slope slab give the
    histories and end slopes of the per-batch loop bit for bit: node n
    ends a block at n = 8 and falls inside one otherwise, and K = 65, 66
    and 300 split into several batches at n = 2000."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression(expr))
    tm = sturm._transfer(q.values, q.mid, g.h)
    lam = np.linspace(-5.0, ((n // 6 + 1) * np.pi) ** 2 + q.values.max(), K)
    got, want = list(sturm._tm_scan(tm, lam)), list(scan_reference(tm, lam))
    assert len(got) == len(want) >= 1 + (n == 2000 and K > 65)
    for (cols, U, v), (cols0, U0, v0) in zip(got, want):
        assert cols == cols0 and same_bits(U, U0) and same_bits(v, v0)


@pytest.mark.parametrize("expr", ["2 + cos(3)", "2000*cos(7) + 1500*sin(2)"])
@pytest.mark.parametrize("n", [8, 402, 2000])
@pytest.mark.parametrize("K", [1, 2, 65, 66, 300])
def test_contractions_match_loop_references(expr, n, K):
    """The einsum contractions give the entry-by-entry loops bit for bit:
    the pairwise product of the eight-step matrices, the end values and
    the blocked scan.  A contraction with a fused multiply-add fails here,
    and so does one handed to BLAS (a stacked np.matmul does, with the
    FMA kernels of an x86-64 OpenBLAS)."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression(expr))
    tm = sturm._transfer(q.values, q.mid, g.h)
    lam = np.linspace(-5.0, ((n // 6 + 1) * np.pi) ** 2 + q.values.max(), K)
    E = sturm._evaluate(tm.C8, sturm._powers(lam, 17))
    assert same_bits(sturm._pairwise_product(E), pairwise_reference(E))
    for got, want in zip(sturm._tm_end_values(tm, lam), end_values_reference(tm, lam)):
        assert same_bits(got, want)
    got, want = list(sturm._tm_scan(tm, lam)), list(loop_scan_reference(tm, lam))
    assert len(got) == len(want) >= 1 + (n == 2000 and K > 65)
    for (cols, U, v), (cols0, U0, v0) in zip(got, want):
        assert cols == cols0 and same_bits(U, U0) and same_bits(v, v0)


def test_counted_route_matches_per_batch_loop(monkeypatch):
    """On the tunnelling barrier every separator is counted and bisected;
    through the per-batch loop the eigenpairs are the same bit for bit."""
    q = potential(build_grid(1.0, 2000), parse_expression("5000*bump(0.5, 0.2, 1.0, 3)"))
    count = 40
    es = dirichlet_eigensystem(q, count)
    history = []

    def reference(tm, lam):
        history.append(lam.size)
        return scan_reference(tm, lam)

    monkeypatch.setattr(sturm, "_tm_scan", reference)
    ref = dirichlet_eigensystem(q, count)
    assert sum(history) - count > count + 1
    for f in ("lam", "phi", "dphi0", "dphil"):
        assert same_bits(getattr(es, f), getattr(ref, f))


NORMALISATION_CASES = ([("2 + cos(3)", K) for K in (1, 15, 16, 17, 25, 63, 64, 65, 300, 301)]
                       + [("0", 300), ("2000*cos(7) + 1500*sin(2)", 60)])


def normalisation_digests(whole_array=False):
    """sha256 of (phi, phi'(0), phi'(l)) of each NORMALISATION_CASES
    eigensystem at n = 2000, as solved or, with `whole_array`, normalised
    over the whole history array at once from the blocked scan at the
    refined eigenvalues."""
    digests = []
    for expr, count in NORMALISATION_CASES:
        es = dirichlet_eigensystem(potential(build_grid(1.0, 2000), expr), count)
        parts = (es.phi, es.dphi0, es.dphil)
        if whole_array:
            g = es.grid
            U, v = sturm._tm_history(sturm._transfer(es.q.values, es.q.mid, g.h), es.lam)
            phi = U.T
            nrm = np.sqrt((phi * phi) @ _simpson_weights(g.n, g.h))
            phi /= nrm[:, None]
            parts = (phi, 1.0 / nrm, v / nrm)
        digests.append(hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest())
    return digests


def test_blockwise_normalisation_matches_whole_array():
    """Normalising the eigenfunctions in place, a block of rows at a time,
    gives the bits of the whole-array product: the block height is a
    multiple of the four rows OpenBLAS's dgemv takes at a time, and a lone
    last row joins its block.  The whole-array product is taken in a fresh
    process with one BLAS thread: past about 4e5 cells OpenBLAS splits a
    dgemv between threads at row counts that need not be multiples of
    four, so there its bits depend on the thread count, while the blocks
    stay below that size and the solve's do not."""
    src = str(Path(sturm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_sturm; "
            "print(*test_sturm.normalisation_digests(whole_array=True))")
    run = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == normalisation_digests()


def test_eigensystem_peak_memory_is_its_eigenfunctions():
    """Past the eigenfunctions themselves the solver's traced peak is a
    bounded working set, not a second eigenfunction-sized array."""
    q = potential(build_grid(1.0, 4000), "2 + cos(3)")
    tracemalloc.start()
    try:
        es = dirichlet_eigensystem(q, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * es.phi.nbytes


def m_major_polymul2(R, L):
    """_polymul2 as the loop over (4, m, d) entry arrays that it replaced:
    the same accumulation order, on strided coefficient columns."""
    dl = L.shape[2]
    P = np.zeros(R.shape[:2] + (R.shape[2] + dl - 1,))
    for i, (r, l) in enumerate(((0, 0), (0, 1), (2, 0), (2, 1))):
        for a, c in ((r, l), (r + 1, l + 2)):
            for k in range(R.shape[2]):
                P[i, :, k:k + dl] += R[a, :, k, None] * L[c]
    return P


def identities(m, d):
    """m identity matrices as polynomial entry arrays (4, m, d)."""
    I = np.zeros((4, m, d))
    I[(0, 3), :, 0] = 1.0
    return I


@pytest.mark.parametrize("n", [8, 10, 402, 1002, 2000])
def test_eight_step_polynomials_match_m_major_loop(n):
    """The coefficient-major eight-step products, and their reordered copy
    for the end values, equal the step-major loop 1 -> 2 -> 4 -> 8 bit for
    bit; an odd four-step count (n = 10, 402, 1002) is padded with an
    identity before the last level.  The rows of the reordered copy that
    hold no product hold identities."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression("2 + cos(3)"))
    tm = sturm._transfer(q.values, q.mid, g.h)
    C1 = sturm._step_polynomials(q.values, q.mid, g.h, -(-n // 4) * 4).transpose(0, 2, 1)
    C2 = m_major_polymul2(C1[:, 1::2], C1[:, 0::2])
    C4 = m_major_polymul2(C2[:, 1::2], C2[:, 0::2])
    C4 = np.concatenate([C4, identities(C4.shape[1] % 2, 9)], axis=1)
    C8 = m_major_polymul2(C4[:, 1::2], C4[:, 0::2])
    j = np.arange(C8.shape[1])
    Q = -(-j.size // 8)
    rows = sturm._REV3[j % 8] * Q + j // 8
    rest = np.setdiff1d(np.arange(8 * Q), rows)
    assert C8.shape == (4, -(-n // 8), 17) and tm.C8h.shape == (4, 8 * Q, 17)
    assert same_bits(tm.C8, C8)
    assert same_bits(tm.C8h[:, rows], C8)
    assert same_bits(tm.C8h[:, rest], identities(rest.size, 17))


def rk4_dirichlet_roots(c, l, n, count):
    """Exact Dirichlet roots of the RK4 shooting scheme for q = c.

    The step matrix M is the same at every step, with m11 = m22 and, for
    x = h^2 (c - lam), det M = 1 + x^3/72 + x^4/576 and m12 m21 =
    x (1 + x/6)^2.  u_n = (M^n)_12 vanishes where n theta = k pi, with
    cos theta = m11 / sqrt(det M); for theta < pi/2 this is
    sin theta = sqrt(-x) (1 + x/6) / sqrt(det M), free of cancellation."""
    h = l / n

    def sin_theta(y):        # y = -x = h^2 (lam - c)
        return np.sqrt(y) * (1.0 - y / 6.0) / np.sqrt(1.0 - y ** 3 / 72.0 + y ** 4 / 576.0)

    y = [brentq(lambda y: sin_theta(y) - np.sin(k * np.pi / n), 0.0, 0.3,
                xtol=1e-300, rtol=4 * np.finfo(float).eps) for k in range(1, count + 1)]
    return c + np.array(y) / h ** 2


@pytest.mark.parametrize("c", [0.0, 1.0, 1e6])
def test_spectrum_matches_exact_discrete_roots(c, monkeypatch):
    """All 300 modes of a constant potential land on the scheme's own roots
    (the RK4 phase drift is in both), which pins the separators and the
    refinement over the whole spectrum.  The drift pad of the comparison
    bounds depends on the oscillation of q, not its size, so every
    separator is certified without counting it, even at q = 1e6."""
    history, _ = count_columns(monkeypatch)
    g = build_grid(1.0, 2000)
    rel_tol = 1e-10
    count = 300
    es = dirichlet_eigensystem(potential(g, Const(c)), count, rel_tol=rel_tol)
    want = rk4_dirichlet_roots(c, g.l, g.n, count)
    assert np.all(np.abs(es.lam - want) <= 2 * rel_tol * np.maximum(1.0, np.abs(want)))
    assert sum(history) - count <= 2


def test_grid_too_coarse_for_modes():
    g = build_grid(1.0, 100)
    with pytest.raises(ConfigurationError):
        dirichlet_eigensystem(potential(g, Const(0.0)), 80)


def test_propagator_parabola_fourier(es_zero, q_zero):
    """x(1-x) against its analytic sine series: the Simpson inner products
    with the q = 0 eigenfunctions, which every modal synthesis starts from,
    are 2*sqrt(2)*(1-cos n pi)/(n pi)^3."""
    g = q_zero.grid
    got = es_zero.phi @ (_simpson_weights(g.n, g.h) * (g.x * (1 - g.x)))
    n = np.arange(1, es_zero.count + 1)
    want = 2 * np.sqrt(2) * (1 - np.cos(n * np.pi)) / (n * np.pi) ** 3
    assert np.max(np.abs(got - want)) <= 1e-6
