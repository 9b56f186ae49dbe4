"""Shooting eigensolver and kernel basis against independent oracles.

Two oracles pin lambda_1 of -u'' + (2+cos 3x)u on [0,1]: a high-order
adaptive integrator with Brent root-finding (frozen to 12 digits), and a
finite-difference tridiagonal eigensolve whose absolute accuracy is
limited to ~1e-8 by the eps*||T|| noise floor of the matrix route.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_ivp
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from slwave.analytic import Const, parse_expression
from slwave.errors import AdmissibilityError, ConfigurationError, NumericalError
from slwave import sturm
from slwave.grid import GridFunction, build_grid, inner
from slwave.control import SourceTerm, source_wave
from slwave.sturm import (check_lower_bound, dirichlet_eigensystem,
                          kernel_basis, modal_coefficients, potential,
                          solve_ivp)

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


def test_ivp_zero_potential_linear():
    g = build_grid(1.0, 100)
    q = potential(g, Const(0.0))
    sol = solve_ivp(q, 0.0, "left", 0.0, 1.0)
    assert np.max(np.abs(sol.u.values - g.x)) <= 1e-10
    assert np.max(np.abs(sol.du.values - 1.0)) <= 1e-10


def test_ivp_sine_solution():
    g = build_grid(1.0, 1000)
    q = potential(g, Const(0.0))
    sol = solve_ivp(q, np.pi ** 2, "left", 0.0, 1.0)
    assert np.max(np.abs(sol.u.values - np.sin(np.pi * g.x) / np.pi)) <= 1e-8


def test_ivp_rk4_convergence_order():
    errs = []
    for n in (200, 400):
        g = build_grid(1.0, n)
        q = potential(g, Const(0.0))
        sol = solve_ivp(q, np.pi ** 2, "left", 0.0, 1.0)
        errs.append(np.max(np.abs(sol.u.values - np.sin(np.pi * g.x) / np.pi)))
    assert np.log2(errs[0] / errs[1]) > 3.8


def test_ivp_right_side_data():
    g = build_grid(1.0, 400)
    q = potential(g, Const(0.0))
    sol = solve_ivp(q, 0.0, "right", 0.0, 1.0)
    assert np.max(np.abs(sol.u.values - (g.x - 1.0))) <= 1e-10
    with pytest.raises(ConfigurationError):
        solve_ivp(q, 0.0, "middle", 0.0, 1.0)


@pytest.mark.parametrize("n", [2000, 402])
@pytest.mark.parametrize("lam", [0.0, np.pi ** 2])
@pytest.mark.parametrize("side", ["left", "right"])
def test_scalar_sweep_matches_array_loop(n, lam, side):
    """The Python-float sweep reproduces the float64 array loop bit for bit,
    for the left data and for the reversed right data of solve_ivp."""
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
        solve_ivp(q, 0.0, "left", 0.0, 1.0)


def test_kernel_basis_hyperbolic():
    g = build_grid(1.0, 2000)
    kb = kernel_basis(potential(g, Const(1.0)))
    assert abs(kb.phi0.u.values[-1].real - np.sinh(1.0)) <= 1e-8
    # phi0(l) = -phil(0), the control-dictionary pivot
    assert abs(kb.phi0_at_l + kb.phil_at_0) <= 1e-12


def test_kernel_basis_wronskian_constant():
    g = build_grid(1.0, 800)
    kb = kernel_basis(potential(g, parse_expression("2 + cos(3)")))
    w = (kb.phi0.u.values * kb.phil.du.values
         - kb.phi0.du.values * kb.phil.u.values)
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
    """Pairwise four-step end values and blocked-scan histories run the RK4
    scheme of the staged loop in another operation order, on the expanded
    lam-polynomials, with lam up to the top of the n >= 6 count cap plus
    max q, where the expansion cancels most."""
    g = build_grid(1.0, n)
    q = potential(g, parse_expression(expr))
    qhi = max(q.values.max(), q.mid.max())
    lam = np.linspace(0.0, (n // 6 * np.pi / g.l) ** 2 + qhi, K)
    U0, V0 = staged_loop_reference(q.values, q.mid, g.h, lam, 0.0, 1.0)
    tm = sturm._transfer(q.values, q.mid, g.h)
    U1, V1 = sturm._tm_history(tm, lam)
    u1, v1 = sturm._tm_end_values(tm, lam)
    su = np.max(np.abs(U0), axis=0)
    sv = np.max(np.abs(V0), axis=0)
    assert U1.shape == U0.shape
    assert np.all(np.abs(U1 - U0) <= 1e-12 * su)
    assert np.all(np.abs(V1 - V0) <= 1e-12 * sv)
    assert np.all(np.abs(u1 - U0[-1]) <= 1e-12 * su)
    assert np.all(np.abs(v1 - V0[-1]) <= 1e-12 * sv)


@pytest.mark.parametrize("n", [2000, 402])
@pytest.mark.parametrize("K", [1, 300])
def test_transfer_matrices_match_staged_loop(n, K):
    """n = 2000 and n = 402 give odd pairwise levels and a ragged last
    block."""
    assert_transfer_matrices_match("2 + cos(3)", n, K)


@pytest.mark.parametrize("expr", ["1e4", "2000*cos(7) + 1500*sin(2)"])
@pytest.mark.parametrize("n", [2000, 402])
@pytest.mark.parametrize("K", [1, 300])
def test_transfer_matrices_match_staged_loop_large_q(n, K, expr):
    """Large and steep potentials: at lam = 0 the solutions grow like
    exp(100) and exp(59).  A pairwise product of the n single-step
    matrices misses the 1e-12 bound on the steep one (1.5e-12 at n = 402,
    K = 300); the four-step route stays below 8e-13."""
    assert_transfer_matrices_match(expr, n, K)


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
    U, _ = sturm._tm_history_batch(sturm._transfer(q.values, q.mid, g.h), lam)
    assert np.array_equal(sturm._sign_change_counts(U), want)
    assert want.max() >= n // 6


def test_refinement_brackets_each_root_in_few_passes(q_cosine, monkeypatch):
    """The clamped Illinois secant closes every bracket: u_lam(l) changes
    sign across lam_k (1 +- rel_tol), within a dozen end-value passes."""
    passes = []
    end_values = sturm._tm_end_values

    def counted(tm, lam):
        passes.append(lam.size)
        return end_values(tm, lam)

    monkeypatch.setattr(sturm, "_tm_end_values", counted)
    rel_tol = 1e-10
    es = dirichlet_eigensystem(q_cosine, 300, rel_tol=rel_tol)
    assert len(passes) <= 12
    g = q_cosine.grid
    tm = sturm._transfer(q_cosine.values, q_cosine.mid, g.h)
    lo, _ = end_values(tm, es.lam * (1 - rel_tol))
    hi, _ = end_values(tm, es.lam * (1 + rel_tol))
    assert np.all(lo * hi < 0.0)


def count_columns(monkeypatch):
    """Record the lam-columns of every history and end-value batch."""
    history, ends = [], []
    history_batch, end_values = sturm._tm_history_batch, sturm._tm_end_values

    def counted_history(tm, lam):
        history.append(lam.size)
        return history_batch(tm, lam)

    def counted_ends(tm, lam):
        ends.append(lam.size)
        return end_values(tm, lam)

    monkeypatch.setattr(sturm, "_tm_history_batch", counted_history)
    monkeypatch.setattr(sturm, "_tm_end_values", counted_ends)
    return history, ends


def test_shooting_column_budget(q_cosine, monkeypatch):
    """Oscillations are counted once per separator, not at both ends of
    every bracket, and the phase secant needs about three end-value passes:
    on 2 + cos 3x every separator starts with the right count, so counting
    takes count + 1 history columns, and refinement at most 4 * count
    end-value columns."""
    history, ends = count_columns(monkeypatch)
    count = 300
    dirichlet_eigensystem(q_cosine, count)
    counting = sum(history) - count          # the rest are the eigenfunctions
    assert counting <= count + 1
    assert sum(ends) <= 4 * count


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
    separator starts with the right count even at q = 1e6."""
    history, _ = count_columns(monkeypatch)
    g = build_grid(1.0, 2000)
    rel_tol = 1e-10
    count = 300
    es = dirichlet_eigensystem(potential(g, Const(c)), count, rel_tol=rel_tol)
    want = rk4_dirichlet_roots(c, g.l, g.n, count)
    assert np.all(np.abs(es.lam - want) <= 2 * rel_tol * np.maximum(1.0, np.abs(want)))
    assert sum(history) - count <= count + 1


def test_grid_too_coarse_for_modes():
    g = build_grid(1.0, 100)
    with pytest.raises(ConfigurationError):
        dirichlet_eigensystem(potential(g, Const(0.0)), 80)


# The modal propagator sin(t sqrt(L))/sqrt(L) acts through the source wave:
# a separable source with a unit signal integrates it in time,
# v(t) = sum_n (1 - cos(mu_n t))/mu_n^2 (g, phi_n) phi_n.

def unit_source_wave(es, t, g):
    return source_wave(SourceTerm(g, Const(1.0)), t, es)


def test_propagator_single_mode(es_zero, q_zero):
    g = q_zero.grid
    phi1 = GridFunction(g, es_zero.phi[0].astype(complex))
    t = 0.37
    out = unit_source_wave(es_zero, t, phi1)
    want = ((1.0 - np.cos(np.pi * t)) / np.pi ** 2) * phi1.values
    assert np.max(np.abs(out.values - want)) <= 1e-8


def test_propagator_parabola_fourier(es_zero, q_zero):
    """x(1-x) against its analytic sine series, summed termwise to the
    same truncation: coefficients 2*sqrt(2)*(1-cos n pi)/(n pi)^3."""
    g = q_zero.grid
    u = GridFunction(g, (g.x * (1 - g.x)).astype(complex))
    t = 0.3
    out = unit_source_wave(es_zero, t, u)
    n = np.arange(1, es_zero.count + 1)
    coef = 2 * np.sqrt(2) * (1 - np.cos(n * np.pi)) / (n * np.pi) ** 3
    kernel = (1.0 - np.cos(np.sqrt(es_zero.lam) * t)) / es_zero.lam
    want = (es_zero.phi * (coef * kernel)[:, None]).sum(axis=0)
    assert np.max(np.abs(out.values - want)) <= 1e-6


def test_propagator_linearity(es_zero, q_zero):
    g = q_zero.grid
    u = GridFunction(g, np.sin(np.pi * g.x).astype(complex))
    v = GridFunction(g, (g.x * (1 - g.x)).astype(complex))
    w = GridFunction(g, 2.0 * u.values - 0.5j * v.values)
    t = 0.21
    a = unit_source_wave(es_zero, t, u)
    b = unit_source_wave(es_zero, t, v)
    c = unit_source_wave(es_zero, t, w)
    assert np.max(np.abs(c.values - 2.0 * a.values + 0.5j * b.values)) <= 1e-10


def test_propagator_t_derivative_is_projection(es_zero, q_zero):
    """v''(0) = g: the propagator starts as t times the projection."""
    g = q_zero.grid
    u = GridFunction(g, (g.x * (1 - g.x)).astype(complex))
    eps = 1e-4
    a = unit_source_wave(es_zero, eps, u)
    b = unit_source_wave(es_zero, 2 * eps, u)
    ddt2 = (8 * a.values - 0.5 * b.values) / (3 * eps ** 2)   # Richardson at t=0
    coef = modal_coefficients(es_zero, u)
    proj = (es_zero.phi * coef[:, None]).sum(axis=0)
    assert np.max(np.abs(ddt2 - proj)) <= 1e-6
