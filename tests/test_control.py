"""Boundary control dynamics: trace maps, smooth waves, sources, oracles."""

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.integrate import simpson

from slwave.analytic import Const, bump, parse_expression
from slwave.control import (ControlSignal, SourceTerm,
                            _kernel_modal_coefficients, control_to_kernel,
                            fdtd_oracle, gamma1, gamma2,
                            reachable_span_estimate, smooth_wave, source_wave,
                            support_report)
from slwave.errors import AdmissibilityError, ConfigurationError, ContractError
from slwave.grid import GridFunction, build_grid, quad
from slwave.sturm import (dirichlet_eigensystem, kernel_basis,
                          modal_coefficients, potential)

# frozen quadrature oracle for gamma2(sin pi x), q=0:
# projection of pi^2 sin(pi x) onto (x, x-1) in the L2(0,1) Gram sense
GAMMA2_SINE = (2 * np.pi, -2 * np.pi)


def test_gamma2_frozen_oracle_reproducible():
    g11 = scipy_quad(lambda x: x * x, 0, 1)[0]
    g12 = scipy_quad(lambda x: x * (x - 1), 0, 1)[0]
    g22 = scipy_quad(lambda x: (x - 1) ** 2, 0, 1)[0]
    r0 = scipy_quad(lambda x: np.pi ** 2 * np.sin(np.pi * x) * x, 0, 1)[0]
    rl = scipy_quad(lambda x: np.pi ** 2 * np.sin(np.pi * x) * (x - 1), 0, 1)[0]
    det = g11 * g22 - g12 ** 2
    c0 = (g22 * r0 - g12 * rl) / det
    cl = (g11 * rl - g12 * r0) / det
    assert c0 == pytest.approx(GAMMA2_SINE[0], abs=1e-10)
    assert cl == pytest.approx(GAMMA2_SINE[1], abs=1e-10)


def test_gamma1_is_minus_identity_on_kernel(kb_zero, q_zero):
    g = q_zero.grid
    # u = 2 phi0 - 3 phil; gamma1 returns the kernel coefficients of -u
    u = GridFunction(g, 2.0 * kb_zero.phi0.u.values - 3.0 * kb_zero.phil.u.values)
    a, b = gamma1(u, kb_zero)
    assert a == pytest.approx(-2.0, abs=1e-13)
    assert b == pytest.approx(3.0, abs=1e-13)


def test_gamma2_sine(kb_zero, q_zero):
    g = q_zero.grid
    u = GridFunction(g, np.sin(np.pi * g.x).astype(complex))
    lstar = GridFunction(g, (np.pi ** 2 * np.sin(np.pi * g.x)).astype(complex))
    c0, cl = gamma2(u, lstar, kb_zero)
    assert abs(c0 - GAMMA2_SINE[0]) <= 1e-6
    assert abs(cl - GAMMA2_SINE[1]) <= 1e-6


def test_control_dictionary_trace(kb_zero, q_zero):
    """h(t)(0) = -f0(t), h(t)(l) = -fl(t) for any control pair."""
    c = ControlSignal(bump(0.2, 0.3, 1.0, 6), bump(0.3, 0.4, -0.7, 6))
    kc = control_to_kernel(c, kb_zero)
    for t in (0.1, 0.25, 0.4):
        h = (kc.a(t) * kb_zero.phi0.u.values + kc.b(t) * kb_zero.phil.u.values)
        assert abs(h[0] + c.f0.deriv(np.array([t]), 0)[0]) <= 1e-13
        assert abs(h[-1] + c.fl.deriv(np.array([t]), 0)[0]) <= 1e-13


def test_control_rejects_nonvanishing_start():
    # admissibility needs a vanishing 4-jet at t=0
    with pytest.raises(ContractError):
        ControlSignal(Const(1.0), Const(0.0))


def test_dalembert_traveling_wave(es_zero, kb_zero, q_zero):
    g = q_zero.grid
    f0 = bump(0.1, 0.1, 1.0, 6)     # support (0.05, 0.15)
    c = ControlSignal(f0, Const(0.0))
    t = 0.2
    u = smooth_wave(control_to_kernel(c, kb_zero), t, es_zero)
    want = f0.deriv(t - g.x, 0)
    assert np.max(np.abs(u.values - want)) <= 2e-3


def test_kernel_coefficients_green_identity(es_zero, kb_zero, q_cosine):
    """Green's identity coefficients of phi0 and phil agree with the Simpson
    inner products (phi0, phi_n), (phil, phi_n) on the first ten modes."""
    cases = [(es_zero, kb_zero),
             (dirichlet_eigensystem(q_cosine, 10), kernel_basis(q_cosine))]
    for es, kb in cases:
        c0, cl = _kernel_modal_coefficients(es, kb)
        for got, basis in ((c0, kb.phi0.u), (cl, kb.phil.u)):
            want = modal_coefficients(es, basis).real[:10]
            assert np.max(np.abs(got[:10] - want) / np.abs(want)) <= 1e-9


def test_smooth_wave_needs_positive_spectrum():
    """q = -20 on [0, 1] has lambda_1 = pi^2 - 20 < 0."""
    q = potential(build_grid(1.0, 200), Const(-20.0))
    es = dirichlet_eigensystem(q, 10)
    kc = control_to_kernel(ControlSignal(bump(0.1, 0.1, 1.0, 6), Const(0.0)),
                           kernel_basis(q))
    with pytest.raises(AdmissibilityError):
        smooth_wave(kc, 0.3, es)


def test_smooth_wave_linearity(es_zero, kb_zero):
    c1 = ControlSignal(bump(0.2, 0.3, 1.0, 6), Const(0.0))
    c2 = ControlSignal(Const(0.0), bump(0.25, 0.3, 0.5, 6))
    k1 = control_to_kernel(c1, kb_zero)
    k2 = control_to_kernel(c2, kb_zero)
    k12 = control_to_kernel(ControlSignal(c1.f0, c2.fl), kb_zero)
    t = 0.3
    a = smooth_wave(k1, t, es_zero)
    b = smooth_wave(k2, t, es_zero)
    ab = smooth_wave(k12, t, es_zero)
    assert np.max(np.abs(ab.values - a.values - b.values)) <= 1e-10


def test_time_shift_consistency(es_zero, kb_zero):
    """(u^h)' = u^(h'): centered t-difference vs the differentiated control."""
    c = ControlSignal(bump(0.2, 0.3, 1.0, 6), Const(0.0))
    kc = control_to_kernel(c, kb_zero)
    kc1 = control_to_kernel(c.differentiate(1), kb_zero)
    # eps balances the eps^2 truncation (third t-derivative is
    # lambda^(3/2)-weighted) against roundoff growth 1/eps
    t, eps = 0.35, 2e-5
    left = smooth_wave(kc, t - eps, es_zero)
    right = smooth_wave(kc, t + eps, es_zero)
    ddt = (right.values - left.values) / (2 * eps)
    want = smooth_wave(kc1, t, es_zero)
    assert np.max(np.abs(ddt - want.values)) <= 1e-5


def test_boundary_trace_identities(es_zero, kb_zero, q_zero):
    f0 = bump(0.12, 0.2, 1.0, 6)
    c = ControlSignal(f0, Const(0.0))
    t = 0.18    # inside the support so the trace is active
    u = smooth_wave(control_to_kernel(c, kb_zero), t, es_zero)
    f0_t = f0.deriv(np.array([t]), 0)[0]
    assert abs(u.values[0] - f0_t) <= 2e-3          # Gibbs-limited
    oracle = fdtd_oracle(c, q_zero, horizon=t)
    assert oracle.values[0] == pytest.approx(f0_t, abs=1e-14)


def test_fdtd_cross_check_zero_potential(es_zero, kb_zero, q_zero):
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), Const(0.0))
    t = 0.4
    u = smooth_wave(control_to_kernel(c, kb_zero), t, es_zero)
    oracle = fdtd_oracle(c, q_zero, horizon=t)
    diff = u.values - oracle.values
    l2 = np.sqrt(quad(GridFunction(q_zero.grid, np.abs(diff) ** 2 + 0j)).real)
    assert l2 <= 1e-3


def leapfrog_loop_reference(c, q, horizon, cfl=0.5):
    """The leapfrog of fdtd_oracle written as one array expression per step
    with a fresh array each step, in the evaluation order the oracle keeps."""
    g = q.grid
    steps = max(1, int(np.ceil(horizon / (cfl * g.h))))
    dt = horizon / steps
    r2 = (dt / g.h) ** 2
    qv = q.values
    tgrid = dt * np.arange(steps + 1)
    f0v = np.asarray(c.f0(tgrid), dtype=float)
    flv = np.asarray(c.fl(tgrid), dtype=float)
    z_prev = np.zeros(g.size)
    z = np.zeros(g.size)
    z[0] = f0v[1]
    z[-1] = flv[1]
    for m in range(2, steps + 1):
        z_next = np.empty(g.size)
        z_next[1:-1] = (2.0 * z[1:-1] - z_prev[1:-1]
                        + r2 * (z[2:] - 2.0 * z[1:-1] + z[:-2])
                        - dt * dt * qv[1:-1] * z[1:-1])
        z_next[0] = f0v[m]
        z_next[-1] = flv[m]
        z_prev, z = z, z_next
    return z


@pytest.mark.parametrize("horizon, cfl", [(1.0, 0.5), (0.37, 0.9)])
def test_fdtd_matches_array_loop_bit_for_bit(horizon, cfl):
    """The buffered leapfrog reproduces the one-expression loop exactly,
    for a variable potential and data at both ends."""
    q = potential(build_grid(1.0, 600), parse_expression("2 + cos(3)"))
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), bump(0.15, 0.1, -0.7, 6))
    want = leapfrog_loop_reference(c, q, horizon, cfl)
    got = fdtd_oracle(c, q, horizon=horizon, cfl=cfl)
    assert np.any(want[1:-1] != 0.0)
    assert np.array_equal(got.values.real, want) and not np.any(got.values.imag)


def test_fdtd_rejects_bad_cfl(q_zero):
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), Const(0.0))
    with pytest.raises(ConfigurationError):
        fdtd_oracle(c, q_zero, horizon=0.2, cfl=1.2)


def test_source_wave_single_mode(es_zero, q_zero):
    """g(s) = sin(sqrt(lam1) s) phi1 resonates:
    v(t) = (sin(mu t) - mu t cos(mu t)) / (2 lam1) * phi1."""
    g = q_zero.grid
    mu = np.sqrt(es_zero.lam[0])
    phi1 = GridFunction(g, es_zero.phi[0].astype(complex))
    term = SourceTerm(phi1, parse_expression(f"sin({mu})"))
    t = 0.6
    v = source_wave(term, t, es_zero)
    amp = (np.sin(mu * t) - mu * t * np.cos(mu * t)) / (2 * es_zero.lam[0])
    assert np.max(np.abs(v.values - amp * phi1.values)) <= 1e-6


def test_source_wave_callable_matches_separable(es_zero, q_zero):
    """The exact sine moments of a separable source agree with Simpson's
    rule in s over the sampled source s -> signal(s) * profile, with step
    at most min(t/64, 1/(10 sqrt(lam_max)))."""
    g = q_zero.grid
    prof = GridFunction(g, bump(0.5, 0.2, 1.0, 6).deriv(g.x, 0).astype(complex))
    signal = parse_expression("bump(0.1, 0.16, 1.0, 6)")
    t = 0.15
    exact = source_wave(SourceTerm(prof, signal), t, es_zero)
    mu = np.sqrt(es_zero.lam)
    m = int(np.ceil(t / min(t / 64.0, 1.0 / (10.0 * mu[-1]))))
    s = np.linspace(0.0, t, m + m % 2 + 1)
    kernel = simpson(np.sin(np.outer(t - s, mu)) * signal(s)[:, None], x=s, axis=0)
    sampled = (kernel * modal_coefficients(es_zero, prof) / mu) @ es_zero.phi
    assert np.max(np.abs(sampled - exact.values)) <= 1e-8 * np.max(np.abs(exact.values))


def test_source_wave_finite_speed(es_zero, q_zero):
    """Mass of v(t) stays inside the metric neighborhood of the source support."""
    g = q_zero.grid
    prof = GridFunction(g, bump(0.5, 0.2, 1.0, 6).deriv(g.x, 0).astype(complex))
    term = SourceTerm(prof, parse_expression("bump(0.1, 0.16, 1.0, 6)"))
    t = 0.15
    v = source_wave(term, t, es_zero)
    # support (0.4, 0.6) expanded by t plus a safety margin
    lo, hi = 0.4 - t - 0.01, 0.6 + t + 0.01
    outside = (g.x < lo) | (g.x > hi)
    num = np.sqrt(quad(GridFunction(g, np.where(outside, np.abs(v.values) ** 2, 0.0) + 0j)).real)
    den = np.sqrt(quad(GridFunction(g, np.abs(v.values) ** 2 + 0j)).real)
    assert num <= 1e-4 * den


def test_support_report_cone(es_zero, kb_zero):
    c = ControlSignal(bump(0.05, 0.08, 1.0, 6), bump(0.045, 0.07, 0.8, 6))
    kc = control_to_kernel(c, kb_zero)
    t = 0.2
    rep = support_report(smooth_wave(kc, t, es_zero), t)
    assert rep.ratio <= 1e-6
    assert rep.passed


def test_reachable_span_estimate(es_zero, kb_zero):
    est = reachable_span_estimate(0.6, es_zero, kb_zero, samples=32, seed=0)
    assert est.ratio >= 1e-6
    est2 = reachable_span_estimate(0.6, es_zero, kb_zero, samples=32, seed=0)
    assert est.ratio == est2.ratio     # deterministic for a fixed seed
