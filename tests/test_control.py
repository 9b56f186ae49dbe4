"""Boundary control dynamics: the control dictionary, smooth waves, oracles."""

import inspect

import numpy as np
import pytest

from slwave import control, verify
from slwave.analytic import (Const, PiecewisePoly, Poly, Trig, bump, parse_expression, ramp,
                             values)
from slwave.cli import RunConfig
from slwave.control import (ControlSignal, _batched_smooth_wave,
                            _kernel_modal_coefficients, control_to_kernel,
                            fdtd_oracle, reachable_span_estimate, smooth_wave,
                            smooth_waves, support_report)
from slwave.errors import AdmissibilityError, ConfigurationError, ContractError
from slwave.grid import GridFunction, _simpson_weights, build_grid, quad
from slwave.sturm import dirichlet_eigensystem, kernel_basis, potential


def test_control_dictionary_trace(kb_zero, q_zero):
    """h(t)(0) = -f0(t), h(t)(l) = -fl(t) for any control pair."""
    c = ControlSignal(bump(0.2, 0.3, 1.0, 6), bump(0.3, 0.4, -0.7, 6))
    kc = control_to_kernel(c, kb_zero)
    for t in (0.1, 0.25, 0.4):
        h = (kc.a(t) * kb_zero.phi0 + kc.b(t) * kb_zero.phil)
        assert abs(h[0] + c.f0.deriv(np.array([t]), 0)[0]) <= 1e-13
        assert abs(h[-1] + c.fl.deriv(np.array([t]), 0)[0]) <= 1e-13


def test_control_rejects_nonvanishing_start():
    # admissibility needs a vanishing 4-jet at t=0
    with pytest.raises(ContractError):
        ControlSignal(Const(1.0), Const(0.0))


def deriv_jet_message(f, name):
    """The admissibility message built from deriv(0, k), k = 0, 1, 2."""
    jet = [float(np.max(np.abs(f.deriv(np.zeros(1), k)))) for k in range(3)]
    return (f"control {name} must vanish with its first two derivatives at t=0, "
            f"got 2-jet {jet}")


SHIFTED_RAMP = PiecewisePoly(0.3, 0.5, (0.0, 0.0, 0.0, 10.0, -15.0, 6.0), left=0.25, right=1.0)


@pytest.mark.parametrize("f0, fl, bad", [
    (bump(0.05, 0.2, 1.0, 6), Const(0.0), "f0"),                # straddles t = 0
    (bump(0.2, 0.1, 1.0, 6), SHIFTED_RAMP, "fl"),
    (Trig("sin", 3.0), Const(0.0), "f0"),
    (Const(0.0), Trig("cos", 2.0) - 1.0, "fl"),
    (Poly((0.0, 0.0, 1e-6)), Const(0.0), "f0"),
    (2.0 * ramp(-0.1, 0.2), Const(0.0), "f0"),
    (bump(0.3, 0.2, 1.0, 6) + Trig("sin", 1.0), Const(0.0), "f0"),
    (Const(0.0), -0.5 * bump(0.2, 0.1, 1.0, 6) + bump(0.02, 0.1, 1.0, 6), "fl"),
    (Poly((0.0, 0.0, 0.0, 1.0)).differentiate(1), Const(0.0), "f0"),
    (Const(float("nan")), Const(0.0), "f0"),
], ids=["straddling bump", "shifted ramp with left", "sin", "cos - 1",
        "quadratic", "scaled straddling ramp", "bump + sin", "sum with straddling bump",
        "derivative of cubic", "nan"])
def test_control_rejection_table(f0, fl, bad):
    """Inputs with a nonvanishing 2-jet raise, with the message that
    evaluating deriv at t = 0 gives; a NaN in the jet is not vanishing."""
    with pytest.raises(ContractError) as info:
        ControlSignal(f0, fl)
    assert str(info.value) == deriv_jet_message(f0 if bad == "f0" else fl, bad)


def test_control_admissible_table():
    for f0, fl in [(bump(0.2, 0.3, 1.0, 6), ramp(0.1, 0.3)),
                   (Poly((0.0, 0.0, 0.0, 1.0)), Const(0.0)),
                   (Poly((1e-10,)), -2.0 * bump(0.1, 0.1, 1.0, 3))]:
        ControlSignal(f0, fl)
    # the second derivative of a C^5 bump still has a vanishing 2-jet
    ControlSignal(bump(0.2, 0.3, 1.0, 6), bump(0.1, 0.1, -1.0, 6)).differentiate(2)


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
        for got, basis in ((c0, kb.phi0), (cl, kb.phil)):
            want = es.phi[:10] @ (_simpson_weights(kb.grid.n, kb.grid.h) * basis)
            assert np.max(np.abs(got[:10] - want) / np.abs(want)) <= 1e-9


def test_kernel_signals_scale_after_the_sum(kb_zero):
    """The kernel term of the batched waves reads a(t) and b(t) of every
    control from one values pass.  Each row is that control's own
    evaluation, and equals the kernel scale times the endpoint signal
    summed in parse order: the scale multiplies the sum, not each term."""
    f0 = parse_expression("0.5*ramp(0.05, 0.2) - 0.3*bump(0.1, 0.1, 1, 6) + poly(0, 0, 0, 0.1)")
    fl = parse_expression("2*bump(0.12, 0.1, -0.4, 6) - 0.25*ramp(0.1, 0.3)")
    controls = [control_to_kernel(ControlSignal(f0, fl), kb_zero),
                control_to_kernel(ControlSignal(bump(0.2, 0.1, -0.7, 6), Const(0.0)), kb_zero),
                control_to_kernel(ControlSignal(Const(0.0), parse_expression("0.7*bump(0.3, 0.2)")),
                                  kb_zero)]
    times = np.linspace(0.0, 0.6, 241)
    got = values([kc.a for kc in controls] + [kc.b for kc in controls], times)
    for i, kc in enumerate(controls):
        assert np.array_equal(got[i], kc.a(times))
        assert np.array_equal(got[len(controls) + i], kc.b(times))
    assert np.array_equal(got[0], (-1.0 / kb_zero.phi0_at_l) * fl(times))
    assert np.array_equal(got[len(controls)], (-1.0 / kb_zero.phil_at_0) * f0(times))
    assert np.array_equal(got[2], (-1.0 / kb_zero.phi0_at_l) * (0.7 * bump(0.3, 0.2)(times)))


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


# snapshot times of the batched-wave tests: unsorted, one before every
# control's support, one past the zero system's first reflection
BATCH_TIMES = (0.2, 0.45, 0.02, 0.3, 0.8, 0.6, 1.3)


@pytest.fixture(scope="module")
def wave_systems(es_zero, kb_zero, q_cosine):
    """(eigensystem, kernel controls) on q = 0 and on q = 2 + cos(3)."""
    out = []
    for es, kb in ((es_zero, kb_zero),
                   (dirichlet_eigensystem(q_cosine, 60), kernel_basis(q_cosine))):
        signals = [ControlSignal(bump(0.2, 0.3, 1.0, 6), ramp(0.1, 0.3)),
                   ControlSignal(bump(0.15, 0.2, -0.8, 6), Const(0.0)),
                   ControlSignal(Const(0.0), bump(0.25, 0.3, 0.5, 6))]
        out.append((es, [control_to_kernel(c, kb) for c in signals]))
    return out


def single_rows(kc, times, es):
    return np.array([smooth_wave(kc, t, es).values.real for t in times])


def assert_rows_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_smooth_waves_match_smooth_wave(wave_systems):
    """All snapshots from one moment pass agree with one call per time."""
    for es, controls in wave_systems:
        for kc in controls:
            assert_rows_close(smooth_waves(kc, BATCH_TIMES, es),
                              single_rows(kc, BATCH_TIMES, es))


def test_batched_rows_are_control_major(wave_systems):
    """Row i len(times) + j holds control i at times[j], for one control at
    many times, many controls at one time, and many at many."""
    es, controls = wave_systems[1]
    for kcs, times in (([controls[0]], BATCH_TIMES), (controls, (0.45,)),
                       (controls, BATCH_TIMES)):
        want = np.concatenate([single_rows(kc, times, es) for kc in kcs])
        assert_rows_close(_batched_smooth_wave(kcs, times, es), want)


@pytest.mark.parametrize("per_chunk", [1, 2, 3])
def test_batched_wave_chunks_match_one_pass(wave_systems, monkeypatch, per_chunk):
    """A time vector longer than one moment chunk gives the rows of one pass."""
    es, controls = wave_systems[0]
    whole = _batched_smooth_wave(controls, BATCH_TIMES, es)
    monkeypatch.setattr(control, "_MOMENT_CELLS", 2 * len(controls) * es.count * per_chunk)
    assert_rows_close(_batched_smooth_wave(controls, BATCH_TIMES, es), whole)


@pytest.mark.parametrize("times", [(-0.1, 0.2, 0.3), (0.2, -0.1, 0.3), (0.2, 0.3, -1e-12)])
def test_batched_wave_rejects_any_negative_time(wave_systems, times):
    es, controls = wave_systems[0]
    with pytest.raises(ConfigurationError):
        smooth_waves(controls[0], times, es)
    with pytest.raises(ConfigurationError):
        _batched_smooth_wave(controls, times, es)


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


def leapfrog_loop_reference(c, q, horizon, cfl=0.5, order="factored"):
    """The leapfrog of fdtd_oracle written as one array expression per step
    with a fresh array each step, with inv = 1 / (1 + dt^2 q / 2).
    `order="factored"` is the evaluation order the oracle keeps:
    inv (z[2:] + z[:-2]) - z_prev at r2 = 1, and otherwise
    ((r2 inv) (z[2:] + z[:-2]) + (2 (1 - r2) inv) z) - z_prev;
    `order="expanded"` is the textbook order
    (2z + r2 ((z[2:] - 2z) + z[:-2])) / (1 + dt^2 q / 2) - z_prev."""
    g = q.grid
    steps = max(1, int(np.ceil(horizon / (cfl * g.h))))
    dt = horizon / steps
    r2 = (dt / g.h) ** 2
    qv = q.values[1:-1]
    inv = 1.0 / (1.0 + 0.5 * dt * dt * qv)
    tgrid = dt * np.arange(steps + 1)
    f0v = np.asarray(c.f0(tgrid), dtype=float)
    flv = np.asarray(c.fl(tgrid), dtype=float)
    z_prev = np.zeros(g.size)
    z = np.zeros(g.size)
    z[0] = f0v[1]
    z[-1] = flv[1]
    for m in range(2, steps + 1):
        z_next = np.empty(g.size)
        if order == "expanded":
            z_next[1:-1] = ((2.0 * z[1:-1] + r2 * (z[2:] - 2.0 * z[1:-1] + z[:-2]))
                            / (1.0 + 0.5 * dt * dt * qv) - z_prev[1:-1])
        elif r2 == 1.0:
            z_next[1:-1] = inv * (z[2:] + z[:-2]) - z_prev[1:-1]
        else:
            z_next[1:-1] = ((r2 * inv) * (z[2:] + z[:-2])
                            + ((2.0 * (1.0 - r2)) * inv) * z[1:-1] - z_prev[1:-1])
        z_next[0] = f0v[m]
        z_next[-1] = flv[m]
        z_prev, z = z, z_next
    return z


@pytest.mark.parametrize("horizon, cfl", [(1.0, 0.5), (0.37, 0.9), (1.0, 0.9),
                                          (1.0, 1.0), (0.3705, 1.0)])
def test_fdtd_matches_array_loop_bit_for_bit(horizon, cfl):
    """The buffered leapfrog reproduces the one-expression loop exactly,
    for a variable potential and data at both ends, with and without the
    centre term; the expanded order agrees with it to rounding."""
    q = potential(build_grid(1.0, 600), parse_expression("2 + cos(3)"))
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), bump(0.15, 0.1, -0.7, 6))
    assert (control._leapfrog_steps(q, horizon, cfl)[2] == 1.0) is (cfl == horizon == 1.0)
    want = leapfrog_loop_reference(c, q, horizon, cfl)
    got = fdtd_oracle(c, q, horizon=horizon, cfl=cfl)
    assert np.any(want[1:-1] != 0.0)
    assert np.array_equal(got.values.real, want) and not np.any(got.values.imag)
    expanded = leapfrog_loop_reference(c, q, horizon, cfl, order="expanded")
    assert np.max(np.abs(want - expanded)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [200, 600, 2000])
def test_whole_cell_horizons_step_at_r2_one(n):
    """A horizon of k cells takes k steps at r2 = 1 exactly at cfl 1, also
    where k h / h rounds to just above k (k = 7, 31, 1001, ...)."""
    q = potential(build_grid(1.0, n), Const(0.0))
    got = [control._leapfrog_steps(q, k * q.grid.h, 1.0) for k in range(1, n + 1)]
    assert [(s, r2) for s, _, r2 in got] == [(k, 1.0) for k in range(1, n + 1)]


@pytest.mark.parametrize("t", [0.2, 0.4, 1.0])
def test_fdtd_is_exact_for_zero_potential(q_zero, t):
    """At q = 0 and r2 = 1 the leapfrog is the magic time step: it
    transports the boundary signal exactly, so the oracle equals
    f0(t - x) at every node to rounding."""
    f0 = bump(0.12, 0.2, 1.0, 6)
    oracle = fdtd_oracle(ControlSignal(f0, Const(0.0)), q_zero, horizon=t)
    assert np.max(np.abs(oracle.values - f0.deriv(t - q_zero.grid.x, 0))) <= 1e-10


def test_fdtd_cross_check_reads_the_spectral_wave(acceptance_ws):
    """On the pinned workspace the oracle's own error no longer sets the
    check: it reads below 1e-6 (the leapfrog at cfl 0.9 read 2.4e-5)."""
    assert verify.check_fdtd_cross(acceptance_ws).measured <= 1e-6


def test_fdtd_rejects_bad_cfl(q_zero):
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), Const(0.0))
    for cfl in (1.2, 1.0 + 1e-12, 0.0, -0.5):
        with pytest.raises(ConfigurationError, match="0 < cfl <= 1"):
            fdtd_oracle(c, q_zero, horizon=0.2, cfl=cfl)


@pytest.mark.parametrize("q0, n", [(1.55e5, 400), (4e4, 200)])
def test_fdtd_is_stable_at_cfl_one_for_a_large_positive_potential(q0, n):
    """r2 = 1 with dt^2 q / 2 up to 0.5: the potential mean over the outer
    levels keeps every mode on the unit circle, so the field stays below
    the control amplitude (with an explicit q term, both were unstable at
    cfl 0.9)."""
    q = potential(build_grid(1.0, n), Const(q0))
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), Const(0.0))
    sups = [np.max(np.abs(fdtd_oracle(c, q, horizon=t).values)) for t in (0.5, 1.0, 3.0)]
    assert all(np.isfinite(sups)) and max(sups) <= 0.05


def test_fdtd_refuses_an_unstable_step():
    """1 + dt^2 min(q)/2 <= 0 is a configuration error before any step,
    naming the largest stable cfl: sqrt(2 / 4e5) / h = 0.89443 at grid
    400.  That cfl passes the check.  Inside the bound the field grows at
    most like exp(t sqrt(-min q)), the PDE's own rate: at q = -30 +
    5 cos(3x) it stays below exp(sqrt(35)) = 370 at t = 1."""
    c = ControlSignal(bump(0.1, 0.1, 1.0, 6), Const(0.0))
    q = potential(build_grid(1.0, 400), Const(-4e5))
    with pytest.raises(ConfigurationError, match="largest stable cfl is 0.8944"):
        fdtd_oracle(c, q, horizon=1.0)
    assert control._leapfrog_steps(q, 1.0, 0.8944)[0] == 448
    q = potential(build_grid(1.0, 2000), parse_expression("-30 + 5*cos(3)"))
    sup = np.max(np.abs(fdtd_oracle(c, q, horizon=1.0).values))
    assert np.isfinite(sup) and sup <= np.exp(np.sqrt(35.0))


def test_default_cfl_cuts_the_leapfrog_error():
    """On check_fdtd_cross's problem at grid 600, the leapfrog at the
    default cfl is at most 0.4x as far from the spectral wave as at 0.5."""
    q = potential(build_grid(1.0, 600), parse_expression("2 + cos(3)"))
    es = dirichlet_eigensystem(q, 100)
    c = ControlSignal(bump(0.12, 0.20, 1.0, smoothness=6), Const(0.0))
    u = smooth_wave(control_to_kernel(c, kernel_basis(q)), 1.0, es)

    def dist(oracle):
        return np.sqrt(quad(GridFunction(q.grid, np.abs(u.values - oracle.values) ** 2)).real)

    assert dist(fdtd_oracle(c, q, horizon=1.0)) <= 0.4 * dist(fdtd_oracle(c, q, 1.0, cfl=0.5))


def test_one_leapfrog_cfl_everywhere(coarse_ws, monkeypatch):
    """The simulate config, fdtd_oracle and the verify check all step at
    control.LEAPFROG_CFL."""
    assert control.LEAPFROG_CFL == 1.0
    assert RunConfig().cfl == control.LEAPFROG_CFL
    default = inspect.signature(fdtd_oracle).parameters["cfl"].default
    assert default == control.LEAPFROG_CFL
    seen = []

    def spy(*args, **kwargs):
        bound = inspect.signature(fdtd_oracle).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["cfl"])
        return fdtd_oracle(*args, **kwargs)

    monkeypatch.setattr(verify, "fdtd_oracle", spy)
    verify.check_fdtd_cross(coarse_ws)
    assert seen == [control.LEAPFROG_CFL]


def test_support_report_cone(es_zero, kb_zero):
    c = ControlSignal(bump(0.05, 0.08, 1.0, 6), bump(0.045, 0.07, 0.8, 6))
    kc = control_to_kernel(c, kb_zero)
    t = 0.2
    rep = support_report(smooth_wave(kc, t, es_zero), t)
    assert rep.ratio <= 1e-6
    assert rep.passed


def test_reachable_span_estimate(es_zero, kb_zero):
    """The singular values at the 24 probe points, largest first."""
    sv = reachable_span_estimate(0.6, es_zero, kb_zero, samples=32, seed=0)
    assert sv.shape == (24,)
    assert np.all(np.diff(sv) <= 0.0)
    assert sv[-1] / sv[0] >= 1e-6
    sv2 = reachable_span_estimate(0.6, es_zero, kb_zero, samples=32, seed=0)
    assert np.array_equal(sv, sv2)     # deterministic for a fixed seed


def scalar_span_draws(t, samples, seed):
    """The span bumps drawn one scalar `uniform` at a time: centre, width
    and amplitude, (samples, 2) each, as _span_draws must give them."""
    rng = np.random.default_rng(seed)
    out = np.empty((3, samples, 2))
    for i in range(samples):
        for e in range(2):
            wsup = float(rng.uniform(0.1, 0.4)) * t
            lo = 0.02 * t + wsup / 2.0
            hi = 0.98 * t - wsup / 2.0
            center = float(rng.uniform(lo, hi))
            amp = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            out[:, i, e] = center, wsup, amp
    return out


def test_span_draws_match_scalar_draws_bit_for_bit():
    for seed in range(50):
        for t in (0.1, 0.35, 0.6, 1.0):
            want = scalar_span_draws(t, 96, seed)
            got = np.stack(control._span_draws(t, 96, seed))
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (seed, t)


def test_span_moments_stay_within_the_cell_bound(acceptance_ws, monkeypatch):
    """The 96-control reachable span of the verify suite takes its sine
    moments in calls of at most _MOMENT_CELLS forms x modes, and its
    probe rows equal those of one unchunked call bit for bit."""
    ws = acceptance_ws
    es, kb, g, t = ws.eigensystem("zero"), ws.kernel("zero"), ws.grid, 0.6 * ws.grid.l
    cells = []

    def recorded(forms, mu, *args):
        cells.append(len(forms) * len(mu))
        return sine_moments(forms, mu, *args)

    sine_moments = control.sine_moments
    monkeypatch.setattr(control, "sine_moments", recorded)
    verify.check_reachable_span(ws)
    assert len(cells) > 1 and max(cells) <= control._MOMENT_CELLS
    controls = control._span_controls(t, kb, 96, ws.seed)
    xq = g.l * np.arange(1, control._COARSE_M + 1) / (control._COARSE_M + 1.0)
    probe = control._probe_matrix(g, xq)
    chunked = _batched_smooth_wave(controls, (t,), es, probe=probe)
    monkeypatch.setattr(control, "_MOMENT_CELLS", 1 << 40)
    cells.clear()
    whole = _batched_smooth_wave(controls, (t,), es, probe=probe)
    assert len(cells) == 1
    assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("samples", [32, 96])
def test_probe_space_span_matches_full_fields(es_zero, kb_zero, samples):
    """Synthesising at the probe points gives the singular values of the
    full snapshot fields interpolated there, u W^T."""
    g, t = es_zero.grid, 0.6
    controls = control._span_controls(t, kb_zero, samples, seed=0)
    fields = _batched_smooth_wave(controls, (t,), es_zero)
    assert fields.shape == (samples, g.size)
    xq = g.l * np.arange(1, control._COARSE_M + 1) / (control._COARSE_M + 1.0)
    want = np.linalg.svd(fields @ control._probe_matrix(g, xq).T, compute_uv=False)
    got = reachable_span_estimate(t, es_zero, kb_zero, samples=samples, seed=0)
    assert got.shape == want.shape == (control._COARSE_M,)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
