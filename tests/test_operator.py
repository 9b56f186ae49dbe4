"""Model coefficients, intertwining, graph sampling and potential recovery."""

import dataclasses

import numpy as np
import pytest

from slwave import operator
from slwave.analytic import Const, bump, parse_expression
from slwave.control import ControlSignal
from slwave.errors import ContractError
from slwave.grid import GridFunction, build_grid
from slwave.model import (GUARD_CELLS, SmoothFunction, default_gauge, hat_value,
                          smooth_from_closed_form)
from slwave.operator import (RecoveryResult, apply_model, assemble_coefficients,
                             intertwine_residual, recover_potential,
                             unordered_branch_error)
from slwave.sturm import kernel_basis, potential
from slwave.verify import graph_sample


@pytest.fixture(scope="module")
def example_mc(example_gauge):
    return assemble_coefficients(example_gauge)


@pytest.fixture(scope="module")
def cosine_setup(coarse_ws):
    gd = coarse_ws.gauge("cosine")
    return gd, coarse_ws.coefficients("cosine")


def test_route_residual_small(example_mc):
    # dual assembly P = 2 T' T^-1 vs -2 T (T^-1)'
    assert example_mc.route_residual <= 1e-12


def test_frozen_coefficients_quarter_point(example_mc):
    """q=0, frame e1=1, e2=x, e=1: closed forms at x=1/4."""
    j = round(0.25 / example_mc.h)
    assert example_mc.admissible[j]
    P, Q = example_mc.Phat[j].astype(complex), example_mc.Qhat[j].astype(complex)
    assert np.max(np.abs(P - np.array([[0.0, 0.0], [4.0, -8.0]]))) <= 1e-10
    assert np.max(np.abs(Q - np.array([[0.0, 0.0], [16.0, -32.0]]))) <= 1e-9


def test_guard_band_is_not_admissible(example_mc):
    """The last GUARD_CELLS nodes before l/2 carry no coefficients."""
    band = slice(-GUARD_CELLS, None)
    assert not example_mc.admissible[band].any()
    assert not example_mc.Phat[band].any() and not example_mc.Qhat[band].any()
    assert example_mc.admissible[-GUARD_CELLS - 1]


def test_S_vanishes_for_zero_potential(example_mc):
    rr = recover_potential(example_mc)
    assert np.max(np.abs(rr.q1)) <= 1e-8
    assert np.max(np.abs(rr.q2)) <= 1e-8
    assert rr.max_imag <= 1e-8


def test_apply_model_eigen_identity(example_gauge, example_mc):
    """-u'' = pi^2 u for u = sin(pi x): the model must reproduce it."""
    g = example_gauge.grid
    u = SmoothFunction(g, np.sin(np.pi * g.x).astype(complex),
                       (np.pi * np.cos(np.pi * g.x)).astype(complex),
                       (-np.pi ** 2 * np.sin(np.pi * g.x)).astype(complex))
    uh = hat_value(u, example_gauge)
    out = apply_model(uh, example_mc)
    want = np.pi ** 2 * uh.values.astype(complex)
    ok = example_mc.admissible
    assert np.max(np.abs(out[ok].astype(complex) - want[ok])) <= 1e-6


def test_apply_model_kernel_annihilated(example_gauge, example_mc):
    e1 = example_gauge.e1.as_smooth(example_gauge.grid)
    uh = hat_value(e1, example_gauge)
    out = apply_model(uh, example_mc)
    assert np.max(np.abs(out[example_mc.admissible].astype(complex))) <= 1e-8


def test_apply_model_needs_derivatives(example_gauge, example_mc):
    u = GridFunction(example_gauge.grid,
                     np.sin(np.pi * example_gauge.grid.x).astype(complex))
    uh = hat_value(u, example_gauge)   # no derivative data
    with pytest.raises(ContractError):
        apply_model(uh, example_mc)


def test_intertwining_battery(cosine_setup):
    gd, mc = cosine_setup
    g = gd.grid
    l = g.l
    battery = [
        parse_expression("bump(0.37, 0.3, 1.0, 6)"),
        parse_expression("sin(6.283185307179586)"),
        Const(1.0) + 0.5 * parse_expression("poly(0, 1)"),
    ]
    for f in battery:
        u = smooth_from_closed_form(g, f)
        assert intertwine_residual(u, gd, mc) <= 1e-6


def test_intertwining_quartic(cosine_setup):
    gd, mc = cosine_setup
    u = smooth_from_closed_form(gd.grid, parse_expression("poly(0, 0, 1, -2, 1)"))
    assert intertwine_residual(u, gd, mc) <= 1e-6   # x^2 (1-x)^2


def test_recovery_cosine_branches(cosine_setup):
    gd, mc = cosine_setup
    rr = recover_potential(mc)
    qx = 2 + np.cos(3 * rr.x)
    qr = 2 + np.cos(3 * (1 - rr.x))
    direct = np.maximum(np.abs(rr.q1 - qx), np.abs(rr.q2 - qr))
    flipped = np.maximum(np.abs(rr.q1 - qr), np.abs(rr.q2 - qx))
    assert float(np.max(np.minimum(direct, flipped))) <= 1e-6
    # spot values at x = 0.2
    j = np.argmin(np.abs(rr.x - 0.2))
    pair = sorted([rr.q1[j], rr.q2[j]])
    want = sorted([2 + np.cos(0.6), 2 + np.cos(2.4)])
    assert abs(pair[0] - want[0]) <= 1e-6 and abs(pair[1] - want[1]) <= 1e-6


def test_recovery_similarity_invariants(cosine_setup):
    """tr S = q(x) + q(l-x), det S = q(x) q(l-x)."""
    gd, mc = cosine_setup
    rr = recover_potential(mc)
    qx = 2 + np.cos(3 * rr.x)
    qr = 2 + np.cos(3 * (1 - rr.x))
    assert np.max(np.abs((rr.q1 + rr.q2) - (qx + qr))) <= 1e-8
    assert np.max(np.abs((rr.q1 * rr.q2) - (qx * qr))) <= 1e-8


def _pair_mismatch(r1, r2):
    """Sup distance of the unordered branch pairs on shared nodes."""
    i1 = np.isin(r1.x, r2.x)
    i2 = np.isin(r2.x, r1.x)
    a = np.stack([r1.q1[i1], r1.q2[i1]])
    b = np.stack([r2.q1[i2], r2.q2[i2]])
    direct = np.maximum(np.abs(a[0] - b[0]), np.abs(a[1] - b[1]))
    flipped = np.maximum(np.abs(a[0] - b[1]), np.abs(a[1] - b[0]))
    return float(np.max(np.minimum(direct, flipped)))


def test_recovery_gauge_covariance(coarse_ws, cosine_setup):
    """A different admissible frame leaves the branch pair invariant."""
    gd, mc = cosine_setup
    kb = coarse_ws.kernel("cosine")
    gd2 = default_gauge(kb, e=(1.0, 0.5j), e1=(1.0, 0.25), e2=(-0.5, 1.0))
    mc2 = assemble_coefficients(gd2)
    assert _pair_mismatch(recover_potential(mc), recover_potential(mc2)) <= 1e-8


def test_recovery_reflection_symmetry(coarse_ws):
    """Reflecting the potential swaps branches; the unordered pair stays."""
    q = coarse_ws.potential("cosine")
    q_refl = potential(q.grid, q.values[::-1].copy())
    mc = coarse_ws.coefficients("cosine")
    mc_r = assemble_coefficients(default_gauge(kernel_basis(q_refl)))
    assert _pair_mismatch(recover_potential(mc), recover_potential(mc_r)) <= 1e-8


def test_recovery_constant_collision():
    g = build_grid(1.0, 400)
    kb = kernel_basis(potential(g, Const(2.5)))
    mc = assemble_coefficients(default_gauge(kb))
    rr = recover_potential(mc)
    assert np.all(rr.collision)
    assert np.max(np.abs(rr.q1 - 2.5)) <= 1e-8
    assert np.max(np.abs(rr.q2 - 2.5)) <= 1e-8


def test_recovery_observer_path(cosine_setup):
    gd, mc = cosine_setup
    # restrict to x >= 3h as the acceptance criterion does
    lo = 3 * mc.h
    keep = mc.half_x >= lo - 1e-12
    mc_obs = dataclasses.replace(mc, admissible=mc.admissible & keep)
    rr = recover_potential(mc_obs, sampled_derivatives=True)
    qx = 2 + np.cos(3 * rr.x)
    qr = 2 + np.cos(3 * (1 - rr.x))
    direct = np.maximum(np.abs(rr.q1 - qx), np.abs(rr.q2 - qr))
    flipped = np.maximum(np.abs(rr.q1 - qr), np.abs(rr.q2 - qx))
    assert float(np.max(np.minimum(direct, flipped))) <= 1e-3


def test_graph_sample_linearity(coarse_ws):
    es = coarse_ws.eigensystem("cosine")
    kb = coarse_ws.kernel("cosine")
    gd = coarse_ws.gauge("cosine")
    c1 = ControlSignal(bump(0.12, 0.18, 1.0, 6), Const(0.0))
    c2 = ControlSignal(bump(0.16, 0.2, -0.4, 6), bump(0.1, 0.14, 0.7, 6))
    c12 = ControlSignal(c1.f0 + c2.f0, c1.fl + c2.fl)
    t = 0.3
    a1, b1 = graph_sample(c1, t, es, kb, gd)
    a2, b2 = graph_sample(c2, t, es, kb, gd)
    a12, b12 = graph_sample(c12, t, es, kb, gd)
    assert np.max(np.abs(a12.values - a1.values - a2.values)) <= 1e-8
    assert np.max(np.abs(b12.values - b1.values - b2.values)) <= 1e-8


def test_graph_consistency_full_scale(acceptance_ws):
    """The dynamics route matches the model operator at the pinned size."""
    es = acceptance_ws.eigensystem("cosine")
    kb = acceptance_ws.kernel("cosine")
    gd = acceptance_ws.gauge("cosine")
    mc = acceptance_ws.coefficients("cosine")
    c = ControlSignal(bump(0.15, 0.22, 1.0, 6), Const(0.0))
    h1, h2 = graph_sample(c, 0.35, es, kb, gd)
    lhs = apply_model(h1, mc)
    assert np.max(np.abs(lhs - h2.values)[mc.admissible]) <= 2e-3


def test_unordered_branch_error_forgives_reflection_only():
    qf = parse_expression("2 + cos(3)")
    x = np.linspace(0.0, 0.45, 10)
    qx, qr = qf.deriv(x, 0), qf.deriv(1.0 - x, 0)
    swapped = np.where(x < 0.2, qx, qr), np.where(x < 0.2, qr, qx)
    flags = np.zeros(x.size, dtype=bool)
    rr = RecoveryResult(x, *swapped, flags, 0.0, "")
    assert unordered_branch_error(rr, qf, 1.0) == 0.0
    bent = RecoveryResult(x, swapped[0] + 1e-3 * x, swapped[1], flags, 0.0, "")
    assert unordered_branch_error(bent, qf, 1.0) == pytest.approx(0.45e-3, rel=1e-9)


def loop_branch_swaps(r1, r2):
    """Reference continuation, one node at a time: the labels (True where
    q1 = r2) and the relabelled pair."""
    a, b = r1.copy(), r2.copy()
    swapped = np.zeros(a.size, dtype=bool)
    if a[0] < b[0]:
        a[0], b[0] = b[0], a[0]
        swapped[0] = True
    for k in range(1, a.size):
        keep = abs(a[k] - a[k - 1]) + abs(b[k] - b[k - 1])
        swap = abs(b[k] - a[k - 1]) + abs(a[k] - b[k - 1])
        if swap < keep:
            a[k], b[k] = b[k], a[k]
            swapped[k] = True
    return swapped, a, b


def branch_pairs(kind, lead_swap, rng):
    """Random or integer-valued (tie-heavy) branch pairs whose first node
    does or does not need the leading swap."""
    n = int(rng.integers(2, 80))
    if kind == "random":
        r1, r2 = rng.normal(size=(2, n))
    else:
        r1, r2 = rng.integers(-2, 3, size=(2, n)).astype(float)
    r1[0], r2[0] = (0.0, 1.0) if lead_swap else (1.0, 0.0)
    return r1, r2


@pytest.mark.parametrize("kind", ["random", "integer"])
@pytest.mark.parametrize("lead_swap", [False, True])
def test_scanned_branch_labels_match_the_loop(kind, lead_swap):
    """The XOR scan labels every node as the node-by-node continuation,
    bit for bit, also where keep and swap tie.  Both costs are the same sum
    in exact arithmetic whenever both new roots lie beyond both old ones,
    so random pairs tie often too, or miss a tie by a rounding."""
    rng = np.random.default_rng(3 + 2 * lead_swap + (kind == "integer"))
    ties = 0
    for _ in range(250):
        r1, r2 = branch_pairs(kind, lead_swap, rng)
        want, a, b = loop_branch_swaps(r1, r2)
        got = operator._branch_swaps(r1, r2)
        assert np.array_equal(got, want)
        assert got[0] == lead_swap
        assert np.array_equal(np.where(got, r2, r1).view(np.uint64), a.view(np.uint64))
        assert np.array_equal(np.where(got, r1, r2).view(np.uint64), b.view(np.uint64))
        keep = np.abs(np.diff(r1)) + np.abs(np.diff(r2))
        swap = np.abs(r2[1:] - r1[:-1]) + np.abs(r1[1:] - r2[:-1])
        ties += int(np.count_nonzero(keep == swap))
    assert ties > 1000     # exact ties are common: both branches moving one way


@pytest.mark.parametrize("observer", [False, True])
def test_recovery_matches_the_loop_continuation(cosine_setup, example_mc, observer,
                                                monkeypatch):
    """recover_potential's q1, q2 and collision flags are those of the
    node-by-node continuation, bit for bit, on coefficients with distinct
    branches, with a zero potential and with a collision everywhere."""
    g = build_grid(1.0, 400)
    mc_const = assemble_coefficients(default_gauge(kernel_basis(potential(g, Const(2.5)))))
    cases = [cosine_setup[1], example_mc, mc_const]
    got = [recover_potential(mc, sampled_derivatives=observer) for mc in cases]
    monkeypatch.setattr(operator, "_branch_swaps",
                        lambda r1, r2: loop_branch_swaps(r1, r2)[0])
    for mc, rr in zip(cases, got):
        want = recover_potential(mc, sampled_derivatives=observer)
        for name in ("x", "q1", "q2", "collision"):
            assert np.array_equal(getattr(rr, name), getattr(want, name)), name
        assert np.array_equal(rr.q1.view(np.uint64), want.q1.view(np.uint64))
        assert np.array_equal(rr.q2.view(np.uint64), want.q2.view(np.uint64))
