"""Gauge fields, hats, Gram identities, the model inner product and the
boundary form limit."""

import numpy as np
import pytest

from slwave import mat2
from slwave.analytic import Const
from slwave.errors import AdmissibilityError, ConfigurationError
from slwave.grid import GridFunction, build_grid, inner
from slwave.model import (DET_FLOOR, GUARD_CELLS, _pair, _trace_pair, default_gauge,
                          hat_value, model_inner)
from slwave.sturm import kernel_basis, potential
from slwave.verify import boundary_form, form_limit_check

RHO0_Q1 = 2.0 * np.sinh(1.0) ** 2     # = 2.762195691083631


def sine(grid):
    return GridFunction(grid, np.sin(np.pi * grid.x).astype(complex))


def test_gauge_needs_divisible_grid():
    kb = kernel_basis(potential(build_grid(1.0, 402), Const(0.0)))
    with pytest.raises(ConfigurationError):
        default_gauge(kb)


def test_gauge_rejects_degenerate_frame(kb_zero):
    with pytest.raises(AdmissibilityError):
        default_gauge(kb_zero, e1=(1.0, 0.0), e2=(2.0, 0.0))   # parallel


def test_rho_closed_form_q1():
    g = build_grid(1.0, 2000)
    kb = kernel_basis(potential(g, Const(1.0)))
    gd = default_gauge(kb)
    assert abs(float(gd.rho[0]) - RHO0_Q1) <= 1e-8
    # rho(x) = sinh^2 x + sinh^2(1-x), doubled by the reflected sum
    x = gd.half_x
    want = 2 * (np.sinh(x) ** 2 + np.sinh(1 - x) ** 2)
    assert np.max(np.abs(gd.rho.astype(float) - want)) <= 1e-8


def test_rho_default_gauge_q0(gauge_zero):
    x = gauge_zero.half_x
    want = 2 * x ** 2 + 2 * (1 - x) ** 2
    assert np.max(np.abs(gauge_zero.rho.astype(float) - want)) <= 1e-12
    assert float(gauge_zero.rho[0]) == pytest.approx(2.0, abs=1e-12)


def test_gram_identity_assembly(gauge_zero):
    gd = gauge_zero
    lhs = gd.G
    rhs = gd.rho[:, None, None] * (gd.T @ mat2.herm2(gd.T))
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


def test_gram_inverse_identity(gauge_zero):
    gd = gauge_zero
    ok = np.abs(gd.detT) > DET_FLOOR
    Ginv = mat2.inv2(gd.G[ok])
    out = mat2.herm2(gd.T[ok]) @ Ginv @ gd.T[ok]
    eye = np.broadcast_to(np.eye(2), out.shape)
    resid = np.abs(out - eye / gd.rho[ok, None, None])
    assert float(np.max(resid)) <= 1e-10


def test_hat_example_frame(example_gauge):
    """e1 = 1, e2 = x, e = 1: hat of sin(pi x) is (sin pi x, sin(pi x)/2)."""
    gd = example_gauge
    u = sine(gd.grid)
    uh = hat_value(u, gd)
    x = gd.half_x
    s = np.sin(np.pi * x)
    assert np.max(np.abs(uh.values[:, 0].astype(complex) - s)) <= 1e-13
    assert np.max(np.abs(uh.values[:, 1].astype(complex) - 0.5 * s)) <= 1e-13


def test_hat_equivalence_class(gauge_zero):
    """Functions agreeing at (x, l-x) produce identical hats there."""
    g = gauge_zero.grid
    u = GridFunction(g, (g.x ** 2).astype(complex))
    v = GridFunction(g, (g.x ** 2 + np.sin(4 * np.pi * g.x)).astype(complex))
    uh = hat_value(u, gauge_zero)
    vh = hat_value(v, gauge_zero)
    # sin(4 pi x) vanishes at x=0.25 and 0.75: same equivalence class there
    j = gauge_zero.half // 2
    assert np.max(np.abs(uh.values[j] - vh.values[j])) <= 1e-14


def test_boundary_form_against_hat_gram(gauge_zero):
    """boundary_form(u,v,x) = (G^-1 u^, v^) at admissible nodes."""
    gd = gauge_zero
    g = gd.grid
    u = GridFunction(g, np.cos(2 * g.x).astype(complex))
    v = GridFunction(g, (g.x * (1 - g.x) + 0.5j).astype(complex))
    uh = hat_value(u, gd)
    vh = hat_value(v, gd)
    with np.errstate(divide="ignore", invalid="ignore"):
        Ginv = mat2.inv2(gd.G)
    vals = np.einsum("ji,ji->j", mat2.apply2(Ginv, uh.values), np.conj(vh.values))
    idx = np.flatnonzero(gd.admissible)[::40]
    for j in idx:
        bf = boundary_form(u, v, float(gd.half_x[j]), gd)
        assert abs(bf - complex(vals[j])) <= 1e-10


def test_model_inner_sine(gauge_zero):
    u = sine(gauge_zero.grid)
    uh = hat_value(u, gauge_zero)
    val = model_inner(uh, uh, gauge_zero)
    assert abs(val - 0.5) <= 1e-6


def test_model_inner_gauge_element(gauge_zero):
    """hat of e itself: model inner equals ||e||^2 over (0, l)."""
    gd = gauge_zero
    e_gf = gd.e.as_grid_function(gd.grid)
    eh = hat_value(e_gf, gd)
    val = model_inner(eh, eh, gd)
    assert abs(val - inner(e_gf, e_gf)) <= 1e-6


def test_model_inner_refuses_singular_gram(gauge_zero):
    """A Gram matrix that is singular on one admissible node makes the
    model inner product raise, not integrate through the node."""
    import dataclasses
    j = int(np.flatnonzero(gauge_zero.admissible)[len(gauge_zero.half_x) // 4])
    G = gauge_zero.G.copy()
    G[j, 1] = G[j, 0]
    gd = dataclasses.replace(gauge_zero, G=G)
    assert gd.admissible[j]
    uh = hat_value(sine(gd.grid), gd)
    with pytest.raises(AdmissibilityError, match="Gram matrix singular"):
        model_inner(uh, uh, gd)


def parseval_residual(u, v, gd):
    return abs(inner(u, v) - model_inner(hat_value(u, gd), hat_value(v, gd), gd))


def test_parseval_battery(gauge_zero, es_zero):
    g = gauge_zero.grid
    pool = [
        GridFunction(g, es_zero.phi[0].astype(complex)),
        GridFunction(g, es_zero.phi[1].astype(complex)),
        GridFunction(g, np.ones(g.size, dtype=complex)),
        GridFunction(g, (g.x * (1 - g.x)).astype(complex)),
    ]
    worst = 0.0
    for i in range(len(pool)):
        for j in range(i, len(pool)):
            worst = max(worst, parseval_residual(pool[i], pool[j], gauge_zero))
    assert worst <= 1e-6
    # orthogonal pair: both sides vanish
    assert parseval_residual(pool[0], pool[1], gauge_zero) <= 1e-6
    # constants: both sides equal 1
    one_h = hat_value(pool[2], gauge_zero)
    assert abs(model_inner(one_h, one_h, gauge_zero) - 1.0) <= 1e-6


def test_form_limit_quarter_point(gauge_zero):
    u = GridFunction(gauge_zero.grid, np.ones(gauge_zero.grid.size, dtype=complex))
    rep = form_limit_check(u, 0.25, gauge_zero)
    assert rep.target == pytest.approx(1.6, abs=1e-9)   # 2 / rho(1/4)
    assert rep.monotone
    assert rep.deviation <= 1e-4


def test_form_limit_radius_validation(gauge_zero):
    u = sine(gauge_zero.grid)
    with pytest.raises(ConfigurationError):
        form_limit_check(u, 0.05, gauge_zero)    # radius would leave (0, l)


def test_degenerate_midpoint_rank_one(gauge_zero):
    """det T vanishes at l/2: the two model columns align there."""
    gd = gauge_zero
    assert abs(complex(gd.detT[-1])) <= 1e-10
    band = np.flatnonzero(gd.band)
    assert band.size == GUARD_CELLS
    assert not gd.admissible[-1]


def route_battery(grid, gd):
    return [sine(grid), gd.e.as_grid_function(grid),
            GridFunction(grid, np.exp(1j * grid.x) + grid.x ** 2)]


def extended_route_residual(u, gd):
    """Largest distance of hat_value's hat from the boundary-form route
    (<u,e1>_x, <u,e2>_x), evaluated in extended precision throughout."""
    m = gd.half
    w = _trace_pair(np.asarray(u.values, dtype=np.clongdouble), m)
    hat = hat_value(u, gd).values
    alt = [(w[:, 0] * np.conj(el) + w[:, 1] * np.conj(er)) / gd.rho
           for el, er in (_pair(gd.e1.u, m), _pair(gd.e2.u, m))]
    return float(max(np.max(np.abs(hat[:, k] - alt[k])) for k in range(2)))


@pytest.mark.parametrize("key", ["zero", "one", "cosine"])
def test_hat_dual_route_consistency(coarse_ws, key):
    """The matrix route T (u(x), u(l-x)) of hat_value against the
    boundary-form route (<u, e1>_x, <u, e2>_x) on the half grid: the rows
    of T are the boundary-form functionals divided by rho, so the two
    agree to extended-precision roundoff for every function of the
    battery."""
    gd = coarse_ws.gauge(key)
    for u in route_battery(coarse_ws.grid, gd):
        assert extended_route_residual(u, gd) <= 1e-13
