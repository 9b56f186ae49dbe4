"""Closed-form vocabulary: evaluation, derivatives, parser errors, and
exact sine moments against QUADPACK."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy.integrate import quad as scipy_quad

from slwave import analytic
from slwave.analytic import (ClosedForm, Const, PiecewisePoly, Poly, Trig,
                             _bump_base, bump, parse_expression, ramp,
                             sine_moments, values)
from slwave.errors import ConfigurationError, ContractError

X = np.linspace(0.0, 1.0, 257)


def numeric_deriv(f, x, k=1, eps=1e-5):
    if k == 1:
        return (f.deriv(x + eps, 0) - f.deriv(x - eps, 0)) / (2 * eps)
    return (f.deriv(x + eps, 0) - 2 * f.deriv(x, 0) + f.deriv(x - eps, 0)) / eps ** 2


def test_const_and_poly():
    c = Const(3.5)
    assert np.all(c.deriv(X, 0) == 3.5)
    assert np.all(c.deriv(X, 1) == 0.0)
    p = Poly((1.0, 0.0, 2.0))          # 1 + 2x^2, ascending
    assert np.allclose(p.deriv(X, 0), 1 + 2 * X ** 2)
    assert np.allclose(p.deriv(X, 1), 4 * X)
    assert np.allclose(p.deriv(X, 2), 4.0)


def test_trig_derivative_chain():
    t = Trig("cos", 3.0)
    assert np.allclose(t.deriv(X, 0), np.cos(3 * X))
    assert np.allclose(t.deriv(X, 1), -3 * np.sin(3 * X))
    assert np.allclose(t.deriv(X, 2), -9 * np.cos(3 * X))


def test_bump_support_and_smoothness():
    b = bump(0.5, 0.2, 1.0, smoothness=6)
    x_out = np.array([0.0, 0.39, 0.61, 1.0])
    for k in range(3):
        assert np.all(b.deriv(x_out, k) == 0.0)
    assert b.deriv(np.array([0.5]), 0)[0] == pytest.approx(1.0)
    # C^5: fifth derivative still tends to zero at the support edge
    inside = b.deriv(np.array([0.4 + 1e-4]), 0)[0]
    assert inside < 1e-15 or inside >= 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_bump_derivatives_match_differencing(k):
    b = bump(0.45, 0.3, 0.8, smoothness=6)
    xs = np.linspace(0.35, 0.55, 41)
    exact = b.deriv(xs, k)
    approx = numeric_deriv(b, xs, k)
    scale = max(np.max(np.abs(exact)), 1.0)
    assert np.max(np.abs(exact - approx)) <= 1e-4 * scale


def test_ramp_is_monotone_plateau():
    r = ramp(0.2, 0.4)
    assert r.deriv(np.array([0.1]), 0)[0] == 0.0
    assert r.deriv(np.array([0.9]), 0)[0] == 1.0
    xs = np.linspace(0, 1, 101)
    assert np.all(np.diff(r.deriv(xs, 0)) >= -1e-15)


def test_parse_expression_vocabulary():
    for text, x, want in [
        ("const(2.5)", 0.3, 2.5),
        ("2 + cos(3)", 0.5, 2 + np.cos(1.5)),
        ("sin(2)", 0.25, np.sin(0.5)),
        ("poly(1, -2)", 0.5, 0.0),
        ("bump(0.5, 0.2, 1.0, 6)", 0.5, 1.0),
    ]:
        f = parse_expression(text)
        assert f.deriv(np.array([x]), 0)[0] == pytest.approx(want, abs=1e-12)


def test_parse_expression_rejects_unknown():
    with pytest.raises(ConfigurationError):
        parse_expression("tanh(3)")
    with pytest.raises(ConfigurationError):
        parse_expression("bump(0.5)")
    with pytest.raises(ConfigurationError):
        parse_expression("")


def test_bump_two_argument_form():
    f = parse_expression("bump(0.5, 0.2)")
    assert f.deriv(np.array([0.5]), 0)[0] == pytest.approx(1.0)


def test_bump_coefficients_from_shared_base():
    """Bumps share one read-only (u - u^2)^p per smoothness; the
    coefficients are the direct product amplitude 4^p (u - u^2)^p."""
    for p in (2, 3, 6):
        for amp in (1.0, -0.7, 1.3):
            direct = tuple(amp * 4.0 ** p * P.polypow([0.0, 1.0, -1.0], p))
            (piece,) = bump(0.3, 0.2, amp, p).terms
            assert piece.coeffs == direct
    with pytest.raises(ValueError):
        _bump_base(6)[0] = 1.0


# --------------------------------------------------------------------- jets

JET_FORMS = [
    ("const", Const(2.5)),
    ("const zero", Const(0.0)),
    ("poly", Poly((1.0, -2.0, 3.0, 0.5, 4.0, 7.0))),
    ("poly short", Poly((0.25, -3.0))),
    ("cos", Trig("cos", 3.0, 0.7)),
    ("sin", Trig("sin", 2.5, -1.3)),
    ("piecewise t0 < 0", PiecewisePoly(-0.2, 0.4, (0.1, 1.0, -2.0, 3.0, 0.5), left=0.3)),
    ("piecewise t0 == 0", PiecewisePoly(0.0, 0.5, (0.1, 1.0, -2.0, 3.0, 0.5), left=0.3)),
    ("piecewise t0 > 0, left", PiecewisePoly(0.1, 0.4, (0.1, 1.0, -2.0), left=-0.75, right=2.0)),
    ("bump", bump(0.3, 0.2, 1.0, 6)),
    ("straddling bump", bump(0.05, 0.2, 1.0, 6)),
    ("ramp", ramp(0.1, 0.4)),
    ("straddling ramp", ramp(-0.1, 0.2)),
    ("scaled", -2.5 * Trig("sin", 4.0)),
    ("sum", Trig("cos", 2.0) + PiecewisePoly(-0.1, 0.3, (1.0, 2.0, 3.0)) - 1.0),
    ("derivative", bump(0.05, 0.2, 1.0, 6).differentiate(2)),
    ("nested", (3.0 * (Trig("cos", 3.0) + ramp(-0.2, 0.6))).differentiate(1)
     + -(bump(0.1, 0.3, 0.8, 6).differentiate(2)) + 0.5 * Poly((0.0, 1.0, 2.0, 3.0))),
    ("nested, derivative of derivative",
     (2.0 * PiecewisePoly(0.2, 0.5, (1.0, 1.0), left=4.0)).differentiate(1).differentiate(1)),
    ("parsed", parse_expression("0.5 + 2*sin(40) - cos(3) + bump(0.01, 0.1, 1, 6)")),
]


@pytest.mark.parametrize("name, f", JET_FORMS)
def test_jet_equals_deriv_at_zero(name, f):
    """The jet is exactly deriv(0, k), k = 0..4, on every form type."""
    want = np.array([f.deriv(np.zeros(1), k)[0] for k in range(5)])
    assert np.array_equal(f.jet(4), want), name
    assert np.array_equal(f.jet(2), want[:3]), name


# ------------------------------------------------------------ normal form

NORMAL_FORMS = [
    parse_expression("2.5 + bump(0.3, 0.2, 1, 6) - 0.7*cos(3) + sin(2) + poly(1, -2, 0.5)"),
    parse_expression("0.5*ramp(0.05, 0.2) - 0.3*bump(0.1, 0.1, 1, 6) + poly(0, 0, 0, 0.1)"),
    -1.7 * parse_expression("2*bump(0.12, 0.1, -0.4, 6) - 0.25*ramp(0.1, 0.3)"),
    0.3 * (2.0 * (Trig("cos", 3.0, 0.7) + ramp(0.2, 0.6))) + Const(-1.25),
    bump(0.45, 0.3, 0.8, 10).differentiate(1).differentiate(1),
    (Trig("sin", 5.0) + 3.0 * ramp(0.3, 0.5)).differentiate(1).differentiate(1),
    PiecewisePoly(0.2, 0.5, (1.0, 1.0), left=4.0, right=-2.0) + Poly((0.25, -3.0)),
    Const(3.5),
    ClosedForm(),
]
# the support edges (0.2, 0.4, 0.05, 0.15, 0.3, 0.5, 0.6), plateaus and
# points outside [0, 1]
EDGE_TIMES = np.array([-0.5, 0.0, 0.05, 0.07, 0.1, 0.15, 0.2, 0.25, 0.3, 0.31, 0.4,
                       0.5, 0.6, 0.75, 1.0, 2.0])


@pytest.mark.parametrize("k", range(5))
def test_values_equal_deriv_bit_for_bit(k):
    """One batched evaluation over many forms gives each form's deriv bit
    for bit: pieces of different degrees share padded Horner passes and
    trig terms one cos pass, whatever else is in the batch."""
    t = np.concatenate([EDGE_TIMES, np.linspace(0.0, 1.0, 200)])
    batch = values(NORMAL_FORMS, t, k)
    assert batch.shape == (len(NORMAL_FORMS), t.size)
    for row, f in zip(batch, NORMAL_FORMS):
        assert np.array_equal(row, f.deriv(t, k), equal_nan=True)
        assert np.array_equal(values([f], t.reshape(4, -1), k)[0], row.reshape(4, -1))
    assert np.any(batch != 0.0)


@pytest.mark.parametrize("k", range(3))
def test_form_is_scale_times_terms_in_order(k):
    """f^(k)(t) = scale * (term_1 + term_2 + ...), added left to right, each
    term evaluated on its own; a scalar multiple of a sum of scale 1 (a
    parsed expression, say) is applied after the sum."""
    for f in NORMAL_FORMS[:-1]:
        parts = [ClosedForm([term]).deriv(EDGE_TIMES, k) for term in f.terms]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        assert np.array_equal(f.deriv(EDGE_TIMES, k), f.scale * total)
        if f.scale == 1.0:
            assert np.array_equal((-2.3 * f).deriv(EDGE_TIMES, k), -2.3 * f.deriv(EDGE_TIMES, k))


@pytest.mark.parametrize("k", range(5))
def test_terms_keep_their_operation_order(k):
    """Each term evaluates bit for bit as the artefacts were written: a
    piece as weight * (polyval(clip(u), coeffs^(k)) / width**k), its
    constants outside the support (k = 0) or 0; a trig term as
    weight * ((amp freq**k) cos(freq t + phase + k pi/2))."""
    t = np.concatenate([EDGE_TIMES, np.linspace(0.0, 1.0, 200)])
    for f in (0.7 * bump(0.3, 0.2, -1.3, 6), ramp(0.1, 0.4), -2.0 * Poly((0.5, -1.0, 0.0, 2.0)),
              PiecewisePoly(0.2, 0.5, (1.0, 1.0, -3.0), left=4.0, right=-2.0), Const(-2.5)):
        (p,) = f.terms
        dc = [c * math.perm(j, k) for j, c in enumerate(p.coeffs) if j >= k] or [0.0]
        u = (t - p.origin) / p.width
        inside = P.polyval(np.clip(u, 0.0, 1.0) if p.lo > -np.inf else u, dc) / p.width ** k
        want = np.where(u < 0.0, p.left if k == 0 else 0.0,
                        np.where(u > 1.0, p.right if k == 0 else 0.0, inside)) \
            if p.lo > -np.inf else inside
        assert np.array_equal(f.deriv(t, k), f.scale * (p.weight * want))
    for kind, freq, amp in (("cos", 3.0, 0.7), ("sin", 2.5, -1.3)):
        phase = k * np.pi / 2.0 - (np.pi / 2.0 if kind == "sin" else 0.0)
        want = (amp * freq ** k) * np.cos(freq * t + phase)
        assert np.array_equal((1.7 * Trig(kind, freq, amp)).deriv(t, k), 1.7 * want)


def test_empty_form_is_zero():
    zero = ClosedForm()
    assert np.array_equal(zero.deriv(EDGE_TIMES, 0), np.zeros(EDGE_TIMES.size))
    assert np.array_equal(zero.jet(4), np.zeros(5))
    assert np.array_equal(sine_moments([zero], np.array(MUS), 0.5, 2)[0], np.zeros(len(MUS)))
    assert np.array_equal((zero + bump(0.3, 0.2)).deriv(EDGE_TIMES, 1),
                          bump(0.3, 0.2).deriv(EDGE_TIMES, 1))


# ------------------------------------------------------------ sine moments
# oracle: QUADPACK's QAWO (weight='sin'/'cos') on each smooth piece, with
# sin(mu (t - s)) = sin(mu t) cos(mu s) - cos(mu t) sin(mu s)

MUS = (3.0, 17.5, 88.0, 301.0, 640.0, 950.0)


def qawo_sine_moment(f, mu, t, k, knots=()):
    pts = sorted({0.0, t, *(b for b in knots if 0.0 < b < t)})
    g = lambda s: float(f.deriv(s, k))
    total = 0.0
    for a, b in zip(pts, pts[1:]):
        c = scipy_quad(g, a, b, weight="cos", wvar=mu, limit=200)[0]
        s = scipy_quad(g, a, b, weight="sin", wvar=mu, limit=200)[0]
        total += np.sin(mu * t) * c - np.cos(mu * t) * s
    return total


def abs_integral(f, t, k, knots=()):
    pts = sorted({0.0, t, *(b for b in knots if 0.0 < b < t)})
    return sum(scipy_quad(lambda s: abs(float(f.deriv(s, k))), a, b, limit=200)[0]
               for a, b in zip(pts, pts[1:]))


@pytest.mark.parametrize("name, f, k, t, knots", [
    ("bump before support", bump(0.3, 0.2, 1.0, 6), 2, 0.15, (0.2, 0.4)),
    ("bump inside", bump(0.3, 0.2, 1.0, 6), 2, 0.27, (0.2, 0.4)),
    ("bump after", bump(0.3, 0.2, 1.0, 6), 2, 0.55, (0.2, 0.4)),
    ("bump'' before support", bump(0.3, 0.2, 1.0, 6), 4, 0.15, (0.2, 0.4)),
    ("bump'' inside", bump(0.3, 0.2, 1.0, 6), 4, 0.33, (0.2, 0.4)),
    ("bump'' after", bump(0.3, 0.2, 1.0, 6), 4, 0.55, (0.2, 0.4)),
    ("ramp inside", ramp(0.1, 0.4), 0, 0.25, (0.1, 0.4)),
    ("ramp plateau", ramp(0.1, 0.4), 0, 0.9, (0.1, 0.4)),
    ("poly", Poly((0.5, -1.0, 0.0, 2.0, -0.75)), 2, 1.6, ()),
    ("trig", parse_expression("0.5 + 2*sin(40) - cos(3)"), 1, 0.7, ()),
])
def test_sine_moments_match_qawo(name, f, k, t, knots):
    got = sine_moments([f], np.array(MUS), t, k)[0]
    want = np.array([qawo_sine_moment(f, mu, t, k, knots) for mu in MUS])
    scale = abs_integral(f, t, k, knots)
    if scale == 0.0:
        assert np.all(got == 0.0)
    else:
        assert np.max(np.abs(got - want)) <= 1e-10 * scale, name


def test_sine_moments_cubic_closed_form():
    """(t^3)'' = 6 s: int_0^t sin(mu (t - s)) 6 s ds = 6 (mu t - sin mu t) / mu^2."""
    mu = np.array(MUS)
    for t in (0.01, 0.4, 2.5):
        want = 6.0 * (mu * t - np.sin(mu * t)) / mu ** 2
        got = sine_moments([Poly((0.0, 0.0, 0.0, 1.0))], mu, t, 2)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_sine_moments_trig_resonance():
    """freq = mu: int_0^t sin(mu (t - s)) sin(mu s) ds = (sin mu t - mu t cos mu t) / (2 mu)."""
    for mu in (3.0, 88.0, 950.0):
        t = 0.7
        want = (np.sin(mu * t) - mu * t * np.cos(mu * t)) / (2.0 * mu)
        got = sine_moments([Trig("sin", mu)], np.array([mu]), t, 0)[0][0]
        assert got == pytest.approx(want, abs=1e-13)
        # the derivative form passes k through: (sin)'' = -mu^2 sin
        d2 = sine_moments([Trig("sin", mu).differentiate(2)], np.array([mu]), t, 0)[0][0]
        assert d2 == pytest.approx(-mu ** 2 * want, abs=1e-13 * mu ** 2)


def test_sine_moments_batch_matches_single_forms():
    forms = [bump(0.3, 0.2, 1.0, 6), 2.0 * ramp(0.1, 0.4), Trig("cos", 5.0),
             bump(0.5, 0.4, -0.7, 3) + Poly((0.0, 1.0))]
    mu = np.array(MUS)
    batch = sine_moments(forms, mu, 0.45, 0)
    for row, f in zip(batch, forms):
        single = sine_moments([f], mu, 0.45, 0)[0]
        assert np.max(np.abs(row - single)) <= 1e-14 * max(1.0, np.max(np.abs(single)))


@pytest.mark.parametrize("k", [0, 2])
def test_sine_moments_one_time_per_form_bit_for_bit(k):
    """One time per form gives, bit for bit, the rows of the calls at one
    time; the times fall before, inside and after the bump's support
    (0.2, 0.4) and the ramp's (0.1, 0.4), the last on its right plateau."""
    forms = [bump(0.3, 0.2, 1.0, 6), ramp(0.1, 0.4), Poly((0.5, -1.0, 0.0, 2.0)),
             Const(1.5), Trig("sin", 7.0),
             bump(0.5, 0.4, -0.7, 3) + 2.0 * Trig("cos", 5.0) + Poly((0.0, 1.0))]
    times = [0.0, 0.05, 0.15, 0.3, 0.55, 0.9]
    mu = np.array(MUS)
    got = sine_moments([f for t in times for f in forms], mu,
                       np.repeat(times, len(forms)), k)
    want = np.concatenate([sine_moments(forms, mu, t, k) for t in times])
    assert np.array_equal(got, want)
    assert np.any(got != 0.0)


@pytest.mark.parametrize("k", [0, 2])
def test_sine_moments_of_repeated_pieces(k, monkeypatch):
    """Rows that repeat a (form, time), or a time past the form's support
    (which clips to the same pieces), equal the row-by-row calls bit for
    bit, and the power moments are taken once per distinct piece."""
    a = bump(0.1, 0.12, 1.0, 6) - 0.5 * bump(0.2, 0.1, 0.7, 6)
    b = parse_expression("bump(0.3, 0.2, -0.8, 6) + poly(0, 0.1, 0.2)")
    rows = [(a, 0.05), (a, 0.5), (b, 0.3), (a, 0.9), (b, 0.3), (b, 0.7), (a, 0.5)]
    mu = np.sqrt((np.pi * np.arange(1, 301)) ** 2 + 2.0)
    seen = []

    def recorded(x, deg):
        seen.append(x.shape[0])
        return power_moments(x, deg)

    power_moments = analytic._power_moments
    monkeypatch.setattr(analytic, "_power_moments", recorded)
    got = sine_moments([f for f, _ in rows], mu, [t for _, t in rows], k)
    want = np.stack([sine_moments([f], mu, t, k)[0] for f, t in rows])
    assert np.array_equal(got, want)
    pieces = {p for f, t in rows for p in analytic._moment_terms(f, t, k)}
    assert seen[0] == len(pieces) < sum(len(analytic._moment_terms(f, t, k)) for f, t in rows)


def power_moments_per_step(x, deg):
    """_power_moments with beta_j formed anew at every j, as
    2 sign (sin x or -cos x), and a fresh array per recursion step."""
    sx, cx = np.sin(x), np.cos(x)

    def beta(j, s, c):
        sign = -1.0 if (j // 2) % 2 else 1.0
        return 2.0 * sign * (s if j % 2 == 0 else -c)

    H = np.empty((deg + 1,) + x.shape)
    inv = 1.0 / np.maximum(x, 1.0)
    H[0] = np.where(x < 1e-8, 2.0, 2.0 * sx / np.maximum(x, 1e-8))
    for j in range(1, deg + 1):
        H[j] = (j * H[j - 1] + beta(j, sx, cx)) * inv
    low = x < deg
    if np.any(low):
        xl, sl, cl = x[low], sx[low], cx[low]
        top, damp, xmax = deg, 0.0, float(np.max(xl))
        while damp > -40.0 and xmax > 0.0:
            top += 1
            damp += math.log(xmax / top)
        h = np.zeros(xl.shape)
        down = np.empty((deg + 1,) + xl.shape)
        for j in range(top + 1, 0, -1):
            h = (xl * h - beta(j, sl, cl)) / j
            if j <= deg + 1:
                down[j - 1] = h
        js = np.arange(deg + 1)[:, None]
        H[:, low] = np.where(js > xl, down, H[:, low])
    return H


def test_power_moments_match_per_step_betas(monkeypatch):
    """The four beta_j arrays, built once per pass and indexed by j mod 4,
    give the per-step form bit for bit (2 x and -x are exact) on the power
    moments of a verify run, which take both the upward and the Miller
    pass."""
    from slwave.verify import Workspace, run_all
    calls = []

    def recorded(x, deg):
        calls.append((x, deg))
        return power_moments(x, deg)

    power_moments = analytic._power_moments
    monkeypatch.setattr(analytic, "_power_moments", recorded)
    run_all(Workspace())
    assert len(calls) == 7
    assert all(np.any(x < deg) and np.any(x >= deg) for x, deg in calls)
    for x, deg in calls:
        got, want = power_moments(x, deg), power_moments_per_step(x, deg)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sine_moments_time_vector_checks():
    """A negative time anywhere is a configuration error; a time vector
    that does not match the forms is a contract error."""
    forms = [bump(0.3, 0.2, 1.0, 6)] * 3
    with pytest.raises(ConfigurationError):
        sine_moments(forms, np.array(MUS), [0.2, -0.1, 0.3], 2)
    with pytest.raises(ContractError):
        sine_moments(forms, np.array(MUS), [0.2, 0.3], 2)
