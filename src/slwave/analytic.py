"""Closed-form scalar functions with analytic derivatives of any order.

These serve two roles: potentials q(x) given in a tiny expression
vocabulary (const, cos, sin, poly, bump, ramp, sums and scalar multiples;
not a general expression parser), and boundary control signals f(t) that
must be differentiated analytically up to fourth order.

Every form has one normal form: a scale times an ordered sum of polynomial
pieces and trigonometric terms, each with its own derivative order.  One
batched evaluation (values) serves deriv, jet and the controlled waves, and
the sine moments int_0^t sin(mu (t - s)) f^(k)(s) ds are exact on each term
(Filon-type integration, Iserles and Norsett 2005), for a whole vector of
frequencies mu at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError

__all__ = ["ClosedForm", "Const", "Poly", "Trig", "PiecewisePoly",
           "bump", "ramp", "parse_expression", "sine_moments", "values"]


class _PolyPiece(NamedTuple):
    """weight * p^(k)(u) / width**k in u = (s - origin) / width on
    [lo, hi], p with ascending coeffs; outside [lo, hi] the constant left
    (below) or right (above) when k = 0 and zero when k > 0.  A plain
    polynomial in s has lo = -inf, hi = inf, origin 0 and width 1."""

    weight: float
    lo: float
    hi: float
    origin: float
    width: float
    coeffs: tuple
    left: float = 0.0
    right: float = 0.0
    k: int = 0


class _TrigTerm(NamedTuple):
    """weight * amp * d^k/ds^k cos(freq * s + phase)."""

    weight: float
    freq: float
    phase: float
    amp: float = 1.0
    k: int = 0


class ClosedForm:
    """Scalar function with exact derivatives, vectorized over numpy arrays:
    scale * (its terms, polynomial pieces and trig terms, added in order).

    A sum concatenates the terms (each side's scale moved into its term
    weights), a scalar multiple changes the scale and differentiate raises
    every term's order; the form without terms is the zero function."""

    __slots__ = ("terms", "scale")

    def __init__(self, terms=(), scale: float = 1.0):
        self.terms = tuple(terms)
        self.scale = scale

    def deriv(self, t, k: int = 1):
        return values([self], t, k)[0]

    def __call__(self, t):
        return self.deriv(t, 0)

    def differentiate(self, k: int = 1) -> "ClosedForm":
        return ClosedForm((term._replace(k=term.k + k) for term in self.terms), self.scale)

    def jet(self, order: int) -> np.ndarray:
        """Signed derivatives f^(k)(0) for k = 0..order, each equal to
        deriv(0, k); a piece that starts after 0 (so u(0) < 0) is read off,
        weight * left at order 0 and weight * 0 above, without an array pass."""
        ks = range(order + 1)
        far = [type(term) is _PolyPiece and term.lo > 0.0 for term in self.terms]
        near = iter(values([ClosedForm([term._replace(k=term.k + k)]) for term, f
                            in zip(self.terms, far) if not f for k in ks], 0.0)
                    .reshape(-1, order + 1).tolist()) if not all(far) else None
        rows = [[term.weight * (term.left if term.k + k == 0 else 0.0) for k in ks] if f
                else next(near) for term, f in zip(self.terms, far)] or [[0.0] * (order + 1)]
        total = functools.reduce(lambda a, b: [x + y for x, y in zip(a, b)], rows)
        return np.array(total) * self.scale

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Const(float(other))
        return ClosedForm(term._replace(weight=f.scale * term.weight) if f.scale != 1.0 else term
                          for f in (self, other) for term in f.terms)

    __radd__ = __add__

    def __neg__(self):
        return -1.0 * self

    def __sub__(self, other):
        return self + (-other if isinstance(other, ClosedForm) else Const(-float(other)))

    def __mul__(self, c):
        return ClosedForm(self.terms, float(c) * self.scale)

    __rmul__ = __mul__


def Const(c: float = 0.0) -> ClosedForm:
    return ClosedForm([_PolyPiece(c, -math.inf, math.inf, 0.0, 1.0, (1.0,))])


def Poly(coeffs) -> ClosedForm:
    """Polynomial sum_i coeffs[i] * t**i."""
    return ClosedForm([_PolyPiece(1.0, -math.inf, math.inf, 0.0, 1.0, tuple(coeffs))])


def Trig(kind: str, freq: float, amp: float = 1.0) -> ClosedForm:
    """amp * cos(freq t) or amp * sin(freq t) = amp * cos(freq t - pi/2)."""
    if kind not in ("cos", "sin"):
        raise ConfigurationError(f"unknown trig kind {kind!r}")
    return ClosedForm([_TrigTerm(1.0, freq, 0.0 if kind == "cos" else -np.pi / 2.0, amp)])


def PiecewisePoly(t0: float, t1: float, coeffs, left: float = 0.0,
                  right: float = 0.0) -> ClosedForm:
    """Polynomial in u = (t - t0)/(t1 - t0) on [t0, t1], constants outside."""
    if not t1 > t0:
        raise ConfigurationError("degenerate support interval")
    return ClosedForm([_PolyPiece(1.0, t0, t1, t0, t1 - t0, tuple(coeffs), left, right)])


# largest bump smoothness: (4 u (1-u))^p is summed in the monomial basis,
# which cancels more digits as p grows; at amplitude 1 the largest error
# over 200001 points of the support is 3.2e-8 at p = 10, 2.1e-6 at p = 12,
# 1.1e-2 at p = 16 and 35 at p = 20; against exact rational arithmetic the
# derivatives err by about 3e-11 of max|f'| at p = 6 and 1e-7 of max|f''| at p = 10
_MAX_SMOOTHNESS = 10


@functools.lru_cache(maxsize=None)
def _bump_base(p: int) -> np.ndarray:
    """Ascending coefficients of (u - u^2)^p, shared read-only."""
    base = np.array([0.0, 1.0, -1.0])
    for _ in range(p - 1):
        base = np.convolve(base, [0.0, 1.0, -1.0])
    base.flags.writeable = False
    return base


def bump(center: float, width: float, amplitude: float = 1.0, smoothness: int = 3) -> ClosedForm:
    """Polynomial bump amplitude * (4 u (1-u))**p on [center +- width/2].

    The 2(p-1)-degree spline has p-1 continuous derivatives and a vanishing
    (p-1)-jet at the support edges; the default p=3 gives a C^2 bump of
    degree 6.  Controls that get differentiated twice should use p >= 5;
    p is an integer in [2, 10].
    """
    if width <= 0.0:
        raise ConfigurationError("bump width must be positive")
    if not (2 <= smoothness <= _MAX_SMOOTHNESS and smoothness == int(smoothness)):
        raise ConfigurationError(
            f"bump smoothness must be an integer in [2, {_MAX_SMOOTHNESS}], got {smoothness!r}")
    p = int(smoothness)
    coeffs = tuple(float(amplitude) * 4.0**p * _bump_base(p))
    return PiecewisePoly(center - width / 2.0, center + width / 2.0, coeffs)


def ramp(t0: float, t1: float) -> ClosedForm:
    """Quintic smoothstep from 0 to 1 on [t0, t1], C^2 with flat 2-jets."""
    return PiecewisePoly(t0, t1, (0.0, 0.0, 0.0, 10.0, -15.0, 6.0), left=0.0, right=1.0)


def _derivative_coeffs(coeffs, k: int) -> tuple:
    """Ascending coefficients of the k-th derivative of a polynomial."""
    if k == 0:
        return coeffs
    if k >= len(coeffs):
        return (0.0,)
    return tuple(float(c) * math.perm(j, k) for j, c in enumerate(coeffs) if j >= k)


def _piece(weight, lo, hi, t, origin, width, coeffs) -> list:
    """The piece clipped to [0, t]; nothing when it is empty or zero."""
    lo, hi = max(lo, 0.0), min(hi, t)
    if hi <= lo or weight == 0.0 or not any(coeffs):
        return []
    return [_PolyPiece(float(weight), lo, hi, origin, width, coeffs)]


def _piece_values(pieces: Sequence[_PolyPiece], x: np.ndarray, orders) -> np.ndarray:
    """Rows of pieces[i]^(orders[i]) at the points x (shape (1, N)), for
    pieces that all have a support or all have none: one Horner pass over
    coefficient rows padded with leading zeros, which leaves every value
    bit for bit that of the piece alone."""
    coeffs = [_derivative_coeffs(p.coeffs, n) for p, n in zip(pieces, orders)]
    deg = max(map(len, coeffs))
    C = np.array([tuple(c) + (0.0,) * (deg - len(c)) for c in coeffs])
    weight, origin, width, wk, left, right = np.array(
        [(p.weight, p.origin, p.width, p.width ** n, *((p.left, p.right) if n == 0 else (0, 0)))
         for p, n in zip(pieces, orders)]).T[:, :, None]
    bounded = pieces[0].lo > -math.inf
    u = (x - origin) / width if bounded else x      # origin 0 and width 1 without a support
    uc = np.minimum(np.maximum(u, 0.0), 1.0) if bounded else u
    v = C[:, -1:] + uc * 0            # Horner in numpy.polynomial.polynomial.polyval's order
    for c in C.T[-2::-1, :, None]:
        v *= uc
        v += c
    if not bounded:
        return weight * v
    return weight * np.where(u < 0.0, left, np.where(u > 1.0, right, v / wk))


def _trig_values(terms: Sequence[_TrigTerm], x: np.ndarray, orders) -> np.ndarray:
    """Rows of terms[i]^(orders[i]) at the points x (shape (1, N)):
    weight * (amp freq**k * cos(freq x + phase + k pi/2))."""
    weight, freq, amp, phase = np.array(
        [(term.weight, term.freq, term.amp * term.freq ** n, n * np.pi / 2.0 + term.phase)
         for term, n in zip(terms, orders)]).T[:, :, None]
    return weight * (amp * np.cos(freq * x + phase))


def values(forms: Sequence[ClosedForm], t, k: int = 0) -> np.ndarray:
    """f_i^(k)(t) for every form, of shape (len(forms),) + shape of t.

    The terms of all forms are evaluated in one array pass per kind (trig
    terms, pieces with a support, plain polynomials: a constant is not
    padded to a bump's degree); each form adds its terms in order, then
    multiplies by its scale."""
    t = np.asarray(t, dtype=float)
    terms = [term for f in forms for term in f.terms]
    groups, rows = {}, [None] * len(terms)
    for i, term in enumerate(terms):
        groups.setdefault((_trig_values,) if type(term) is _TrigTerm
                          else (_piece_values, term.lo > -math.inf), []).append(i)
    for key, idx in groups.items():
        got = key[0]([terms[i] for i in idx], t.reshape(1, -1), [terms[i].k + k for i in idx])
        for i, row in zip(idx, got):
            rows[i] = row
    ends = list(itertools.accumulate([len(f.terms) for f in forms], initial=0))
    out = np.array([functools.reduce(np.add, rows[a:b]) if b > a else np.zeros(t.size)
                    for a, b in zip(ends, ends[1:])]).reshape(len(forms), t.size)
    if any(f.scale != 1.0 for f in forms):
        out = out * np.array([[f.scale] for f in forms])
    return out.reshape((len(forms),) + t.shape)


def _moment_terms(f: ClosedForm, t: float, k: int) -> list:
    """f^(k) on [0, t] as clipped _PolyPieces (at order 0 with each piece's
    constants outside its support) and order-0 _TrigTerms."""
    out = []
    for term in f.terms:
        n, w = term.k + k, f.scale * term.weight
        if isinstance(term, _TrigTerm):
            out.append(_TrigTerm(w * term.amp * term.freq ** n, term.freq,
                                 n * np.pi / 2.0 + term.phase))
            continue
        out += _piece(w / term.width ** n, term.lo, term.hi, t, term.origin, term.width,
                      _derivative_coeffs(term.coeffs, n))
        if n == 0:
            out += _piece(w * term.left, 0.0, term.lo, t, 0.0, 1.0, (1.0,))
            out += _piece(w * term.right, term.hi, t, t, 0.0, 1.0, (1.0,))
    return out


def _power_moments(x: np.ndarray, deg: int) -> np.ndarray:
    """H[j] with int_{-1}^{1} exp(-i x y) y^j dy = (-i)^j H[j], j = 0..deg,
    for x >= 0: H_j = 2 int_0^1 y^j cos(x y) dy for even j, sin for odd j.

    Integration by parts gives H_j = (j H_{j-1} + beta_j) / x with
    beta_j = 2 sin(x) (-1)^(j/2) for even j and -2 cos(x) (-1)^((j-1)/2) for
    odd j.  Run upward from H_0 = 2 sin(x)/x it is stable while j <= x; for
    j > x it is run downward (Miller) from an index where H is set to zero,
    which damps that start error by prod_{m=j+1}^{top} x/m < e^-40.  Each j
    takes the stable direction.
    """
    sx, cx = np.sin(x), np.cos(x)
    H = np.empty((deg + 1,) + x.shape)
    inv = 1.0 / np.maximum(x, 1.0)   # upward values are kept only where j <= x
    H[0] = np.where(x < 1e-8, 2.0, 2.0 * sx / np.maximum(x, 1e-8))
    beta = (2.0 * sx, -2.0 * cx, -2.0 * sx, 2.0 * cx)     # beta_j by j mod 4, each pass
    for j in range(1, deg + 1):
        h = np.multiply(H[j - 1], j, out=H[j])
        h += beta[j % 4]
        h *= inv
    low = x < deg
    if np.any(low):
        xl, sl, cl = x[low], sx[low], cx[low]
        top, damp, xmax = deg, 0.0, float(np.max(xl))
        while damp > -40.0 and xmax > 0.0:
            top += 1
            damp += math.log(xmax / top)
        beta = (2.0 * sl, -2.0 * cl, -2.0 * sl, 2.0 * cl)
        h = np.zeros(xl.shape)
        down = np.empty((deg + 1,) + xl.shape)
        for j in range(top + 1, 0, -1):         # h = H_{j-1}
            np.multiply(xl, h, out=h)
            h -= beta[j % 4]
            h /= j
            if j <= deg + 1:
                down[j - 1] = h
        js = np.arange(deg + 1)[:, None]
        H[:, low] = np.where(js > xl, down, H[:, low])
    return H


def _poly_moments(pieces: Sequence[_PolyPiece], mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sine moments of polynomial pieces, each up to its own time t[p]:
    (len(pieces), len(mu)).

    On [mid - half, mid + half] the piece is sum_j e_j y^j in
    y = (s - mid)/half (Taylor coefficients at the centre, which keeps a
    symmetric bump's coefficients small), so with phi = mu (t - mid) its
    moment is half * Im(exp(i phi) sum_j e_j (-i)^j H_j(mu half)).
    The sums are formed once per distinct piece (a piece clipped at the
    same support repeats over times); only phi is taken per row.
    """
    distinct = {}
    row = [distinct.setdefault(p, len(distinct)) for p in pieces]
    pieces = list(distinct)
    deg = max(len(p.coeffs) for p in pieces) - 1
    C = np.array([tuple(p.coeffs) + (0.0,) * (deg + 1 - len(p.coeffs)) for p in pieces])
    weight, lo, hi, origin, width = (np.array(col) for col in list(zip(*pieces))[:5])
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    uc, r = (mid - origin) / width, half / width
    j = np.arange(deg + 1)
    binom = np.array([[math.comb(a, b) for b in j] for a in j], dtype=float)
    powers = uc[:, None, None] ** np.maximum(j[:, None] - j[None, :], 0)
    E = np.einsum("pa,ab,pab->pb", C, binom, powers)
    # (-i)^j = (-1)^(j//2) times 1 (even j) or -i (odd j)
    E *= (weight * half)[:, None] * r[:, None] ** j * np.where((j // 2) % 2, -1.0, 1.0)
    H = _power_moments(half[:, None] * mu[None, :], deg)
    even = np.einsum("pj,jpn->pn", E[:, 0::2], H[0::2])
    odd = np.einsum("pj,jpn->pn", E[:, 1::2], H[1::2])
    phi = mu[None, :] * (t - mid[row])[:, None]
    return np.sin(phi) * even[row] - np.cos(phi) * odd[row]


def _trig_moments(terms: Sequence[_TrigTerm], mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^t sin(mu (t - s)) cos(f s + phase) ds, each term up to its own
    time t[p], by product to sum, each half in the form
    t sin(alpha + beta t/2) sinc(beta t/2): no special case at the
    resonance f = mu."""
    w, f, ph = (np.array(col)[:, None] for col in list(zip(*terms))[:3])
    t = t[:, None]
    return 0.5 * t * w * (np.sin(0.5 * (mu + f) * t + ph) * np.sinc((f - mu) * t / (2.0 * np.pi))
                          + np.sin(0.5 * (mu - f) * t - ph) * np.sinc((f + mu) * t / (2.0 * np.pi)))


def sine_moments(forms: Sequence[ClosedForm], mu, t, k: int = 0) -> np.ndarray:
    """Exact sine moments S[i, n] = int_0^t_i sin(mu_n (t_i - s)) f_i^(k)(s) ds
    for frequencies mu_n >= 0; t is one time for every form or one per form.

    The pieces of all forms are evaluated together in one array pass;
    returns an array of shape (len(forms), len(mu)).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    t = [float(t)] * len(forms) if np.ndim(t) == 0 else [float(ti) for ti in t]
    if len(t) != len(forms):
        raise ContractError(f"{len(t)} times for {len(forms)} forms")
    if any(ti < 0.0 for ti in t):
        raise ConfigurationError("time must be nonnegative")
    out = np.zeros((len(forms), mu.size))
    polys, trigs = [], []
    for i, (f, ti) in enumerate(zip(forms, t)):
        for term in _moment_terms(f, ti, k):
            (trigs if isinstance(term, _TrigTerm) else polys).append((i, ti, term))
    for found, evaluate in ((polys, _poly_moments), (trigs, _trig_moments)):
        if found:
            owner, tt, terms = zip(*found)
            np.add.at(out, np.array(owner), evaluate(terms, mu, np.array(tt)))
    return out


_ATOM = re.compile(r"^(const|cos|sin|poly|bump|ramp)\s*\(([^()]*)\)$")


def _split_terms(text: str):
    """Split on top-level + and - (binary); yields (sign, chunk)."""
    terms, depth, start, sign = [], 0, 0, 1.0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch in "+-":
            prev = text[start:i].strip()
            if prev and prev[-1] not in "eE*+,-":
                terms.append((sign, prev))
                sign, start = (1.0 if ch == "+" else -1.0), i + 1
    last = text[start:].strip()
    if last:
        terms.append((sign, last))
    return terms


def _number(text: str, error: str) -> float:
    """float(text) if finite, else a ConfigurationError with message `error`."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(error) from None
    if not math.isfinite(value):
        raise ConfigurationError(f"{error}: {text.strip()!r} is not finite")
    return value


def _parse_atom(chunk: str) -> ClosedForm:
    chunk = chunk.strip()
    m = _ATOM.match(chunk)
    if m is None:
        return Const(_number(chunk, f"cannot parse expression atom {chunk!r}"))
    name, argtext = m.group(1), m.group(2)
    args = ([_number(a, f"bad arguments in {chunk!r}") for a in argtext.split(",")]
            if argtext.strip() else [])
    if name == "const" and len(args) == 1:
        return Const(args[0])
    if name in ("cos", "sin") and len(args) == 1:
        return Trig(name, args[0])
    if name == "poly" and args:
        return Poly(tuple(args))
    if name == "bump" and 2 <= len(args) <= 4:
        return bump(*args + [1.0, 3.0][len(args) - 2:])
    if name == "ramp" and len(args) == 2:
        return ramp(args[0], args[1])
    raise ConfigurationError(f"wrong argument count in {chunk!r}")


def parse_expression(text: str) -> ClosedForm:
    """Parse the closed vocabulary: numbers, const/cos/sin/poly/bump/ramp,
    'c*atom' scaling and '+'/'-' combinations.  Example: "2 + cos(3)" is
    the function 2 + cos(3 x)."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError("empty expression")
    terms = []
    for sign, chunk in _split_terms(text.strip()):
        depth, star = 0, -1
        for i, ch in enumerate(chunk):      # the first '*' outside parentheses
            depth += (ch == "(") - (ch == ")")
            if ch == "*" and depth == 0:
                star = i
                break
        coef = _number(chunk[:star], f"bad coefficient in {chunk!r}") if star >= 0 else 1.0
        terms += [term._replace(weight=sign * coef * term.weight) if sign * coef != 1.0 else term
                  for term in _parse_atom(chunk[star + 1:]).terms]
    return ClosedForm(terms)
