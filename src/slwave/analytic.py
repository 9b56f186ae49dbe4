"""Closed-form scalar functions with analytic derivatives of any order.

These serve two roles: potentials q(x) given in a tiny expression
vocabulary, and boundary control signals f(t) that must be differentiated
analytically up to fourth order.  The vocabulary is deliberately closed
(const, cos, sin, poly, bump, ramp, sums and scalar multiples); this is not
a general expression parser.

Every form also integrates exactly against the wave kernel: the sine
moments int_0^t sin(mu (t - s)) f^(k)(s) ds have a closed form on each
polynomial piece and trigonometric term (Filon-type integration, Iserles
and Norsett 2005), evaluated for a whole vector of frequencies mu at once.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError

__all__ = ["ClosedForm", "Const", "Poly", "Trig", "PiecewisePoly",
           "bump", "ramp", "parse_expression", "sine_moments"]


class ClosedForm:
    """Scalar function with exact derivatives, vectorized over numpy arrays."""

    def deriv(self, t, k: int = 1):
        raise NotImplementedError

    def __call__(self, t):
        return self.deriv(t, 0)

    def differentiate(self, k: int = 1) -> "ClosedForm":
        return _Derivative(self, k)

    def jet(self, order: int) -> np.ndarray:
        """Signed derivatives f^(k)(0) for k = 0..order, each equal to
        deriv(0, k)."""
        t0 = np.zeros(1)
        return np.array([self.deriv(t0, k)[0] for k in range(order + 1)], dtype=float)

    def sine_moments(self, mu, t: float, k: int = 0) -> np.ndarray:
        """Exact int_0^t sin(mu_n (t - s)) f^(k)(s) ds for every mu_n >= 0."""
        return sine_moments([self], mu, t, k)[0]

    def _moment_terms(self, t: float, k: int, scale: float) -> list:
        """scale * f^(k) on [0, t] as _PolyPiece and _TrigTerm terms."""
        raise NotImplementedError(
            f"{type(self).__name__} has no closed-form sine moments")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Const(float(other))
        return _Sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _Scaled(-1.0, self)

    def __sub__(self, other):
        return self + (-other if isinstance(other, ClosedForm) else Const(-float(other)))

    def __mul__(self, c):
        return _Scaled(float(c), self)

    __rmul__ = __mul__


@dataclass(eq=False)
class Const(ClosedForm):
    c: float = 0.0

    def deriv(self, t, k: int = 1):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.c) if k == 0 else np.zeros_like(t)

    def _moment_terms(self, t, k, scale):
        return _piece(scale * self.c if k == 0 else 0.0, 0.0, t, t, 0.0, 1.0, (1.0,))


@dataclass(eq=False)
class Poly(ClosedForm):
    """Polynomial sum_i coeffs[i] * t**i."""

    coeffs: tuple

    def deriv(self, t, k: int = 1):
        t = np.asarray(t, dtype=float)
        return _polyval(t, _derivative_coeffs(self.coeffs, k))

    def _moment_terms(self, t, k, scale):
        return _piece(scale, 0.0, t, t, 0.0, 1.0, _derivative_coeffs(self.coeffs, k))


@dataclass(eq=False)
class Trig(ClosedForm):
    """amp * cos(freq t) or amp * sin(freq t)."""

    kind: str
    freq: float
    amp: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cos", "sin"):
            raise ConfigurationError(f"unknown trig kind {self.kind!r}")

    def _phase(self, k: int) -> float:
        # d^k cos(ft) = f^k cos(ft + k pi/2); sin(ft) = cos(ft - pi/2)
        shift = k * np.pi / 2.0
        return shift if self.kind == "cos" else shift - np.pi / 2.0

    def deriv(self, t, k: int = 1):
        t = np.asarray(t, dtype=float)
        return self.amp * self.freq**k * np.cos(self.freq * t + self._phase(k))

    def _moment_terms(self, t, k, scale):
        return [_TrigTerm(scale * self.amp * self.freq**k, self.freq, self._phase(k))]


@dataclass(eq=False)
class PiecewisePoly(ClosedForm):
    """Polynomial in u = (t - t0)/(t1 - t0) on [t0, t1], constants outside."""

    t0: float
    t1: float
    coeffs: tuple
    left: float = 0.0
    right: float = 0.0

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ConfigurationError("degenerate support interval")

    def deriv(self, t, k: int = 1):
        t = np.asarray(t, dtype=float)
        u = (t - self.t0) / (self.t1 - self.t0)
        c = _derivative_coeffs(self.coeffs, k)
        inside = _polyval(np.minimum(np.maximum(u, 0.0), 1.0), c) / (self.t1 - self.t0) ** k
        if k == 0:
            out = np.where(u < 0.0, self.left, np.where(u > 1.0, self.right, inside))
        else:
            out = np.where((u < 0.0) | (u > 1.0), 0.0, inside)
        return out

    def jet(self, order):
        if self.t0 <= 0.0:
            return super().jet(order)
        out = np.zeros(order + 1)     # t = 0 lies on the constant left part
        out[0] = self.left
        return out

    def _moment_terms(self, t, k, scale):
        w = self.t1 - self.t0
        terms = _piece(scale / w**k, self.t0, self.t1, t, self.t0, w,
                       _derivative_coeffs(self.coeffs, k))
        if k == 0:
            terms += _piece(scale * self.left, 0.0, self.t0, t, 0.0, 1.0, (1.0,))
            terms += _piece(scale * self.right, self.t1, t, t, 0.0, 1.0, (1.0,))
        return terms


# largest bump smoothness: (4 u (1-u))^p is summed in the monomial basis,
# which cancels more digits as p grows; at amplitude 1 the largest error
# over 200001 points of the support is 3.2e-8 at p = 10, 2.1e-6 at p = 12,
# 1.1e-2 at p = 16 and 35 at p = 20
_MAX_SMOOTHNESS = 10


@functools.lru_cache(maxsize=None)
def _bump_base(p: int) -> np.ndarray:
    """Ascending coefficients of (u - u^2)^p, shared read-only."""
    base = np.array([0.0, 1.0, -1.0])
    for _ in range(p - 1):
        base = np.convolve(base, [0.0, 1.0, -1.0])
    base.flags.writeable = False
    return base


def bump(center: float, width: float, amplitude: float = 1.0, smoothness: int = 3) -> PiecewisePoly:
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


def ramp(t0: float, t1: float) -> PiecewisePoly:
    """Quintic smoothstep from 0 to 1 on [t0, t1], C^2 with flat 2-jets."""
    return PiecewisePoly(t0, t1, (0.0, 0.0, 0.0, 10.0, -15.0, 6.0), left=0.0, right=1.0)


@dataclass(eq=False)
class _Scaled(ClosedForm):
    c: float
    f: ClosedForm

    def deriv(self, t, k: int = 1):
        return self.c * self.f.deriv(t, k)

    def jet(self, order):
        return self.c * self.f.jet(order)

    def _moment_terms(self, t, k, scale):
        return self.f._moment_terms(t, k, scale * self.c)


@dataclass(eq=False)
class _Sum(ClosedForm):
    parts: tuple

    def deriv(self, t, k: int = 1):
        out = self.parts[0].deriv(t, k)
        for p in self.parts[1:]:
            out = out + p.deriv(t, k)
        return out

    def jet(self, order):
        out = self.parts[0].jet(order)
        for p in self.parts[1:]:
            out = out + p.jet(order)
        return out

    def _moment_terms(self, t, k, scale):
        return [term for p in self.parts for term in p._moment_terms(t, k, scale)]


@dataclass(eq=False)
class _Derivative(ClosedForm):
    f: ClosedForm
    shift: int

    def deriv(self, t, k: int = 1):
        return self.f.deriv(t, k + self.shift)

    def jet(self, order):
        return self.f.jet(order + self.shift)[self.shift:]

    def _moment_terms(self, t, k, scale):
        return self.f._moment_terms(t, k + self.shift, scale)


class _PolyPiece(NamedTuple):
    """weight * p((s - origin) / width) on [lo, hi], p with ascending coeffs."""

    weight: float
    lo: float
    hi: float
    origin: float
    width: float
    coeffs: tuple


class _TrigTerm(NamedTuple):
    """weight * cos(freq * s + phase) on [0, t]."""

    weight: float
    freq: float
    phase: float


def _derivative_coeffs(coeffs, k: int) -> tuple:
    """Ascending coefficients of the k-th derivative of a polynomial."""
    if k == 0:
        return coeffs
    if k >= len(coeffs):
        return (0.0,)
    return tuple(float(c) * math.perm(j, k) for j, c in enumerate(coeffs) if j >= k)


def _polyval(t, coeffs):
    """Horner evaluation of ascending coefficients at t, in the operation
    order of numpy.polynomial.polynomial.polyval."""
    out = coeffs[-1] + t * 0
    for c in coeffs[-2::-1]:
        out = c + out * t
    return out


def _piece(weight, lo, hi, t, origin, width, coeffs) -> list:
    """The piece clipped to [0, t]; nothing when it is empty or zero."""
    lo, hi = max(lo, 0.0), min(hi, t)
    if hi <= lo or weight == 0.0 or not any(coeffs):
        return []
    return [_PolyPiece(float(weight), lo, hi, origin, width, coeffs)]


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

    def beta(j, s, c):
        sign = -1.0 if (j // 2) % 2 else 1.0
        return 2.0 * sign * (s if j % 2 == 0 else -c)

    H = np.empty((deg + 1,) + x.shape)
    inv = 1.0 / np.maximum(x, 1.0)   # upward values are kept only where j <= x
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
            h = (xl * h - beta(j, sl, cl)) / j      # H_{j-1}
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
    """
    deg = max(len(p.coeffs) for p in pieces) - 1
    C = np.zeros((len(pieces), deg + 1))
    for row, p in zip(C, pieces):
        row[:len(p.coeffs)] = p.coeffs
    weight, lo, hi, origin, width = (np.array([getattr(p, name) for p in pieces])
                                     for name in _PolyPiece._fields[:5])
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
    phi = mu[None, :] * (t - mid)[:, None]
    return np.sin(phi) * even - np.cos(phi) * odd


def _trig_moments(terms: Sequence[_TrigTerm], mu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^t sin(mu (t - s)) cos(f s + phase) ds, each term up to its own
    time t[p], by product to sum, each half in the form
    t sin(alpha + beta t/2) sinc(beta t/2): no special case at the
    resonance f = mu."""
    w, f, ph = (np.array(col)[:, None] for col in zip(*terms))
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
        for term in f._moment_terms(ti, k, 1.0):
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
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-" and i > start:
            prev = text[start:i].strip()
            if prev and prev[-1] not in "eE*+,-":
                terms.append((sign, prev))
                sign = 1.0 if ch == "+" else -1.0
                start = i + 1
        i += 1
    last = text[start:].strip()
    if last:
        terms.append((sign, last))
    return terms


def _number(text: str, error: str) -> float:
    """float(text) for a finite number; otherwise a ConfigurationError
    with the message `error`."""
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
        a = args + [1.0, 3.0][len(args) - 2:]
        return bump(*a)
    if name == "ramp" and len(args) == 2:
        return ramp(args[0], args[1])
    raise ConfigurationError(f"wrong argument count in {chunk!r}")


def parse_expression(text: str) -> ClosedForm:
    """Parse the closed vocabulary: numbers, const/cos/sin/poly/bump/ramp,
    'c*atom' scaling and '+'/'-' combinations.  Example: "2 + cos(3)" is
    the function 2 + cos(3 x)."""
    if not isinstance(text, str) or not text.strip():
        raise ConfigurationError("empty expression")
    terms = _split_terms(text.strip())
    if not terms:
        raise ConfigurationError(f"cannot parse expression {text!r}")
    parsed = []
    for sign, chunk in terms:
        depth = 0
        star = -1
        for i, ch in enumerate(chunk):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                star = i
                break
        if star >= 0:
            coef = _number(chunk[:star], f"bad coefficient in {chunk!r}")
            atom = _parse_atom(chunk[star + 1:])
        else:
            coef = 1.0
            atom = _parse_atom(chunk)
        parsed.append(_Scaled(sign * coef, atom))
    return parsed[0] if len(parsed) == 1 else _Sum(tuple(parsed))
