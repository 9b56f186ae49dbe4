"""Gauge data on the half interval, hats and the model inner product.

A gauge is a triple (e, e1, e2) of kernel elements: e fixes the weight
rho(x) = |e(x)|^2 + |e(l-x)|^2 and the coordinate matrix

    T(x) = 1/rho(x) * [[conj(e1(x)), conj(e1(l-x))],
                       [conj(e2(x)), conj(e2(l-x))]],

e1, e2 fix the frame the hats are written in: u^(x) = T(x) (u(x), u(l-x)).
The Gram field G is assembled independently from the pointwise boundary
form, so G = rho T T* stays a checkable identity rather than a definition.

All algebra in this layer runs in extended precision (the samples are cast
once) because near the midpoint cond(G) grows like 1/det(T)^2 and double
precision would eat the 1e-10 identity tolerances.  default_gauge is the
only producer of extended-precision fields, and it refuses to run where
np.longdouble is plain double; every later layer takes its dtypes from the
gauge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import mat2
from .analytic import ClosedForm
from .errors import (AdmissibilityError, ConfigurationError, ContractError,
                     NumericalError)
from .grid import Grid, GridFunction, simpson_sum
from .sturm import KernelBasis, Potential

__all__ = [
    "KernelElement", "GaugeData", "SmoothFunction", "HatField",
    "default_gauge", "hat_value", "model_inner", "smooth_from_closed_form",
]

_LD = np.longdouble
_CLD = np.clongdouble
# mantissa bits of _LD; the gauge identities and the recovery near l/2 hold
# their tolerances only with x86 80-bit extended precision (63 bits)
_LD_NMANT = np.finfo(_LD).nmant
# half-grid cells before l/2 left out of the model: T degenerates there
GUARD_CELLS = 3
# |det T| at or below which a node outside the guard band is inadmissible
DET_FLOOR = 1e-8


@dataclass(eq=False)
class KernelElement:
    """Kernel solution c0 phi0 + cl phil with derivative samples."""

    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray

    @classmethod
    def build(cls, kb: KernelBasis, c0: complex, cl: complex) -> "KernelElement":
        u = _CLD(c0) * kb.phi0.astype(_CLD) + _CLD(cl) * kb.phil.astype(_CLD)
        du = _CLD(c0) * kb.dphi0.astype(_CLD) + _CLD(cl) * kb.dphil.astype(_CLD)
        d2u = kb.q.values.astype(_LD) * u
        return cls(u, du, d2u)

    def as_grid_function(self, grid: Grid) -> GridFunction:
        return GridFunction(grid, self.u.astype(complex))

    def as_smooth(self, grid: Grid) -> "SmoothFunction":
        return SmoothFunction(grid, self.u.astype(complex),
                              self.du.astype(complex), self.d2u.astype(complex))


@dataclass(eq=False)
class SmoothFunction:
    """Grid samples of a smooth function together with analytic first and
    second derivative samples."""

    grid: Grid
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def smooth_from_closed_form(grid: Grid, f: ClosedForm) -> SmoothFunction:
    return SmoothFunction(grid,
                          np.asarray(f.deriv(grid.x, 0), dtype=complex),
                          np.asarray(f.deriv(grid.x, 1), dtype=complex),
                          np.asarray(f.deriv(grid.x, 2), dtype=complex))


@dataclass(eq=False)
class GaugeData:
    """Half-interval gauge fields in extended precision."""

    grid: Grid
    q: Potential
    e: KernelElement
    e1: KernelElement
    e2: KernelElement
    half_x: np.ndarray
    rho: np.ndarray
    T: np.ndarray
    dT: np.ndarray
    d2T: np.ndarray
    G: np.ndarray
    detT: np.ndarray
    band: np.ndarray

    @property
    def half(self) -> int:
        return self.grid.n // 2

    @functools.cached_property
    def admissible(self) -> np.ndarray:
        """Nodes outside the guard band with |det T| > DET_FLOOR."""
        return ~self.band & (np.abs(self.detT) > DET_FLOOR)

    @functools.cached_property
    def Ginv(self) -> np.ndarray:
        """G^{-1} on the whole half grid (inf/nan where G is singular);
        a singular G on an admissible node is an AdmissibilityError."""
        detG = mat2.det2(self.G)
        if np.any(np.abs(detG[self.admissible]) <= 1e-14 * float(np.max(np.abs(self.G)))):
            raise AdmissibilityError("Gram matrix singular outside the guard band")
        with np.errstate(divide="ignore", invalid="ignore"):
            return mat2.inv2(self.G, det=detG)


def _pair(values: np.ndarray, m: int) -> tuple:
    """Samples at (x_j, l - x_j) for the half grid j = 0..m."""
    left = values[: m + 1]
    right = values[::-1][: m + 1]
    return left, right


def default_gauge(kb: KernelBasis,
                  e: Optional[tuple] = None,
                  e1: Optional[tuple] = None,
                  e2: Optional[tuple] = None) -> GaugeData:
    """Assemble the gauge fields on the half grid.

    e, e1, e2 are coefficient pairs in the (phi0, phil) basis; the defaults
    are e = phi0 + i phil, e1 = phi0, e2 = phil.  Inadmissible weights
    (min rho <= 1e-12) and dependent frames (Wronskian below 1e-10) are
    rejected.  The guard band is the last GUARD_CELLS half-grid cells
    before the midpoint, where T degenerates (its columns coincide at l/2);
    nodes with |det T| <= DET_FLOOR are inadmissible as well.
    """
    if _LD_NMANT < 63:
        raise NumericalError(
            f"default_gauge needs np.longdouble with at least 63 mantissa bits, but "
            f"it has {_LD_NMANT} here; the model algebra would silently lose "
            "the accuracy its checks are calibrated for")
    g = kb.grid
    if g.n % 4 != 0:
        raise ConfigurationError(
            f"half-grid Simpson needs n divisible by 4, got n={g.n}")
    m = g.n // 2
    ke = KernelElement.build(kb, *(e if e is not None else (1.0, 1.0j)))
    ke1 = KernelElement.build(kb, *(e1 if e1 is not None else (1.0, 0.0)))
    ke2 = KernelElement.build(kb, *(e2 if e2 is not None else (0.0, 1.0)))

    # frame independence: the Wronskian of e1, e2 is constant; sample it
    wr = ke1.u * ke2.du - ke1.du * ke2.u
    for idx in (0, g.n // 2, g.n):
        if abs(complex(wr[idx])) < 1e-10:
            raise AdmissibilityError("gauge frame e1, e2 is numerically dependent")

    el, er = _pair(ke.u, m)
    del_, der = _pair(ke.du, m)
    d2el, d2er = _pair(ke.d2u, m)
    rho = (np.abs(el) ** 2 + np.abs(er) ** 2).astype(_LD)
    if float(np.min(rho)) <= 1e-12:
        raise AdmissibilityError("gauge weight rho vanishes; choose another e")
    drho = 2.0 * (np.real(np.conj(el) * del_) - np.real(np.conj(er) * der))
    d2rho = 2.0 * (np.abs(del_) ** 2 + np.real(np.conj(el) * d2el)
                   + np.abs(der) ** 2 + np.real(np.conj(er) * d2er))

    M = np.empty((m + 1, 2, 2), dtype=_CLD)
    dM = np.empty_like(M)
    d2M = np.empty_like(M)
    for row, kel in enumerate((ke1, ke2)):
        ul, ur = _pair(kel.u, m)
        dul, dur = _pair(kel.du, m)
        d2ul, d2ur = _pair(kel.d2u, m)
        M[:, row, 0] = np.conj(ul)
        M[:, row, 1] = np.conj(ur)
        dM[:, row, 0] = np.conj(dul)
        dM[:, row, 1] = -np.conj(dur)
        d2M[:, row, 0] = np.conj(d2ul)
        d2M[:, row, 1] = np.conj(d2ur)

    f = 1.0 / rho
    df = -drho / rho ** 2
    d2f = (2.0 * drho ** 2 - rho * d2rho) / rho ** 3
    T = f[:, None, None] * M
    dT = df[:, None, None] * M + f[:, None, None] * dM
    d2T = d2f[:, None, None] * M + 2.0 * df[:, None, None] * dM + f[:, None, None] * d2M

    # Gram field from the boundary form itself, not from T
    G = np.empty_like(M)
    u1l, u1r = _pair(ke1.u, m)
    u2l, u2r = _pair(ke2.u, m)
    G[:, 0, 0] = (u1l * np.conj(u1l) + u1r * np.conj(u1r)) / rho
    G[:, 0, 1] = (u2l * np.conj(u1l) + u2r * np.conj(u1r)) / rho
    G[:, 1, 0] = (u1l * np.conj(u2l) + u1r * np.conj(u2r)) / rho
    G[:, 1, 1] = (u2l * np.conj(u2l) + u2r * np.conj(u2r)) / rho

    detT = mat2.det2(T)
    half_x = g.x[: m + 1].astype(_LD)
    band = half_x > half_x[m] - GUARD_CELLS * _LD(g.h) + _LD(1e-12) * g.h
    return GaugeData(g, kb.q, ke, ke1, ke2, half_x, rho, T, dT, d2T, G, detT, band)


@dataclass(eq=False)
class HatField:
    """Two-component image of a function under the gauge map, on the half
    grid.  trace keeps the generating pair (u(x), u(l-x)), which lets
    integrals pass through the midpoint; d1/d2 are hat derivatives."""

    values: np.ndarray
    trace: np.ndarray
    d1: Optional[np.ndarray] = None
    d2: Optional[np.ndarray] = None


def _trace_pair(values: np.ndarray, m: int, sign: float = 1.0) -> np.ndarray:
    left, right = _pair(values, m)
    return np.stack([left, sign * right], axis=1)


def hat_value(u: Union[GridFunction, SmoothFunction], gd: GaugeData) -> HatField:
    """Hat of u: u^(x) = T(x) (u(x), u(l-x)).

    SmoothFunction input also fills the hat derivatives via the product
    rule with the analytic T', T''.
    """
    if not isinstance(u, (GridFunction, SmoothFunction)):
        raise ContractError(f"cannot hat a {type(u).__name__}")
    m = gd.half
    w = _trace_pair(np.asarray(u.values, dtype=_CLD), m)
    hat = mat2.apply2(gd.T, w)
    d1 = d2 = None
    if isinstance(u, SmoothFunction):
        dw = _trace_pair(np.asarray(u.d1, dtype=_CLD), m, sign=-1.0)
        d2w = _trace_pair(np.asarray(u.d2, dtype=_CLD), m)
        d1 = mat2.apply2(gd.dT, w) + mat2.apply2(gd.T, dw)
        d2 = (mat2.apply2(gd.d2T, w) + 2.0 * mat2.apply2(gd.dT, dw)
              + mat2.apply2(gd.T, d2w))
    return HatField(hat, w, d1, d2)


def model_inner(uh: HatField, vh: HatField, gd: GaugeData) -> complex:
    """Model inner product int_0^{l/2} (G^{-1} u^, v^) rho dx.

    On admissible nodes the integrand exercises the Gram algebra; on the
    guard band (and any degenerate interior node) it is replaced by the
    algebraically equal trace form u(x) conj(v(x)) + u(l-x) conj(v(l-x)),
    so Simpson runs through the midpoint.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        Ginv_u = mat2.apply2(gd.Ginv, uh.values)
        integrand = np.einsum("ji,ji->j", Ginv_u, np.conj(vh.values)) * gd.rho
    fallback = np.einsum("ji,ji->j", uh.trace, np.conj(vh.trace))
    integrand = np.where(gd.admissible, integrand, fallback)
    return complex(simpson_sum(integrand, _LD(gd.grid.h)))

