"""Gauge data on the half interval, boundary forms, hats and the model
inner product.

A gauge is a triple (e, e1, e2) of kernel elements: e fixes the weight
rho(x) = |e(x)|^2 + |e(l-x)|^2 and the coordinate matrix

    T(x) = 1/rho(x) * [[conj(e1(x)), conj(e1(l-x))],
                       [conj(e2(x)), conj(e2(l-x))]],

e1, e2 fix the frame the hats are written in: u^(x) = T(x) (u(x), u(l-x)).
The Gram field G is assembled independently from the pointwise boundary
form, so G = rho T T* stays a checkable identity rather than a definition.

All algebra in this layer runs in extended precision (the samples are cast
once) because near the midpoint cond(G) grows like 1/det(T)^2 and double
precision would eat the 1e-10 identity tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import mat2
from .analytic import ClosedForm
from .errors import (AdmissibilityError, ConfigurationError, ContractError,
                     InternalError, NumericalError)
from .geometry import atom_snapshot, Atom, set_mass
from .grid import Grid, GridFunction, inner, interp_cubic, simpson_sum
from .sturm import KernelBasis, Potential

__all__ = [
    "KernelElement", "GaugeData", "SmoothFunction", "HatField",
    "FormLimitReport", "ModelInnerReport", "default_gauge", "boundary_form",
    "form_limit_check", "hat_value", "hat_consistency_residual",
    "model_inner", "model_inner_report", "parseval_residual",
    "smooth_from_closed_form",
]

_LD = np.longdouble
_CLD = np.clongdouble
# mantissa bits of _LD; the gauge identities and the recovery near l/2 hold
# their tolerances only with x86 80-bit extended precision (63 bits)
_LD_NMANT = np.finfo(_LD).nmant
# half-grid cells before l/2 left out of the model: T degenerates there
GUARD_CELLS = 3


def _require_extended_precision(what: str) -> None:
    if _LD_NMANT < 63:
        raise NumericalError(
            f"{what} needs np.longdouble with at least 63 mantissa bits, but "
            f"it has {_LD_NMANT} here; the model algebra would silently lose "
            "the accuracy its checks are calibrated for")


@dataclass(frozen=True)
class KernelElement:
    """Kernel solution c0 phi0 + cl phil with derivative samples."""

    c0: complex
    cl: complex
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray

    @classmethod
    def build(cls, kb: KernelBasis, c0: complex, cl: complex) -> "KernelElement":
        u = _CLD(c0) * kb.phi0.u.values.astype(_CLD) + _CLD(cl) * kb.phil.u.values.astype(_CLD)
        du = _CLD(c0) * kb.phi0.du.values.astype(_CLD) + _CLD(cl) * kb.phil.du.values.astype(_CLD)
        d2u = kb.q.values.astype(_LD) * u
        return cls(complex(c0), complex(cl), u, du, d2u)

    def as_grid_function(self, grid: Grid) -> GridFunction:
        return GridFunction(grid, self.u.astype(complex))

    def as_smooth(self, grid: Grid) -> "SmoothFunction":
        return SmoothFunction(grid, self.u.astype(complex),
                              self.du.astype(complex), self.d2u.astype(complex))


@dataclass(frozen=True)
class SmoothFunction:
    """Grid samples of a smooth function together with analytic first and
    second derivative samples."""

    grid: Grid
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def as_grid_function(self) -> GridFunction:
        return GridFunction(self.grid, np.asarray(self.values, dtype=complex))


def smooth_from_closed_form(grid: Grid, f: ClosedForm) -> SmoothFunction:
    return SmoothFunction(grid,
                          np.asarray(f.deriv(grid.x, 0), dtype=complex),
                          np.asarray(f.deriv(grid.x, 1), dtype=complex),
                          np.asarray(f.deriv(grid.x, 2), dtype=complex))


@dataclass(frozen=True)
class GaugeData:
    """Half-interval gauge fields in extended precision."""

    grid: Grid
    q: Potential
    e: KernelElement
    e1: KernelElement
    e2: KernelElement
    half_x: np.ndarray
    rho: np.ndarray
    drho: np.ndarray
    d2rho: np.ndarray
    T: np.ndarray
    dT: np.ndarray
    d2T: np.ndarray
    G: np.ndarray
    detT: np.ndarray
    guard_cells: int
    det_floor: float
    admissible: np.ndarray
    band: np.ndarray

    @property
    def half(self) -> int:
        return self.grid.n // 2


def _pair(values: np.ndarray, m: int) -> tuple:
    """Samples at (x_j, l - x_j) for the half grid j = 0..m."""
    left = values[: m + 1]
    right = values[::-1][: m + 1]
    return left, right


def default_gauge(kb: KernelBasis,
                  e: Optional[tuple] = None,
                  e1: Optional[tuple] = None,
                  e2: Optional[tuple] = None,
                  guard_cells: int = GUARD_CELLS,
                  det_floor: float = 1e-8) -> GaugeData:
    """Assemble the gauge fields on the half grid.

    e, e1, e2 are coefficient pairs in the (phi0, phil) basis; the defaults
    are e = phi0 + i phil, e1 = phi0, e2 = phil.  Inadmissible weights
    (min rho <= 1e-12) and dependent frames (Wronskian below 1e-10) are
    rejected.  The guard band is the last guard_cells half-grid cells
    before the midpoint, where T degenerates (its columns coincide at l/2).
    """
    _require_extended_precision("default_gauge")
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
    band = half_x > half_x[m] - guard_cells * _LD(g.h) + _LD(1e-12) * g.h
    admissible = (~band) & (np.abs(detT) > det_floor)
    return GaugeData(g, kb.q, ke, ke1, ke2, half_x, rho, drho, d2rho,
                     T, dT, d2T, G, detT, guard_cells, det_floor,
                     admissible, band)


def _interp4_half(values: np.ndarray, h: float, xq: float):
    """Cubic Lagrange interpolation on the uniform half grid."""
    mlast = values.shape[0] - 1
    j = int(np.clip(int(xq / h) - 1, 0, mlast - 3))
    xs = (j + np.arange(4)) * h
    acc = values[j] * 0.0
    for k in range(4):
        lk = 1.0
        for mth in range(4):
            if mth != k:
                lk *= (xq - xs[mth]) / (xs[k] - xs[mth])
        acc = acc + lk * values[j + k]
    return acc


def boundary_form(u: GridFunction, v: GridFunction, x: float, gd: GaugeData) -> complex:
    """Pointwise boundary form
    <u, v>_x = (u(x) conj(v(x)) + u(l-x) conj(v(l-x))) / rho(x),
    with cubic interpolation off the nodes."""
    l = gd.grid.l
    if not (0.0 <= x <= 0.5 * l * (1.0 + 1e-12)):
        raise ConfigurationError(f"boundary form is defined for x in [0, l/2], got {x}")
    ux = interp_cubic(u, x)
    uxr = interp_cubic(u, l - x)
    vx = interp_cubic(v, x)
    vxr = interp_cubic(v, l - x)
    rho = float(_interp4_half(gd.rho, gd.grid.h, x))
    return complex((ux * np.conj(vx) + uxr * np.conj(vxr)) / rho)


@dataclass(frozen=True)
class FormLimitReport:
    """Small-radius limit of atom-projected mass ratios against the
    pointwise boundary form."""

    x: float
    radii: tuple
    ratios: tuple
    extrapolated: float
    target: float
    deviation: float
    tol: float
    monotone: bool
    passed: bool


def form_limit_check(u: GridFunction, x: float, gd: GaugeData,
                     radii: tuple = None, tol: float = 1e-4) -> FormLimitReport:
    """Ratio ||P_{omega_x(t)} u||^2 / ||P_{omega_x(t)} e||^2 for shrinking
    t, Richardson-extrapolated in t^2 and compared with the boundary form
    value at x."""
    l = gd.grid.l
    if radii is None:
        radii = (0.08 * l, 0.04 * l, 0.02 * l)
    radii = tuple(sorted(float(t) for t in radii))[::-1]
    if radii[0] >= min(x, l - x):
        raise ConfigurationError("largest radius must stay inside (0, l)")
    atom = Atom(min(x, l - x))
    e_gf = gd.e.as_grid_function(gd.grid)
    ratios = []
    for t in radii:
        snap = atom_snapshot(atom, t, l)
        mu = set_mass(u, snap)
        me = set_mass(e_gf, snap)
        ratios.append(mu / me)
    t1, t2 = radii[-2], radii[-1]
    r1, r2 = ratios[-2], ratios[-1]
    extrapolated = r2 + (r2 - r1) * t2 ** 2 / (t1 ** 2 - t2 ** 2)
    target = boundary_form(u, u, x, gd).real
    deviation = abs(extrapolated - target)
    devs = [abs(r - target) for r in ratios]
    floor = max(1e-10, 1e-8 * abs(target))
    monotone = all(d2 <= d1 * 2.0 + floor for d1, d2 in zip(devs, devs[1:]))
    passed = bool(deviation <= tol and monotone)
    return FormLimitReport(x, radii, tuple(ratios), float(extrapolated),
                           float(target), float(deviation), tol, monotone, passed)


@dataclass(frozen=True)
class HatField:
    """Two-component image of a function under the gauge map, on the half
    grid.  trace keeps the generating pair (u(x), u(l-x)) when known, which
    lets integrals pass through the midpoint; d1/d2 are hat derivatives."""

    half_x: np.ndarray
    values: np.ndarray
    trace: Optional[np.ndarray] = None
    d1: Optional[np.ndarray] = None
    d2: Optional[np.ndarray] = None

    def has_derivatives(self) -> bool:
        return self.d1 is not None and self.d2 is not None


def _trace_pair(values: np.ndarray, m: int, sign: float = 1.0) -> np.ndarray:
    w = np.empty((m + 1, 2), dtype=_CLD)
    w[:, 0] = values[: m + 1]
    w[:, 1] = sign * values[::-1][: m + 1]
    return w


def hat_value(u: Union[GridFunction, SmoothFunction, KernelElement],
              gd: GaugeData, check: bool = True) -> HatField:
    """Hat of u: u^(x) = T(x) (u(x), u(l-x)).

    The result is cross-checked against the boundary-form route
    (<u,e1>_x, <u,e2>_x); disagreement beyond 1e-12 relative raises an
    internal error.  SmoothFunction input also fills the hat derivatives
    via the product rule with the analytic T', T''.
    """
    m = gd.half
    if isinstance(u, KernelElement):
        u = u.as_smooth(gd.grid)
    if isinstance(u, SmoothFunction):
        vals = np.asarray(u.values, dtype=_CLD)
        w = _trace_pair(vals, m)
        dw = _trace_pair(np.asarray(u.d1, dtype=_CLD), m, sign=-1.0)
        d2w = _trace_pair(np.asarray(u.d2, dtype=_CLD), m)
        hat = mat2.apply2(gd.T, w)
        d1 = mat2.apply2(gd.dT, w) + mat2.apply2(gd.T, dw)
        d2 = (mat2.apply2(gd.d2T, w) + 2.0 * mat2.apply2(gd.dT, dw)
              + mat2.apply2(gd.T, d2w))
    elif isinstance(u, GridFunction):
        vals = u.values.astype(_CLD)
        w = _trace_pair(vals, m)
        hat = mat2.apply2(gd.T, w)
        d1 = d2 = None
    else:
        raise ContractError(f"cannot hat a {type(u).__name__}")
    if check:
        res = _hat_form_residual(vals, hat, gd)
        scale = float(np.max(np.abs(hat))) + 1.0
        if res > 1e-12 * scale:
            raise InternalError(
                f"hat routes disagree by {res:.3e}; gauge data is inconsistent")
    return HatField(gd.half_x, hat, trace=w, d1=d1, d2=d2)


def _hat_form_residual(full_values: np.ndarray, hat: np.ndarray, gd: GaugeData) -> float:
    m = gd.half
    ul, ur = full_values[: m + 1], full_values[::-1][: m + 1]
    e1l, e1r = gd.e1.u[: m + 1], gd.e1.u[::-1][: m + 1]
    e2l, e2r = gd.e2.u[: m + 1], gd.e2.u[::-1][: m + 1]
    alt0 = (ul * np.conj(e1l) + ur * np.conj(e1r)) / gd.rho
    alt1 = (ul * np.conj(e2l) + ur * np.conj(e2r)) / gd.rho
    return float(max(np.max(np.abs(hat[:, 0] - alt0)), np.max(np.abs(hat[:, 1] - alt1))))


def hat_consistency_residual(u: GridFunction, gd: GaugeData) -> float:
    """Max difference between the matrix route and the form route of the
    hat; exposed for verification."""
    m = gd.half
    vals = u.values.astype(_CLD)
    hat = mat2.apply2(gd.T, _trace_pair(vals, m))
    return _hat_form_residual(vals, hat, gd)


@dataclass(frozen=True)
class ModelInnerReport:
    value: complex
    excluded_estimate: float
    through_midpoint: bool


def model_inner_report(uh: HatField, vh: HatField, gd: GaugeData) -> ModelInnerReport:
    """Model inner product int_0^{l/2} (G^{-1} u^, v^) rho dx.

    On admissible nodes the integrand exercises the Gram algebra; on the
    guard band (and any degenerate interior node) it is replaced by the
    algebraically equal trace form u(x) conj(v(x)) + u(l-x) conj(v(l-x))
    when both hats carry traces, so Simpson runs through the midpoint.
    Without traces the band is excluded and its contribution only bounded.
    """
    m = gd.half
    h = _LD(gd.grid.h)
    ok = gd.admissible
    detG = mat2.det2(gd.G)
    if np.any(np.abs(detG[ok]) <= 1e-14 * float(np.max(np.abs(gd.G)))):
        raise AdmissibilityError("Gram matrix singular outside the guard band")
    with np.errstate(divide="ignore", invalid="ignore"):
        Ginv_u = mat2.apply2(mat2.inv2(gd.G, det=detG), uh.values)
        integrand = np.einsum("ji,ji->j", Ginv_u, np.conj(vh.values)) * gd.rho
    if uh.trace is not None and vh.trace is not None:
        fallback = np.einsum("ji,ji->j", uh.trace, np.conj(vh.trace))
        integrand = np.where(ok, integrand, fallback)
        value = simpson_sum(integrand, h)
        return ModelInnerReport(complex(value), 0.0, True)
    run_end = int(np.argmin(ok)) if not ok.all() else m + 1
    if run_end < 5:
        raise ContractError("admissible prefix too short to integrate")
    value = simpson_sum(integrand[:run_end], h)
    tail_scale = float(np.max(np.abs(integrand[max(0, run_end - 3):run_end])))
    excluded = float((m + 1 - run_end) * h) * tail_scale
    return ModelInnerReport(complex(value), excluded, False)


def model_inner(uh: HatField, vh: HatField, gd: GaugeData) -> complex:
    return model_inner_report(uh, vh, gd).value


def parseval_residual(u: GridFunction, v: GridFunction, gd: GaugeData) -> float:
    """|(u, v)_{L2(0,l)} - model_inner(u^, v^)|; the unitary-equivalence
    certificate for one pair."""
    lhs = inner(u, v)
    rhs = model_inner(hat_value(u, gd), hat_value(v, gd), gd)
    return float(abs(lhs - rhs))
