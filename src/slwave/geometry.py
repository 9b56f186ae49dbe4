"""Reflection-symmetric subsets of (0, l), metric neighborhoods, atoms and
the eikonal action.

Sets are finite unions of open intervals plus optional isolated symmetric
point pairs, always closed under the reflection x -> l - x.  Projections
assign grid nodes to half-open cells [a, b) so that a set and its
complement partition the nodes exactly; the last cell closes at x = l.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalError
from .grid import Grid, GridFunction, interp_cubic, simpson_sum

__all__ = [
    "SymmetricSet", "Atom", "symmetric_set", "neighborhood",
    "complement", "project_onto", "set_mass", "atom_snapshot", "boundary_atom",
    "eikonal_apply", "eikonal_metric", "distance_profile",
]


def _merge(intervals: Iterable[tuple]) -> tuple:
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    out = []
    for a, b in ivs:
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return tuple((a, b) for a, b in out)


@dataclass(eq=False)
class SymmetricSet:
    """Union of disjoint open intervals and isolated points in [0, l],
    closed under x -> l - x."""

    l: float
    intervals: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        tol = 1e-9 * self.l
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        pts = tuple(sorted(float(p) for p in self.points))
        for a, b in ivs:
            if not (-tol <= a < b <= self.l + tol):
                raise ConfigurationError(f"bad interval ({a}, {b}) for l={self.l}")
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1 - tol:
                raise ConfigurationError("intervals overlap; merge before constructing")
        refl = sorted((self.l - b, self.l - a) for a, b in ivs)
        ok = len(refl) == len(ivs) and all(
            abs(ra - a) <= tol and abs(rb - b) <= tol
            for (ra, rb), (a, b) in zip(refl, ivs))
        if not ok:
            raise ConfigurationError("interval family is not reflection symmetric")
        for p in pts:
            mirror = self.l - p
            if not any(abs(mirror - q) <= tol for q in pts):
                raise ConfigurationError("point family is not reflection symmetric")
        self.intervals = ivs
        self.points = pts


def symmetric_set(l: float, intervals: Sequence = (), points: Sequence = ()) -> SymmetricSet:
    """Validated constructor; intervals are sorted and must be disjoint."""
    return SymmetricSet(float(l), _merge(intervals), tuple(points))


def neighborhood(s: SymmetricSet, t: float) -> SymmetricSet:
    """Metric neighborhood s^t: every interval and point dilated by t and
    clipped to [0, l]; t = 0 is the identity."""
    if t < 0.0:
        raise ConfigurationError("neighborhood radius must be nonnegative")
    if t == 0.0:
        return s
    raw = [(max(0.0, a - t), min(s.l, b + t)) for a, b in s.intervals]
    raw += [(max(0.0, p - t), min(s.l, p + t)) for p in s.points]
    return SymmetricSet(s.l, _merge(raw), ())


def complement(s: SymmetricSet) -> SymmetricSet:
    """Closure-complement of the interval part within (0, l); isolated
    points carry no mass and are dropped."""
    out = []
    prev = 0.0
    for a, b in s.intervals:
        if a > prev:
            out.append((prev, a))
        prev = max(prev, b)
    if prev < s.l:
        out.append((prev, s.l))
    return SymmetricSet(s.l, tuple(out), ())


def _node_mask(s: SymmetricSet, grid: Grid) -> np.ndarray:
    if abs(grid.l - s.l) > 1e-12 * max(1.0, s.l):
        raise ConfigurationError("set and grid live on different intervals")
    tol = 1e-9 * grid.h
    x = grid.x
    mask = np.zeros(grid.size, dtype=bool)
    for a, b in s.intervals:
        closed_right = b >= s.l - tol
        if closed_right:
            mask |= (x >= a - tol) & (x <= b + tol)
        else:
            mask |= (x >= a - tol) & (x < b - tol)
    for p in s.points:
        mask |= np.abs(x - p) <= tol
    return mask


def project_onto(s: SymmetricSet, u: GridFunction) -> GridFunction:
    """Cutoff of u to the nodes inside s (half-open node cells)."""
    mask = _node_mask(s, u.grid)
    return GridFunction(u.grid, np.where(mask, u.values, 0.0))


def set_mass(u: GridFunction, s: SymmetricSet) -> float:
    """L2 mass of u over s by interval-resolved quadrature.

    Each interval is resampled with cubic interpolation and integrated by
    Simpson, so endpoint cells are not smeared to node resolution.  Isolated
    points contribute nothing.
    """
    g = u.grid
    total = 0.0
    for a, b in s.intervals:
        a = max(0.0, a)
        b = min(g.l, b)
        if b <= a:
            continue
        m = max(32, 2 * int(np.ceil((b - a) / g.h)))
        m += m % 2
        xs = np.linspace(a, b, m + 1)
        vals = interp_cubic(u, xs)
        dens = np.abs(vals) ** 2
        total += float(simpson_sum(dens, (b - a) / m).real)
    return total


@dataclass(eq=False)
class Atom:
    """Wave-spectrum atom parameterized by x in [0, l/2]; x = 0 is the
    boundary atom."""

    x: float

    def __post_init__(self):
        if self.x < 0.0:
            raise ConfigurationError("atom parameter must be nonnegative")


def boundary_atom() -> Atom:
    return Atom(0.0)


def _check_atom(a: Atom, l: float):
    if a.x > 0.5 * l * (1.0 + 1e-12):
        raise ConfigurationError(f"atom parameter {a.x} exceeds l/2 = {0.5 * l}")


def atom_snapshot(a: Atom, t: float, l: float) -> SymmetricSet:
    """Symmetric set swept out of the point pair {x, l-x} after time t."""
    _check_atom(a, l)
    if t < 0.0:
        raise ConfigurationError("snapshot time must be nonnegative")
    pts = (a.x,) if abs(a.x - (l - a.x)) <= 1e-12 * l else (a.x, l - a.x)
    if t == 0.0:
        return SymmetricSet(l, (), pts)
    return SymmetricSet(l, _merge(
        (max(0.0, p - t), min(l, p + t)) for p in pts), ())


def distance_profile(a: Atom, grid: Grid) -> np.ndarray:
    """Distance from each node to the point pair {x, l-x}."""
    _check_atom(a, grid.l)
    return np.minimum(np.abs(grid.x - a.x), np.abs(grid.x - (grid.l - a.x)))


def eikonal_apply(a: Atom, u: GridFunction) -> GridFunction:
    """Multiplication by the eikonal of the atom, the distance function of
    {x, l-x}."""
    return GridFunction(u.grid, distance_profile(a, u.grid) * u.values)


def eikonal_metric(a1: Atom, a2: Atom, grid: Grid) -> float:
    """Distance |x1 - x2| between two atoms, cross-checked against the
    sup-norm of the eikonal difference on the grid."""
    _check_atom(a1, grid.l)
    _check_atom(a2, grid.l)
    exact = abs(a1.x - a2.x)
    sup = float(np.max(np.abs(distance_profile(a1, grid) - distance_profile(a2, grid))))
    if abs(sup - exact) > grid.h:
        raise NumericalError(
            f"eikonal sup-norm {sup} disagrees with |x1-x2| = {exact} beyond h")
    return exact
