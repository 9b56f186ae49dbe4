"""Reflection-symmetric subsets of (0, l), wave-spectrum atoms, the sets
an atom sweeps out in time, and the eikonal of an atom.

Sets are finite unions of open intervals plus optional isolated symmetric
point pairs, always closed under the reflection x -> l - x.  set_mass
integrates |u|^2 over a set; distance_profile samples the eikonal, the
distance to an atom's point pair, on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .grid import Grid, GridFunction, interp_cubic, simpson_sum

__all__ = ["SymmetricSet", "Atom", "set_mass", "atom_snapshot", "distance_profile"]


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
