"""The mass of a function over intervals of (0, l), and the eikonal of a
wave-spectrum atom.

An atom is a number x in [0, l/2], standing for the point pair {x, l - x};
x = 0 is the boundary atom.  set_mass integrates |u|^2 over a union of
intervals; distance_profile samples the eikonal, the distance to an
atom's point pair, on the grid.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction, interp_cubic, simpson_sum

__all__ = ["set_mass", "distance_profile"]


def set_mass(u: GridFunction, intervals) -> float:
    """Sum of the L2 masses of u over the intervals (a, b) of `intervals`
    (an overlap counts once per interval), by interval-resolved quadrature.

    Each interval is clipped to [0, l], resampled with cubic interpolation
    and integrated by Simpson, so endpoint cells are not smeared to node
    resolution.
    """
    g = u.grid
    total = 0.0
    for a, b in intervals:
        a = max(0.0, a)
        b = min(g.l, b)
        if b <= a:
            continue
        m = max(32, 2 * int(np.ceil((b - a) / g.h)))
        xs = np.linspace(a, b, m + 1)
        vals = interp_cubic(u, xs)
        dens = np.abs(vals) ** 2
        total += float(simpson_sum(dens, (b - a) / m).real)
    return total


def distance_profile(x: float, grid: Grid) -> np.ndarray:
    """Distance from each node to the point pair {x, l-x} of the atom x."""
    return np.minimum(np.abs(grid.x - x), np.abs(grid.x - (grid.l - x)))
