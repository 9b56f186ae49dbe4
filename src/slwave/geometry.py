"""The eikonal of a wave-spectrum atom.

An atom is a number x in [0, l/2], standing for the point pair {x, l - x};
x = 0 is the boundary atom.  distance_profile samples the eikonal, the
distance to an atom's point pair, on the grid; the masses over an atom's
neighbourhoods live in verify (union_masses), next to their one check.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid

__all__ = ["distance_profile"]


def distance_profile(x: float, grid: Grid) -> np.ndarray:
    """Distance from each node to the point pair {x, l-x} of the atom x."""
    return np.minimum(np.abs(grid.x - x), np.abs(grid.x - (grid.l - x)))
