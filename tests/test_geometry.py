"""The eikonal metric of atoms.

An atom is a float x in [0, l/2], standing for the point pair {x, l - x}.
Dyadic positions make distances exact in floats, so the metric axioms
can be asserted with zero tolerance.
"""

import numpy as np

from slwave.geometry import distance_profile
from slwave.grid import build_grid

L = 1.0


def test_distance_profile_and_eikonal():
    g = build_grid(L, 256)
    d = distance_profile(0.25, g)
    assert d[int(0.25 * 256)] == 0.0
    assert d[int(0.75 * 256)] == 0.0
    # the eikonal peaks, at 1/4, at the ends and at the midpoint
    assert d[0] == d[128] == d[256] == 0.25 == np.max(d)


def test_boundary_atom_profile_is_distance_to_the_boundary():
    g = build_grid(L, 256)
    assert np.array_equal(distance_profile(0.0, g), np.minimum(g.x, L - g.x))


def eikonal_distance(x1, x2, g):
    """Grid sup of the difference of two eikonals."""
    return float(np.max(np.abs(distance_profile(x1, g) - distance_profile(x2, g))))


def test_eikonal_metric_axioms_exact():
    """Atoms on grid nodes: the eikonal distance is |x1 - x2| exactly, so
    the metric axioms hold with zero tolerance."""
    g = build_grid(L, 256)
    xs = [k / 1024.0 for k in (0, 128, 200, 384, 512)]
    tau = {(i, j): eikonal_distance(xs[i], xs[j], g)
           for i in range(len(xs)) for j in range(len(xs))}
    for i in range(len(xs)):
        assert tau[(i, i)] == 0.0
        for j in range(len(xs)):
            assert tau[(i, j)] == tau[(j, i)]
            assert tau[(i, j)] == abs(xs[i] - xs[j])
            for k in range(len(xs)):
                assert tau[(i, j)] <= tau[(i, k)] + tau[(k, j)]


def test_eikonal_metric_grid_sup_consistency():
    """Atoms off the nodes: the eikonal distance agrees with |x1 - x2|
    within one grid step."""
    g = build_grid(L, 256)
    val = eikonal_distance(0.13, 0.37, g)
    assert abs(val - 0.24) <= g.h
