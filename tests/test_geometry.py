"""Symmetric sets, atoms, their snapshots and the eikonal metric.

Dyadic endpoints make interval arithmetic exact in floats, so the growth
and reflection properties can be asserted with zero tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slwave.errors import ConfigurationError
from slwave.geometry import (Atom, SymmetricSet, atom_snapshot, distance_profile,
                             set_mass)
from slwave.grid import GridFunction, build_grid

L = 1.0

dyadic = st.integers(0, 512).map(lambda k: k / 1024.0)


def sym_interval(a, b):
    """Smallest symmetric set containing (a, b)."""
    a, b = min(a, b), max(a, b)
    return SymmetricSet(L, ((a, b), (L - b, L - a)))


@given(dyadic, st.integers(0, 400), st.integers(0, 100))
def test_neighborhood_monotone(x, t1n, dtn):
    """The snapshot of an atom is its metric neighborhood of radius t, so
    it grows with t: every interval at t1 lies in one at t1 + dt."""
    a = Atom(x)
    t1 = t1n / 1024.0
    small = atom_snapshot(a, t1, L)
    big = atom_snapshot(a, t1 + dtn / 1024.0, L)
    for (a0, b0) in small.intervals:
        assert any(a1 <= a0 and b0 <= b1 for (a1, b1) in big.intervals)
    for p in small.points:
        assert any(a1 <= p <= b1 for (a1, b1) in big.intervals) or p in big.points


@given(dyadic, dyadic)
def test_reflection_invariance(a, b):
    if a == b:
        return
    s = sym_interval(a, b)
    refl = tuple(sorted((L - hi, L - lo) for lo, hi in s.intervals))
    assert all(abs(x - y) <= 0.5e-9 for (x, _), (y, _) in zip(refl, s.intervals))


def test_rejects_asymmetric_set():
    with pytest.raises(ConfigurationError):
        SymmetricSet(L, ((0.1, 0.2),))


def test_set_mass_interval_resolved():
    g = build_grid(L, 400)
    u = GridFunction(g, np.ones(g.size, dtype=complex))
    s = sym_interval(0.25, 0.375)
    assert set_mass(u, s) == pytest.approx(0.25, abs=1e-10)


def test_atom_validation():
    with pytest.raises(ConfigurationError):
        Atom(-0.1)
    with pytest.raises(ConfigurationError):
        atom_snapshot(Atom(0.7), 0.1, L)    # beyond l/2
    assert Atom(0.0).x == 0.0    # the boundary atom


def test_atom_snapshot_growth():
    a = Atom(0.25)
    s0 = atom_snapshot(a, 0.0, L)
    assert s0.points == (0.25, 0.75) and s0.intervals == ()
    s = atom_snapshot(a, 0.125, L)
    assert s.intervals == ((0.125, 0.375), (0.625, 0.875))
    # large t merges the two lobes across the midpoint
    s2 = atom_snapshot(a, 0.3, L)
    assert len(s2.intervals) == 1


def test_boundary_atom_snapshot_hugs_endpoints():
    s = atom_snapshot(Atom(0.0), 0.25, L)
    assert s.intervals == ((0.0, 0.25), (0.75, 1.0))


def test_distance_profile_and_eikonal():
    g = build_grid(L, 256)
    a = Atom(0.25)
    d = distance_profile(a, g)
    assert d[int(0.25 * 256)] == 0.0
    assert d[int(0.75 * 256)] == 0.0
    # the eikonal peaks, at 1/4, at the ends and at the midpoint
    assert d[0] == d[128] == d[256] == 0.25 == np.max(d)


def eikonal_distance(a1, a2, g):
    """Grid sup of the difference of two eikonals."""
    return float(np.max(np.abs(distance_profile(a1, g) - distance_profile(a2, g))))


def test_eikonal_metric_axioms_exact():
    """Atoms on grid nodes: the eikonal distance is |x1 - x2| exactly, so
    the metric axioms hold with zero tolerance."""
    g = build_grid(L, 256)
    xs = [k / 1024.0 for k in (0, 128, 200, 384, 512)]
    atoms = [Atom(x) for x in xs]
    tau = {(i, j): eikonal_distance(atoms[i], atoms[j], g)
           for i in range(len(atoms)) for j in range(len(atoms))}
    for i in range(len(atoms)):
        assert tau[(i, i)] == 0.0
        for j in range(len(atoms)):
            assert tau[(i, j)] == tau[(j, i)]
            assert tau[(i, j)] == abs(xs[i] - xs[j])
            for k in range(len(atoms)):
                assert tau[(i, j)] <= tau[(i, k)] + tau[(k, j)]


def test_eikonal_metric_grid_sup_consistency():
    """Atoms off the nodes: the eikonal distance agrees with |x1 - x2|
    within one grid step."""
    g = build_grid(L, 256)
    val = eikonal_distance(Atom(0.13), Atom(0.37), g)
    assert abs(val - 0.24) <= g.h
