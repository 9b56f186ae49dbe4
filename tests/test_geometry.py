"""Symmetric set algebra, atoms and the eikonal metric.

Dyadic endpoints make interval arithmetic exact in floats, so the
semigroup and reflection properties can be asserted with zero tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slwave.errors import ConfigurationError
from slwave.geometry import (Atom, atom_snapshot, boundary_atom, complement,
                             distance_profile, eikonal_apply, eikonal_metric,
                             neighborhood, project_onto, set_mass,
                             symmetric_set)
from slwave.grid import GridFunction, build_grid, quad

L = 1.0

dyadic = st.integers(0, 512).map(lambda k: k / 1024.0)


def sym_interval(a, b):
    """Smallest symmetric set containing (a, b)."""
    a, b = min(a, b), max(a, b)
    return symmetric_set(L, [(a, b), (L - b, L - a)])


@given(dyadic, dyadic, st.integers(1, 200), st.integers(1, 200))
def test_neighborhood_semigroup_exact(a, b, t1n, t2n):
    if a == b:
        return
    t1, t2 = t1n / 1024.0, t2n / 1024.0
    s = sym_interval(a, b)
    lhs = neighborhood(neighborhood(s, t1), t2)
    rhs = neighborhood(s, t1 + t2)
    assert lhs.intervals == rhs.intervals


@given(dyadic, dyadic, st.integers(0, 100))
def test_neighborhood_monotone(a, b, tn):
    if a == b:
        return
    t = tn / 1024.0
    s = sym_interval(a, b)
    big = neighborhood(s, t)
    for (a0, b0) in s.intervals:
        assert any(a1 <= a0 and b0 <= b1 for (a1, b1) in big.intervals)


@given(dyadic, dyadic)
def test_reflection_invariance(a, b):
    if a == b:
        return
    s = sym_interval(a, b)
    refl = tuple(sorted((L - hi, L - lo) for lo, hi in s.intervals))
    assert all(abs(x - y) <= 0.5e-9 for (x, _), (y, _) in zip(refl, s.intervals))


def test_rejects_asymmetric_set():
    with pytest.raises(ConfigurationError):
        symmetric_set(L, [(0.1, 0.2)])


def test_complement_partition_pythagoras():
    g = build_grid(L, 512)
    s = sym_interval(0.125, 0.25)
    u = GridFunction(g, (np.sin(5 * g.x) + 0.3j * g.x).astype(complex))
    pu = project_onto(s, u)
    qu = project_onto(complement(s), u)
    norm2 = quad(GridFunction(g, np.abs(u.values) ** 2 + 0j)).real
    p2 = quad(GridFunction(g, np.abs(pu.values) ** 2 + 0j)).real
    q2 = quad(GridFunction(g, np.abs(qu.values) ** 2 + 0j)).real
    assert abs(p2 + q2 - norm2) <= 1e-10
    # node partition is exact: projections never overlap
    assert np.all((pu.values == 0) | (qu.values == 0))


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
    assert boundary_atom().x == 0.0


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
    s = atom_snapshot(boundary_atom(), 0.25, L)
    assert s.intervals == ((0.0, 0.25), (0.75, 1.0))


def test_distance_profile_and_eikonal():
    g = build_grid(L, 256)
    a = Atom(0.25)
    d = distance_profile(a, g)
    assert d[int(0.25 * 256)] == 0.0
    assert d[int(0.75 * 256)] == 0.0
    u = GridFunction(g, np.ones(g.size, dtype=complex))
    out = eikonal_apply(a, u)
    assert np.array_equal(out.values, d.astype(complex))


def test_eikonal_metric_axioms_exact():
    g = build_grid(L, 256)
    xs = [k / 1024.0 for k in (0, 128, 200, 384, 512)]
    atoms = [Atom(x) for x in xs]
    tau = {(i, j): eikonal_metric(atoms[i], atoms[j], g)
           for i in range(len(atoms)) for j in range(len(atoms))}
    for i in range(len(atoms)):
        assert tau[(i, i)] == 0.0
        for j in range(len(atoms)):
            assert tau[(i, j)] == tau[(j, i)]
            assert tau[(i, j)] == abs(xs[i] - xs[j])
            for k in range(len(atoms)):
                assert tau[(i, j)] <= tau[(i, k)] + tau[(k, j)]


def test_eikonal_metric_grid_sup_consistency():
    g = build_grid(L, 256)
    # non-dyadic atoms still agree with the sup-norm route within h
    val = eikonal_metric(Atom(0.13), Atom(0.37), g)
    assert val == pytest.approx(0.24, abs=1e-15)
