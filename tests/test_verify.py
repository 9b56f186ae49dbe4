"""Verification checks against the per-pair certificates they batch."""

import json
import tracemalloc
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest

from slwave import mat2, verify
from slwave.errors import ConfigurationError, NumericalError
from slwave.geometry import distance_profile
from slwave.grid import GridFunction, inner, sample
from slwave.model import hat_value, model_inner


def eikonal_metric(x1, x2, g):
    """Distance |x1 - x2| between two atoms, cross-checked against the
    sup-norm of the eikonal difference on the grid (the per-pair form of
    the eikonal check)."""
    exact = abs(x1 - x2)
    sup = float(np.max(np.abs(distance_profile(x1, g) - distance_profile(x2, g))))
    if abs(sup - exact) > g.h:
        raise NumericalError(
            f"eikonal sup-norm {sup} disagrees with |x1-x2| = {exact} beyond h")
    return exact


def parseval_residual(u, v, gd):
    """|(u, v)_{L2(0,l)} - model_inner(u^, v^)|; the unitary-equivalence
    certificate for one pair."""
    return float(abs(inner(u, v) - model_inner(hat_value(u, gd), hat_value(v, gd), gd)))


def eikonal_per_pair(ws):
    """The eikonal check as one eikonal_metric call per pair and axiom."""
    g = ws.grid
    rng = np.random.default_rng(ws.seed)
    ks = rng.integers(0, 513, size=(10, 2))
    atoms = [(int(k1) / 1024.0 * g.l, int(k2) / 1024.0 * g.l) for k1, k2 in ks]
    measured = 0.0
    for a1, a2 in atoms:
        d = eikonal_metric(a1, a2, g)
        sup = float(np.max(np.abs(distance_profile(a1, g) - distance_profile(a2, g))))
        measured = max(measured, abs(sup - d))
    pool = [a for pair in atoms for a in pair]
    axioms = all(eikonal_metric(a, a, g) == 0.0 for a in pool)
    for a in pool[:6]:
        for b in pool[:6]:
            axioms = axioms and (eikonal_metric(a, b, g) == eikonal_metric(b, a, g))
            for c in pool[:6]:
                axioms = axioms and (eikonal_metric(a, c, g)
                                     <= eikonal_metric(a, b, g) + eikonal_metric(b, c, g))
    return measured, 1.0 if axioms else 0.0


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_eikonal_matrix_matches_per_pair_loop(seed):
    ws = verify.Workspace(seed=seed)
    got = verify.check_eikonal_metric(ws)
    measured, axioms = eikonal_per_pair(ws)
    assert got.passed
    assert got.measured == measured
    assert got.extras["axioms_exact"] == axioms == 1.0


def test_eikonal_fault_fails_the_check(acceptance_ws, monkeypatch):
    """One atom's profile shifted by 2h makes run_all fail eikonal_metric
    and nothing else."""
    calls = []

    def shifted(a, grid):
        calls.append(a)
        prof = distance_profile(a, grid)
        return prof + 2.0 * grid.h if len(calls) == 4 else prof

    monkeypatch.setattr(verify, "distance_profile", shifted)
    report = verify.run_all(acceptance_ws)
    failed = {c.name: c for c in report.checks if not c.passed}
    assert list(failed) == ["eikonal_metric"]
    assert failed["eikonal_metric"].detail.startswith("NumericalError: eikonal sup-norm")
    assert failed["eikonal_metric"].tolerance == acceptance_ws.grid.h
    assert len(calls) == 20


def test_form_limit_neighbourhoods(gauge_zero, monkeypatch):
    """omega_x(t) is the two intervals of radius t about x and l - x, kept
    apart where they meet."""
    omegas = []

    def recorded(u, intervals):
        omegas.append(intervals)
        return set_mass(u, intervals)

    set_mass = verify.set_mass
    monkeypatch.setattr(verify, "set_mass", recorded)
    g = gauge_zero.grid
    u = sample(g, np.ones_like(g.x))
    l = g.l
    radii = (0.08 * l, 0.04 * l, 0.02 * l)

    def pair(a, t):
        return ((a - t, a + t), (l - a - t, l - a + t))

    verify.form_limit_check(u, 0.25 * l, gauge_zero)
    a = 0.47 * l
    verify.form_limit_check(u, a, gauge_zero)
    want = [pair(0.25 * l, t) for t in radii] + [pair(a, t) for t in radii]
    # the masses of u and of e are taken over the same set
    assert omegas[::2] == omegas[1::2] == want


def test_form_limit_near_the_midpoint(coarse_ws):
    """At x = 0.47 l the radius-t intervals about x and l - x overlap for
    t = 0.08 l and 0.04 l; their masses summed apart keep the Richardson
    limit inside the check's 1e-4 tolerance (a merged interval read
    5.2e-4 at grid 400)."""
    g = coarse_ws.grid
    rep = verify.form_limit_check(sample(g, np.ones_like(g.x)), 0.47 * g.l,
                                  coarse_ws.gauge("zero"))
    assert rep.deviation <= 1e-4 and rep.monotone


@pytest.mark.parametrize("frac", [0.55, 0.9, -0.1])
def test_form_limit_refuses_x_past_the_midpoint_first(coarse_ws, monkeypatch, frac):
    """x outside [0, l/2] is refused before any mass is taken."""
    def refuse(*_):
        raise AssertionError("set_mass called")

    monkeypatch.setattr(verify, "set_mass", refuse)
    g = coarse_ws.grid
    with pytest.raises(ConfigurationError, match=r"\[0, l/2\]"):
        verify.form_limit_check(sample(g, np.ones_like(g.x)), frac * g.l,
                                coarse_ws.gauge("zero"))


def test_parseval_equals_pairwise_certificate(acceptance_ws):
    """The batched check is exactly the max of parseval_residual over the
    15 pairs of its battery."""
    ws = acceptance_ws
    es = ws.eigensystem("cosine")
    gd = ws.gauge("cosine")
    g = ws.grid
    battery = [es.eigenfunction(0), es.eigenfunction(1),
               sample(g, np.ones_like(g.x)),
               sample(g, g.x * (g.l - g.x)),
               gd.e.as_grid_function(g)]
    want = max(parseval_residual(battery[i], battery[j], gd)
               for i, j in combinations_with_replacement(range(len(battery)), 2))
    assert verify.check_parseval(ws).measured == want


def test_parseval_forms_gram_inverse_once():
    """The 15 inner products of check_parseval share one G^{-1}."""
    calls = []

    def counted(A, det=None):
        calls.append(A)
        return inv2(A, det)

    inv2 = mat2.inv2
    ws = verify.Workspace(grid_n=400, modes=60)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mat2, "inv2", counted)
        verify.check_parseval(ws)
    assert len(calls) == 1 and calls[0] is ws.gauge("cosine").G


def test_checks_take_tolerance_and_sense_from_the_table(acceptance_ws):
    """Every check reports the tolerance and sense of its _CHECKS entry;
    eikonal_metric's tolerance is the grid step."""
    report = verify.run_all(acceptance_ws)
    for check, (name, tol, sense, _) in zip(report.checks, verify._CHECKS):
        assert check.name == name and check.sense == sense
        assert check.tolerance == (acceptance_ws.grid.h if tol is None else tol)


def test_smooth_from_samples_orders(q_zero):
    g = q_zero.grid
    u = GridFunction(g, np.sin(3 * g.x).astype(complex))
    sm = verify.smooth_from_samples(u)
    assert np.max(np.abs(sm.d1 - 3 * np.cos(3 * g.x))) <= 1e-9
    assert np.max(np.abs(sm.d2 + 9 * np.sin(3 * g.x))) <= 1e-7


class RecordingWorkspace(verify.Workspace):
    """A Workspace that logs every build and, after every request, the
    potentials whose artifacts it holds."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.builds, self.held = [], []

    def _memo(self, kind, key, build):
        def logged():
            self.builds.append((kind, key))
            return build()

        value = super()._memo(kind, key, logged)
        self.held.append({k for _, k in self._built})
        return value


def test_workspace_holds_one_potential():
    """Building an artifact of another potential drops those of the held
    one; a repeated request returns the held object without a rebuild."""
    ws = RecordingWorkspace(grid_n=400, modes=60)
    gd = ws.gauge("zero")
    assert ws.gauge("zero") is gd
    kb = ws.kernel("one")
    assert set(ws._built) == {("potential", "one"), ("kernel", "one")}
    assert ws.kernel("one") is kb
    assert ws.builds == [("gauge", "zero"), ("kernel", "zero"), ("potential", "zero"),
                         ("kernel", "one"), ("potential", "one")]


@pytest.fixture(scope="module")
def fresh_run():
    """run_all on a fresh pinned RecordingWorkspace at seed 0, under
    tracemalloc."""
    ws = RecordingWorkspace(grid_n=2000, modes=300, seed=0)
    tracemalloc.start()
    try:
        report = verify.run_all(ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return SimpleNamespace(ws=ws, report=report, peak=peak)


def in_check_order(ws):
    """The twelve checks run one by one in CHECK_NAMES order."""
    return json.dumps([verify._run_check(ws, entry).to_dict() for entry in verify._CHECKS])


def test_run_all_reports_the_checks_in_order_at_seed_0(fresh_run, acceptance_ws):
    assert json.dumps(fresh_run.report.to_dict()["checks"]) == in_check_order(acceptance_ws)


@pytest.mark.parametrize("seed, eps", [(7, 0.0), (0, 1e-10)])
def test_run_all_reports_the_checks_in_order(seed, eps):
    """Run in _RUN_ORDER on a Workspace that holds one potential at a
    time, run_all reports what the checks give one by one in CHECK_NAMES
    order, bit for bit."""
    got = verify.run_all(verify.Workspace(seed=seed, t_perturbation=eps)).to_dict()
    assert json.dumps(got["checks"]) == in_check_order(
        verify.Workspace(seed=seed, t_perturbation=eps))


def test_run_all_builds_once_and_holds_one_eigensystem(fresh_run):
    """Twelve artifacts are built, none twice; after every request the
    Workspace holds the artifacts of one potential, and it ends holding
    the cosine pipeline."""
    builds = fresh_run.ws.builds
    assert len(builds) == len(set(builds)) == 12
    assert all(len(held) == 1 for held in fresh_run.ws.held)
    assert set(fresh_run.ws._built) == {
        (kind, "cosine") for kind in ("potential", "eigensystem", "kernel", "gauge",
                                      "coefficients")}


def test_run_all_peak_memory(fresh_run):
    """Holding one pipeline at a time keeps the traced peak of a fresh
    run_all near one eigensystem build (about 9 MB; 15 MB when every
    artifact was held to the end)."""
    assert fresh_run.peak <= 11e6
