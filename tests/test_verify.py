"""Verification checks against the per-pair certificates they batch."""

import json
import tracemalloc
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np
import pytest

from slwave import grid as grid_module
from slwave import errors, mat2, verify
from slwave.errors import ConfigurationError, NumericalError
from slwave.geometry import distance_profile
from slwave.grid import GridFunction, build_grid, inner, interp_cubic, sample, simpson_sum
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


def set_mass(u, intervals):
    """The per-interval mass that union_masses replaced: one cubic stencil
    and one Simpson sum per interval, summed in interval order."""
    g = u.grid
    total = 0.0
    for a, b in intervals:
        a = max(0.0, a)
        b = min(g.l, b)
        if b <= a:
            continue
        m = max(32, 2 * int(np.ceil((b - a) / g.h)))
        xs = np.linspace(a, b, m + 1)
        dens = np.abs(interp_cubic(u, xs)) ** 2
        total += float(simpson_sum(dens, (b - a) / m).real)
    return total


def atom_unions(x, l):
    return [((x - t, x + t), (l - x - t, l - x + t)) for t in (0.08 * l, 0.04 * l, 0.02 * l)]


UNIONS = {
    "acceptance atoms": atom_unions(0.1, 1.0) + atom_unions(0.25, 1.0),
    "overlapping, x = 0.47 l": atom_unions(0.47, 1.0),
    "three or four intervals": [((0.1, 0.3), (0.35, 0.6), (0.62, 0.97)),
                                ((0.05, 0.2), (0.5, 0.55), (0.3, 0.71), (0.9, 0.93))],
    "clipped": [((-0.5, 0.125), (1.5, 2.0)), ((0.9, 1.3), (-0.2, 0.01))],
    "empty": [(), ((0.3, 0.3),), ((0.6, 0.2), (1.0, 1.5))],
    "boundary-touching": [((0.0, 0.08), (0.92, 1.0)), atom_unions(0.08, 1.0)[0],
                          ((0.0, 1.0),)],
}


@pytest.mark.parametrize("n", [400, 2000])
def test_union_masses_match_per_interval_set_mass(n, gauge_zero, coarse_ws):
    """Every mass equals the per-interval reference bit for bit, for u = 1,
    a complex u and the gauge element e, one call per kind of union set
    and one call over all of them."""
    gd = gauge_zero if n == 2000 else coarse_ws.gauge("zero")
    g = gd.grid
    fs = (sample(g, np.ones_like(g.x)), sample(g, lambda x: np.exp(2j * x) + x ** 3),
          gd.e.as_grid_function(g))
    every = [union for unions in UNIONS.values() for union in unions]
    for unions in (*UNIONS.values(), every):
        got = verify.union_masses(fs, unions)
        want = [[set_mass(f, union) for union in unions] for f in fs]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_union_masses_interval_resolved():
    g = build_grid(1.0, 400)
    u = GridFunction(g, np.ones(g.size, dtype=complex))
    [[mass]] = verify.union_masses((u,), [((0.25, 0.375), (0.625, 0.75))])
    assert mass == pytest.approx(0.25, abs=1e-10)


def test_union_masses_clip_to_the_interval():
    """Parts of an interval outside [0, l] carry no mass, and an interval
    that is empty after clipping is skipped."""
    g = build_grid(1.0, 400)
    u = GridFunction(g, np.ones(g.size, dtype=complex))
    [[clipped, empty]] = verify.union_masses((u,), [((-0.5, 0.125), (1.5, 2.0)), ()])
    assert clipped == pytest.approx(0.125, abs=1e-10)
    assert empty == 0.0
    assert verify.union_masses((u,), []) == [[]]


def test_check_form_limit_builds_six_stencils(coarse_ws, monkeypatch):
    """The masses of one atom come from one cubic stencil, and a boundary
    form from two (u at x and l - x, rho at x): six for the check's two
    atoms, where a stencil per interval and per point made 34."""
    coarse_ws.gauge("zero")
    built = []
    stencil = grid_module._cubic_stencil

    def counted(*args):
        built.append(args[0].shape)
        return stencil(*args)

    monkeypatch.setattr(grid_module, "_cubic_stencil", counted)
    monkeypatch.setattr(verify, "_cubic_stencil", counted)
    assert verify.check_form_limit(coarse_ws).passed
    assert len(built) <= 6


def test_form_limit_neighbourhoods(gauge_zero, monkeypatch):
    """omega_x(t) is the two intervals of radius t about x and l - x, kept
    apart where they meet."""
    omegas = []

    def recorded(fs, unions):
        omegas.append(unions)
        return union_masses(fs, unions)

    union_masses = verify.union_masses
    monkeypatch.setattr(verify, "union_masses", recorded)
    g = gauge_zero.grid
    u = sample(g, np.ones_like(g.x))
    l = g.l
    radii = (0.08 * l, 0.04 * l, 0.02 * l)

    def pair(a, t):
        return ((a - t, a + t), (l - a - t, l - a + t))

    verify.form_limit_check(u, 0.25 * l, gauge_zero)
    a = 0.47 * l
    verify.form_limit_check(u, a, gauge_zero)
    want = [[pair(0.25 * l, t) for t in radii], [pair(a, t) for t in radii]]
    # the masses of u and of e are taken over the same sets, in one call
    assert omegas == want


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
        raise AssertionError("union_masses called")

    monkeypatch.setattr(verify, "union_masses", refuse)
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


@pytest.mark.parametrize("eps, fails", [
    (1e-10, {"gauge_identities"}),
    (1e-8, {"gauge_identities"}),
    (1e-6, {"gauge_identities", "parseval"}),
])
def test_t_fault_fails_checks_by_measurement(eps, fails):
    """A T scaled by 1 + eps fails exactly the tabled checks, each by a
    finite measured value past its tolerance, never by an exception:
    gauge_identities reads 1.055e12 eps and parseval 2 eps.  P^ and Q^
    are invariant under the scaling, so intertwining, graph consistency
    and recovery pass, and the spectrum never reads T."""
    checks = {c.name: c for c in verify.run_all(verify.Workspace(t_perturbation=eps)).checks}
    assert {name for name, c in checks.items() if not c.passed} == fails
    for name in fails:
        c = checks[name]
        assert np.isfinite(c.measured) and c.measured < verify._FAILED_SENTINEL
        assert not any(c.detail.startswith(f"{exc}:") for exc in errors.__dict__
                       if exc.endswith(("Error", "Failure")))
    assert checks["gauge_identities"].measured == pytest.approx(1.055e12 * eps, rel=0.05)
    assert checks["parseval"].measured == pytest.approx(2.0 * eps, rel=0.05)
    for name in ("intertwining", "graph_consistency", "potential_recovery",
                 "dirichlet_spectrum"):
        assert checks[name].passed


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
