"""Tests of the benchmark itself: generator, span arithmetic, speed probe,
metric names.

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import problems
import speed
import tracing
import worker
from slwave.analytic import parse_expression

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


@pytest.mark.parametrize("seed", range(0, 400, 7))
def test_generator_yields_admissible_problems(seed):
    x = np.linspace(0.0, problems.L, 4001)
    for p in [problems.reference()] + problems.generate(seed, 3):
        q = p.q
        assert 1.5 <= q.c <= 4.0 or p.index < 0
        # oscillating amplitudes below c: q > 0, so lambda_1 > 0 and zero
        # is never a Dirichlet eigenvalue
        assert abs(q.a) + abs(q.b) + abs(q.bump.amp) < 0.91 * q.c
        assert q.lower_bound() > 0.0
        assert np.min(q(x)) >= q.lower_bound() - 1e-12
        # the config string the program parses is the function checked against
        assert np.max(np.abs(parse_expression(q.expr())(x) - q(x))) < 1e-10
        for f in (p.f0, p.fl):
            assert f.center - 0.5 * f.width >= 0.02 * problems.L - 1e-4
            jet = parse_expression(f.expr())
            assert all(float(jet.deriv(np.zeros(1), k)[0]) == 0.0 for k in range(3))
        t = np.asarray(p.times)
        assert t.size == problems.SNAPSHOTS and t[-1] == problems.L
        assert np.all(np.diff(t) > 0.0) and t[0] > 0.0
        assert problems.TABLE_MODES[0] <= p.modes <= problems.TABLE_MODES[1]
        assert problems.GRID_N >= 6 * problems.WAVE_MODES


def test_table_pairs_share_one_mode_total():
    for seed in range(50):
        a, b = problems.generate(seed, 2)
        assert a.modes + b.modes == sum(problems.TABLE_MODES)


def test_generator_is_a_function_of_the_seed():
    assert [p.record() for p in problems.generate(5, 3)] == \
        [p.record() for p in problems.generate(5, 3)]
    assert problems.generate(5, 1)[0].q != problems.generate(6, 1)[0].q


def test_self_time_on_a_synthetic_span_tree():
    # cli.main [0, 10] -> sturm.a [1, 4] -> grid.b [2, 3]
    #                  -> sturm.a [5, 9]  (second call, no children)
    # verify.w [10, 14] -> verify.w [11, 12] (nested lazy build)
    spans = [["cli.main", 0.0, 10.0, -1], ["sturm.a", 1.0, 4.0, 0],
             ["grid.b", 2.0, 3.0, 1], ["sturm.a", 5.0, 9.0, 0],
             ["verify.w", 10.0, 14.0, -1], ["verify.w", 11.0, 12.0, 4]]
    busy, self_t = tracing.busy_and_self(spans)
    assert busy == {"cli.main": 10.0, "sturm.a": 7.0, "grid.b": 1.0, "verify.w": 4.0}
    assert self_t == {"cli.main": 3.0, "sturm.a": 6.0, "grid.b": 1.0, "verify.w": 4.0}
    assert sum(self_t.values()) == tracing.root_time(spans) == 14.0
    assert tracing.span_problems(spans, 14.0) == []


def test_span_problems_catch_broken_trees():
    ok = [["cli.main", 0.0, 10.0, -1], ["sturm.a", 1.0, 4.0, 0]]
    assert tracing.span_problems(ok, 10.05) == []
    # a child longer than its parent: negative self time
    child_overruns = [["cli.main", 0.0, 10.0, -1], ["sturm.a", 1.0, 12.0, 0]]
    assert tracing.span_problems(child_overruns, 10.0) == ["cli.main: self time -1.000e+00 s"]
    # top-level spans longer than the pass itself
    assert tracing.span_problems(ok, 9.0) == \
        ["top-level spans exceed the wall time by 1.000e+00 s"]
    # most of the pass left untraced
    assert tracing.span_problems(ok, 20.0) == \
        ["untraced remainder 1.000e+01 s of a 2.000e+01 s pass"]


def test_accuracy_drift_against_reference_values():
    ref = {"verify:ref": {"fdtd_l2": 1e-4, "parseval_res": 2.2e-16}}
    same = {"verify:ref": {"fdtd_l2": 1e-4, "parseval_res": 2.2e-16}}
    assert worker.accuracy_drift(same, ref) == 1.0
    # growth of a value far above its floor shows in full
    grown = {"verify:ref": {"fdtd_l2": 1.2e-4, "parseval_res": 2.2e-16}}
    assert worker.accuracy_drift(grown, ref) == pytest.approx(1.2)
    # a roundoff-level value that doubles stays under its floor
    roundoff = {"verify:ref": {"fdtd_l2": 1e-4, "parseval_res": 4.4e-16}}
    assert worker.accuracy_drift(roundoff, ref) == 1.0
    # improvements read below 1
    assert worker.accuracy_drift({"verify:ref": {"fdtd_l2": 5e-5}}, ref) == pytest.approx(0.5)


def test_reference_values_cover_the_pinned_commands():
    ref = json.loads(worker.REFERENCE_VALUES.read_text())
    assert sorted(ref) == ["tables", "verify", "waves"]
    for workload in ref.values():
        for label, values in workload.items():
            assert label.endswith(":ref") and values
            assert set(values) <= set(worker.ACCURACY)


def test_recorder_wraps_and_restores():
    rec = tracing.Recorder(clock=iter(range(100)).__next__)
    inner = rec.wrap("grid.inner", lambda v: v + 1)
    outer = rec.wrap("sturm.outer", lambda v: inner(v) * 2)
    assert outer(1) == 4
    assert rec.spans == [["sturm.outer", 0, 3, -1], ["grid.inner", 1, 2, 0]]

    from slwave import cli, sturm
    before = (sturm.kernel_basis, cli.kernel_basis, dict(cli._COMMANDS))
    undo = tracing.install(tracing.Recorder())
    assert cli.kernel_basis is not before[1] and sturm.kernel_basis is not before[0]
    tracing.uninstall(undo)
    assert (sturm.kernel_basis, cli.kernel_basis, dict(cli._COMMANDS)) == before


def test_speed_rescale_arithmetic():
    ref_p = speed.REF_PROBE_S
    # 0.2 s at the reference speed, then a probe at half of it, whose
    # speed also holds for the stretches up to the end of the pass
    work, ref = speed.rescale(0.0, 1.0, [(0.2, ref_p), (0.6, 2.0 * ref_p)])
    assert work == pytest.approx(1.0 - 3.0 * ref_p)
    assert ref == pytest.approx(0.2 + 0.5 * (0.8 - 3.0 * ref_p))
    assert speed.rescale(2.0, 2.5, []) == (0.5, 0.5)


def test_sampler_probes_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as s:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
    assert len(s.probes) >= 3 and all(s.begin < t < s.end and d > 0.0 for t, d in s.probes)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gc.isenabled()


def test_metric_names_and_declaration():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_layers = [m["name"] for m in spec["per_layer"]]
    assert declared_layers == worker.per_layer_names()
    names = [m["name"] for m in spec["end_to_end"]] + declared_layers
    names += list(worker.ACCURACY) + ["fail_share"]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert all(UNIT.fullmatch(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == {"verify", "waves", "tables"}
