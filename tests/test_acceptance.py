"""Acceptance gate: the twelve verification checks at the pinned scale.

Each test runs one check against the shared full-size workspace, records a
one-line PASS/FAIL verdict (printed in the terminal summary), and asserts
the check outcome.  The first three carry wall-clock budgets; timing is
measured around the check call itself.  The workspace is shared across the
module but holds one potential's artifacts at a time, so a test that
switches potential (05, 06, 11 and 12 here) pays for that potential's
build again.
"""

import time

from conftest import ACCEPTANCE_LINES
from slwave import verify


def _run(ws, fn, budget=None):
    t0 = time.perf_counter()
    c = fn(ws)
    dt = time.perf_counter() - t0
    ok = bool(c.passed) and (budget is None or dt <= budget)
    ACCEPTANCE_LINES.append(
        f"{'PASS' if ok else 'FAIL'} {c.name}: measured {c.measured:.3e} "
        f"{c.sense} {c.tolerance:.3e}  [{dt:.2f}s]")
    return c, dt, ok


def test_01_dirichlet_spectrum(acceptance_ws):
    c, dt, ok = _run(acceptance_ws, verify.check_dirichlet_spectrum, budget=5.0)
    assert ok, f"measured {c.measured:.3e}, {dt:.2f}s"


def test_02_dalembert_wave(acceptance_ws):
    c, dt, ok = _run(acceptance_ws, verify.check_dalembert_wave, budget=10.0)
    assert ok, f"measured {c.measured:.3e}, {dt:.2f}s"


def test_03_fdtd_cross_check(acceptance_ws):
    c, dt, ok = _run(acceptance_ws, verify.check_fdtd_cross, budget=30.0)
    assert ok, f"measured {c.measured:.3e}, {dt:.2f}s"


def test_04_finite_speed(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_finite_speed)
    assert ok, f"measured {c.measured:.3e}"


def test_05_reachable_span(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_reachable_span)
    assert ok, f"measured {c.measured:.3e}"


def test_06_gauge_identities(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_gauge_identities)
    assert ok, f"worst residual ratio {c.measured:.3e}"
    for key, val in c.extras.items():
        cap = 1e-12 if "assembly" in key else 1e-10
        assert val <= cap, f"{key}={val:.3e}"


def test_07_parseval(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_parseval)
    assert ok, f"measured {c.measured:.3e}"


def test_08_intertwining(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_intertwining)
    assert ok, f"measured {c.measured:.3e}"
    assert c.extras["kernel_element"] <= 1e-8


def test_09_eikonal_metric(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_eikonal_metric)
    assert ok, f"measured {c.measured:.3e} vs h={c.tolerance:.3e}"
    assert c.extras["axioms_exact"] == 1.0
    assert c.measured == 2.7755575615628914e-17


def test_10_potential_recovery(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_potential_recovery)
    assert ok, f"analytic branch error {c.measured:.3e}"
    assert c.extras["observer_error"] <= 1e-3


def test_11_form_limit(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_form_limit)
    assert ok, f"worst deviation {c.measured:.3e}"
    assert abs(c.extras["target_x0.25"] - 1.6) <= 1e-9
    assert c.extras == {"deviation_x0.1": 5.150508624041095e-07,
                        "deviation_x0.25": 1.1626033773470823e-06,
                        "target_x0.1": 1.2195121951220682,
                        "target_x0.25": 1.6000000000001042}


def test_12_graph_consistency(acceptance_ws):
    c, _, ok = _run(acceptance_ws, verify.check_graph_consistency)
    assert ok, f"measured {c.measured:.3e}"
