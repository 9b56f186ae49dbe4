"""Shared fixtures: the expensive spectral objects are built once per session.

Two scales are used throughout.  The coarse scale (n=400, 60 modes) keeps
unit tests fast; the full scale (n=2000, 300 modes) is what the acceptance
tolerances are calibrated against and is shared with test_acceptance via
the `acceptance_ws` fixture.  A Workspace holds one potential's artifacts
at a time, so `acceptance_ws` rebuilds them when consecutive tests switch
potentials.
"""

import numpy as np
import pytest
from hypothesis import settings

from slwave.analytic import Const, parse_expression
from slwave.grid import build_grid
from slwave.model import default_gauge
from slwave.sturm import dirichlet_eigensystem, kernel_basis, potential
from slwave.verify import Workspace

settings.register_profile("slwave", deadline=None, max_examples=25)
settings.load_profile("slwave")

Q_COSINE = "2 + cos(3)"

# collected by test_acceptance, printed by pytest_terminal_summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_ws():
    return Workspace(grid_n=2000, modes=300, seed=0)


@pytest.fixture(scope="session")
def coarse_ws():
    return Workspace(grid_n=400, modes=60, seed=0)


@pytest.fixture(scope="session")
def grid_fine():
    return build_grid(1.0, 2000)


@pytest.fixture(scope="session")
def q_zero(grid_fine):
    return potential(grid_fine, Const(0.0))


@pytest.fixture(scope="session")
def q_cosine(grid_fine):
    return potential(grid_fine, parse_expression(Q_COSINE))


@pytest.fixture(scope="session")
def es_zero(q_zero):
    return dirichlet_eigensystem(q_zero, 200)


@pytest.fixture(scope="session")
def kb_zero(q_zero):
    return kernel_basis(q_zero)


@pytest.fixture(scope="session")
def gauge_zero(kb_zero):
    return default_gauge(kb_zero)


@pytest.fixture(scope="session")
def example_gauge():
    """q=0 frame e1 = 1, e2 = x, e = 1 on a grid hitting x=0.25 exactly.

    In the kernel-basis coordinates (phi0, phil) = (x, x-1) these are the
    coefficient pairs (1,-1), (1,0) and (1,-1).
    """
    g = build_grid(1.0, 400)
    kb = kernel_basis(potential(g, Const(0.0)))
    return default_gauge(kb, e=(1.0, -1.0), e1=(1.0, -1.0), e2=(1.0, 0.0))
