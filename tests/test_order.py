"""Observed orders of accuracy under grid refinement."""

import numpy as np

from slwave.grid import build_grid
from slwave.sturm import dirichlet_eigensystem, potential
from slwave.verify import Workspace, check_fdtd_cross, check_graph_consistency


def test_shooting_converges_at_order_4():
    """q = 0 on [0, pi], ten modes: log2(e_n / e_2n) of
    max |lambda_k / k^2 - 1| lies in [3.9, 4.1] from n = 250 to 2000.
    At n = 4000 the shooting tolerance rel_tol = 1e-10 sets the error's
    floor, so the order there reads 4.69 and is left out."""
    k = np.arange(1, 11, dtype=float)
    errors = []
    for n in (250, 500, 1000, 2000):
        es = dirichlet_eigensystem(potential(build_grid(np.pi, n), 0.0), 10)
        errors.append(float(np.max(np.abs(es.lam / k ** 2 - 1.0))))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((3.9 <= orders) & (orders <= 4.1)), orders


def observed_orders(check, modes, ns):
    """log2(e_n / e_2n) of a verify check's measured value on the pinned
    problem at grid_n = n, one fresh Workspace per n."""
    errors = np.array([check(Workspace(grid_n=n, modes=modes)).measured for n in ns])
    return np.log2(errors[:-1] / errors[1:])


def test_fdtd_cross_check_converges_at_order_2():
    """The leapfrog oracle is second order: at 300 modes the spectral-FDTD
    distance falls with order 2.037 and 2.009 from n = 2000 to 8000."""
    orders = observed_orders(check_fdtd_cross, 300, (2000, 4000, 8000))
    assert np.all((1.9 <= orders) & (orders <= 2.1)), orders


def test_graph_consistency_converges_at_order_4():
    """The differenced derivatives of the graph sample are fourth order: at
    80 modes the residual falls with order 3.965 and 3.989 from n = 500
    to 2000, under one and two BLAS threads alike.  A roundoff floor that
    grows like h^-2 sets in near n = 4000: there it is a few percent of the
    error (order 3.96 from 2000 to 4000, at 150 modes too), and at n = 8000
    the order reads 2.48, so the test stops at 2000."""
    orders = observed_orders(check_graph_consistency, 80, (500, 1000, 2000))
    assert np.all((3.9 <= orders) & (orders <= 4.1)), orders
