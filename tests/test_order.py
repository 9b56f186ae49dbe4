"""Observed orders of accuracy under grid refinement."""

import numpy as np

from slwave.grid import build_grid
from slwave.sturm import dirichlet_eigensystem, potential


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
