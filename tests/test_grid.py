"""Quadrature, differencing and table round-trips on the uniform grid."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slwave.analytic import Const
from slwave.control import _probe_matrix
from slwave.errors import ConfigurationError
from slwave.grid import (GridFunction, build_grid, diff_samples, format_column,
                         inner, interp_cubic, quad, sample, simpson_sum,
                         write_table)
from slwave.model import boundary_form, default_gauge
from slwave.sturm import kernel_basis, potential


def f_of(grid, fn):
    return GridFunction(grid, fn(grid.x).astype(complex))


def test_build_grid_contract():
    g = build_grid(1.0, 8)
    assert g.n == 8 and g.x[0] == 0.0 and g.x[-1] == 1.0
    assert np.allclose(np.diff(g.x), g.h)
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 7)          # odd
    with pytest.raises(ConfigurationError):
        build_grid(1.0, 4)          # below minimum
    with pytest.raises(ConfigurationError):
        build_grid(-1.0, 100)


def test_quad_linear_exact():
    g = build_grid(1.0, 100)
    assert abs(quad(f_of(g, lambda x: x)) - 0.5) <= 1e-12


def test_quad_sine():
    g = build_grid(1.0, 100)
    val = quad(f_of(g, lambda x: np.sin(np.pi * x)))
    assert abs(val - 2.0 / np.pi) <= 1e-8


def test_quad_three_eighths_tail():
    # odd subinterval count exercises the 3/8 tail; quartic stays exact-ish
    g = build_grid(1.0, 102)
    sub = GridFunction(build_grid(1.0, 102), (g.x ** 3).astype(complex))
    assert abs(quad(sub) - 0.25) <= 1e-12


def test_simpson_sum_keeps_longdouble():
    g = build_grid(1.0, 100)
    x = np.linspace(np.longdouble(0), np.longdouble(1), 101)
    val = simpson_sum(x ** 3, np.longdouble(1) / 100)
    assert val.dtype == np.longdouble
    assert abs(val - np.longdouble(0.25)) <= 4 * np.finfo(np.longdouble).eps
    assert simpson_sum(g.x ** 3, g.h) == pytest.approx(quad(f_of(g, lambda x: x ** 3)).real,
                                                       abs=1e-15)


@pytest.mark.parametrize("samples", [5, 6, 7, 8, 9])
def test_simpson_sum_exact_on_cubics(samples):
    """Simpson and its 3/8 tail integrate cubics exactly from 5 samples on,
    6 included (two Simpson cells and one 3/8 block)."""
    x = np.linspace(0.0, 1.0, samples)
    val = simpson_sum(2.0 * x ** 3 - x ** 2 + 0.5, 1.0 / (samples - 1))
    assert abs(val - (0.5 - 1.0 / 3.0 + 0.5)) <= 1e-14


def test_diff_quadratic_first_order():
    g = build_grid(1.0, 50)
    d = diff_samples((g.x ** 2).astype(complex), g.h, order=1)
    assert np.max(np.abs(d - 2 * g.x)) <= 1e-10


def test_diff_quadratic_second_order():
    g = build_grid(1.0, 50)
    d = diff_samples((g.x ** 2).astype(complex), g.h, order=2)
    assert np.max(np.abs(d - 2.0)) <= 1e-8


def test_diff_sine_taylor_bound():
    g = build_grid(1.0, 200)
    d = diff_samples(np.sin(g.x).astype(complex), g.h, order=2)
    assert np.max(np.abs(d + np.sin(g.x))) <= 3 * g.h ** 2


def test_diff_order4_convergence():
    errs = []
    for n in (100, 200):
        g = build_grid(1.0, n)
        d = diff_samples(np.sin(3 * g.x).astype(complex), g.h, order=1)
        errs.append(np.max(np.abs(d - 3 * np.cos(3 * g.x))))
    rate = np.log2(errs[0] / errs[1])
    assert rate > 3.7


def test_inner_conjugate_symmetry():
    g = build_grid(1.0, 60)
    u = f_of(g, lambda x: np.exp(1j * x))
    v = f_of(g, lambda x: x * (1 - x) + 0j)
    assert abs(inner(u, v) - np.conj(inner(v, u))) <= 1e-14


def test_sample_matches_closed_form():
    g = build_grid(2.0, 40)
    gf = sample(g, lambda x: x ** 2)
    assert np.allclose(gf.values, g.x ** 2)


def cubic(x):
    return x ** 3 - x + 2.0


def interp_on_grid(g, xq):
    return interp_cubic(GridFunction(g, cubic(g.x).astype(complex)), xq)


def interp_by_probe_matrix(g, xq):
    """The rows reachable_span_estimate applies to the wave snapshots."""
    return _probe_matrix(g, xq) @ cubic(g.x)


def interp_on_half_grid(g, xq):
    """boundary_form of u = v = 1 is 2 / rho(x), rho interpolated on the
    half grid in longdouble; give the gauge a cubic rho."""
    gd = default_gauge(kernel_basis(potential(g, Const(0.0))))
    gd = dataclasses.replace(gd, rho=cubic(gd.half_x))
    one = GridFunction(g, np.ones(g.size))
    return np.array([2.0 / boundary_form(one, one, x, gd).real for x in xq])


def test_interp_cubic_reproduces_cubics():
    """Every caller of the one cubic stencil reproduces a cubic, in the
    clipped first and last cells and at the last node too (l, or l/2 on
    the half grid)."""
    g = build_grid(1.0, 40)
    for route, end in ((interp_on_grid, 1.0), (interp_by_probe_matrix, 1.0),
                       (interp_on_half_grid, 0.5)):
        xq = np.array([0.0, 0.3 * g.h, 0.111, 0.3 * end, end - 0.4 * g.h, end])
        err = np.max(np.abs(route(g, xq) - cubic(xq)))
        assert err <= 1e-13, route.__name__


def test_csv_round_trip(tmp_path):
    """%.17g cells read back to the same floats, bit for bit."""
    g = build_grid(1.0, 24)
    gf = GridFunction(g, np.exp(1j * g.x) / 3.0)
    p = tmp_path / "f.csv"
    write_table(p, ["x", "re", "im"], [[g.x, gf.values.real, gf.values.imag]])
    back = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 1] + 1j * back[:, 2], gf.values)
    assert np.array_equal(back[:, 0], g.x)


def oracle_table(header, blocks) -> str:
    """Per-value row loop: what write_table must reproduce byte for byte."""
    lines = [",".join(header)]
    for block in blocks:
        for row in zip(*block):
            lines.append(",".join(v if isinstance(v, str) else "%.17g" % float(v)
                                  for v in row))
    return "\n".join(lines) + "\n"


def assert_same_text(got: str, want: str):
    # no pytest string diff: it takes minutes on tables of thousands of lines
    same = got == want
    first = next((i for i, (a, b) in enumerate(zip(got.split("\n"), want.split("\n")))
                  if a != b), None)
    assert same, f"texts differ, first at line {first}"


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0,
                    -3.0, 2.0 ** 53, 1e16, 0.1, -0.0, 0.0, 1.0, 1 / 3])


def test_format_column_keeps_signed_zero_and_specials():
    strs = format_column(SPECIAL)
    assert strs == ["%.17g" % v for v in SPECIAL.tolist()]
    assert strs[:6] == ["-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"]
    assert format_column(np.array([])) == []


def test_write_table_matches_row_loop(tmp_path):
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, SPECIAL.size)
    xs = format_column(x)
    blocks = [[xs, SPECIAL, np.zeros(SPECIAL.size)],
              [xs, -SPECIAL[::-1], rng.standard_normal(SPECIAL.size)],
              [xs[:3], np.array([7.0, 7.0, 7.0]), np.array([-0.0, 0.0, -0.0])],
              [[], np.array([]), np.array([])]]
    header = ["x", "a", "b"]
    p = tmp_path / "t.csv"
    write_table(p, header, iter(blocks))
    assert_same_text(p.read_text(), oracle_table(header, blocks))


def test_write_table_chunks_a_long_block(tmp_path):
    # more cells than one formatting chunk, with repeats and signed zeros
    rng = np.random.default_rng(5)
    n = 7001
    cols = [np.repeat(rng.standard_normal(n // 7 + 1), 7)[:n],
            np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0),
            rng.standard_normal(n)]
    cols.append(format_column(np.arange(n) / 3.0))
    p = tmp_path / "long.csv"
    write_table(p, ["a", "b", "c", "d"], [cols])
    assert_same_text(p.read_text(), oracle_table(["a", "b", "c", "d"], [cols]))


def test_write_table_empty_and_ragged(tmp_path):
    p = tmp_path / "e.csv"
    write_table(p, ["x", "y"], [])
    assert p.read_text() == "x,y\n"
    write_table(p, ["x", "y"], [[np.array([]), np.array([])]])
    assert p.read_text() == "x,y\n"
    with pytest.raises(ConfigurationError):
        write_table(p, ["x", "y"], [[np.zeros(3), np.zeros(2)]])


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_quad_is_linear(a, b):
    g = build_grid(1.0, 32)
    u = f_of(g, lambda x: np.sin(2 * x))
    v = f_of(g, lambda x: x ** 2 + 0j)
    combo = GridFunction(g, a * u.values + b * v.values)
    lhs = quad(combo)
    rhs = a * quad(u) + b * quad(v)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(a) + abs(b))
