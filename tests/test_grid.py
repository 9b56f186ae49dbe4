"""Quadrature, differencing and table round-trips on the uniform grid."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slwave.analytic import Const
from slwave.control import _probe_matrix
from slwave import grid as grid_module
from slwave.errors import ConfigurationError, NumericalError
from slwave.grid import (GridFunction, RowLayout, build_grid, diff_samples,
                         format_column, inner, interp_cubic, json_text, quad, sample,
                         simpson_sum, write_json_table, write_tables)
from slwave.model import default_gauge
from slwave.sturm import kernel_basis, potential
from slwave.verify import boundary_form


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


def test_quad_exact_on_a_cubic():
    # 102 cells, an even count that is not a multiple of 4
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
    """Simpson integrates cubics exactly on 5, 7 and 9 samples; 6 and 8
    samples, an odd count of cells, are refused."""
    x = np.linspace(0.0, 1.0, samples)
    f = 2.0 * x ** 3 - x ** 2 + 0.5
    if samples % 2 == 0:
        with pytest.raises(ConfigurationError, match="odd sample count"):
            simpson_sum(f, 1.0 / (samples - 1))
        return
    assert abs(simpson_sum(f, 1.0 / (samples - 1)) - (0.5 - 1.0 / 3.0 + 0.5)) <= 1e-14


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
    write_tables(["x", "re", "im"], [(p, [[g.x, gf.values.real, gf.values.imag]])])
    back = np.loadtxt(p, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 1] + 1j * back[:, 2], gf.values)
    assert np.array_equal(back[:, 0], g.x)


def text_of(cells) -> list:
    """The strings of a column of format_column cells."""
    return [bytes(c).replace(b"\0", b"").decode("ascii") for c in cells]


def oracle_table(header, blocks) -> str:
    """Per-value row loop: what write_tables must reproduce byte for byte."""
    lines = [",".join(header)]
    for block in blocks:
        cols = [text_of(c) if np.ndim(c) == 2 else c for c in block]
        for row in zip(*cols):
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
    strs = text_of(format_column(SPECIAL))
    assert strs == ["%.17g" % v for v in SPECIAL.tolist()]
    assert strs[:6] == ["-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"]
    assert text_of(format_column(np.array([]))) == []


def test_format_column_sizes_cells_to_the_widest_text():
    values = np.array([0.0, 0.25, -1 / 3, 1e-300, -0.0, 0.5])
    texts = ["%.17g" % v for v in values.tolist()]
    w = max(map(len, texts))
    cells = format_column(values)
    assert cells.dtype == np.uint8 and cells.shape == (values.size, w + 1)
    assert not cells[:, -1].any()
    assert [bytes(c) for c in cells] == [t.encode().ljust(w + 1, b"\0") for t in texts]
    assert format_column(np.zeros(4)).shape == (4, 2)
    assert format_column(np.array([])).shape == (0, 1)


def test_write_table_mixes_text_and_float_columns(tmp_path):
    """Text columns of different widths (a 1-byte "0" column, a zero-stride
    view of one cell, the nodes) between float columns."""
    rng = np.random.default_rng(8)
    n = 37
    ts = format_column(np.array([0.25, 0.2, -0.0, 0.5]))
    xs = format_column(np.linspace(0.0, 1.0, n))
    zero = format_column(np.zeros(n))
    blocks = [[rng.standard_normal(n), np.broadcast_to(t, (n, t.size)), xs,
               rng.standard_normal(n) * 1e20, zero, np.full(n, v)]
              for t, v in zip(ts, (7.0, -0.0, 1 / 3, 0.1))]
    blocks.append([np.array([]), ts[:0], xs[:0], np.array([]), zero[:0], np.array([])])
    header = ["a", "t", "x", "b", "im", "c"]
    p = tmp_path / "mixed.csv"
    write_tables(header, [(p, iter(blocks))])
    assert_same_text(p.read_text(), oracle_table(header, blocks))


def test_write_table_sizes_chunks_by_row_bytes(tmp_path, monkeypatch):
    """A piece holds as many rows as fit _CHUNK_BYTES of row slots (at
    least one), and one formatting call serves all the float columns of
    as many whole pieces as fit _CHUNK_BYTES // _CELL cells: at a budget
    of 1000 bytes, eight calls of one 11-row piece, and one of the last
    full piece and the 2-row tail."""
    rng = np.random.default_rng(4)
    n = 101
    xs = format_column(np.arange(n) / 3.0)
    zero = format_column(np.zeros(n))
    cols = [rng.standard_normal(n), xs, zero, np.repeat(rng.standard_normal(n // 5 + 1), 5)[:n]]
    row = 2 * grid_module._CELL + xs.shape[1] + zero.shape[1]
    seen = []
    fmt = grid_module._format_into
    monkeypatch.setattr(grid_module, "_format_into",
                        lambda a, out, seps: seen.append(a.shape) or fmt(a, out, seps))
    assert 1000 // row == 11
    for budget, calls in ((1000, [(11, 2)] * 8 + [(13, 2)]), (row - 1, [(1, 2)] * n)):
        monkeypatch.setattr(grid_module, "_CHUNK_BYTES", budget)
        seen.clear()
        p = tmp_path / "chunks.csv"
        write_tables(["a", "x", "im", "b"], [(p, [cols])])
        assert_same_text(p.read_text(), oracle_table(["a", "x", "im", "b"], [cols]))
        assert seen == calls


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
    write_tables(header, [(p, iter(blocks))])
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
    write_tables(["a", "b", "c", "d"], [(p, [cols])])
    assert_same_text(p.read_text(), oracle_table(["a", "b", "c", "d"], [cols]))


def assert_column_matches(tmp_path, values):
    """write_tables of one float column against the per-value %.17g loop."""
    p = tmp_path / "col.csv"
    write_tables(["v"], [(p, [[values]])])
    assert_same_text(p.read_text(), oracle_table(["v"], [[values]]))


def test_write_table_matches_oracle_on_bulk_draws(tmp_path):
    """Random bit patterns (subnormals, NaNs and infinities included),
    normals over 32 decades and integers past 2^53: 120,000 cells."""
    rng = np.random.default_rng(11)
    n = 40_000
    bits = rng.integers(0, 2 ** 63, n, dtype=np.uint64) | (
        rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    scaled = rng.standard_normal(n) * 10.0 ** rng.uniform(-12.0, 20.0, n)
    ints = rng.integers(2 ** 53, 2 ** 62, n).astype(float)
    p = tmp_path / "bulk.csv"
    blocks = [[bits.view(float), scaled, ints]]
    write_tables(["a", "b", "c"], [(p, blocks)])
    assert_same_text(p.read_text(), oracle_table(["a", "b", "c"], blocks))


def test_write_table_matches_oracle_around_powers_of_ten(tmp_path):
    """10^k and up to 50 ulps either side, for k in [-30, 30]: where
    floor(log10 |x|) can miss and where the 17 digits carry."""
    p10 = np.array([float(f"1e{k}") for k in range(-30, 31)])
    bits = p10.view(np.int64)[:, None] + np.arange(-50, 51)
    values = bits.view(float).ravel()
    assert_column_matches(tmp_path, np.concatenate([values, -values]))


def exact_ties() -> np.ndarray:
    """Odd m 2^-e, m < 4000 and 20 <= e < 80, whose exact decimal expansion
    has 18 significant digits ending in 5, with both signs: the 17-digit
    rounding is an exact tie."""
    out = []
    for e in range(20, 80):
        for m in range(1, 4000, 2):
            digits = str(m * 5 ** e).rstrip("0")     # m 2^-e = m 5^e 10^-e
            if len(digits) == 18:
                out += [m * 2.0 ** -e, -m * 2.0 ** -e]
    return np.array(out)


def test_write_table_leaves_exact_ties_to_python(tmp_path, monkeypatch):
    ties = np.concatenate([[2.0 ** -25], exact_ties()])
    assert ties.size == 1 + 5312
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"  # half-even, not ...13
    seen = []
    monkeypatch.setattr(grid_module, "_FMT", lambda v: seen.append(v) or "%.17g" % v)
    assert_column_matches(tmp_path, ties)
    assert len(seen) == ties.size


def test_write_table_edge_columns(tmp_path):
    """|k| past the table, a constant column, signed zeros, and a block
    whose rows straddle the chunk size."""
    far = np.array([1e-300, -2.5e-200, 1e-41, 9.9e-42, 1e41, 1e42, 1.7e308, -1e200])
    assert_column_matches(tmp_path, far)
    assert_column_matches(tmp_path, np.full(1000, 0.1))
    assert_column_matches(tmp_path, np.full(3, -0.0))
    assert_column_matches(tmp_path, np.array([0.0, -0.0, 0.0, 5e-324, -0.0]))
    rng = np.random.default_rng(2)
    n = grid_module._CHUNK_BYTES // (2 * grid_module._CELL) + 1
    cols = [rng.standard_normal(n), np.full(n, 0.45), -np.abs(rng.standard_normal(n))]
    p = tmp_path / "straddle.csv"
    write_tables(["a", "b", "c"], [(p, [cols])])
    assert_same_text(p.read_text(), oracle_table(["a", "b", "c"], [cols]))


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_format_column_matches_python_on_any_float(values):
    """The numpy cells, not Python's: a short column would be formatted
    by Python's %.17g itself."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid_module, "_SMALL", 0)
        assert text_of(format_column(np.array(values))) == ["%.17g" % v for v in values]


def test_short_columns_are_formatted_by_python(monkeypatch):
    """A call of at most _SMALL values takes Python's %.17g, with the same
    cell bytes as the numpy path, separators included."""
    values = np.concatenate([SPECIAL, [12.5, -123.25, 1e16 + 2, 0.30000000000000004]])
    a = np.column_stack([values, values[::-1]])
    assert a.size <= grid_module._SMALL
    cells = {}
    for small in (grid_module._SMALL, 0):
        monkeypatch.setattr(grid_module, "_SMALL", small)
        cells[small] = np.empty(a.shape + (grid_module._WORDS,), np.uint64)
        grid_module._format_into(a, cells[small], np.array([44, 10], np.uint8))
    assert cells[0].tobytes() == cells[grid_module._SMALL].tobytes()


def test_moved_dots_match_python(tmp_path):
    """Fixed notation with the dot after d_k, k = 1..16, and every digit
    count: the digits after the dot move up one byte."""
    rng = np.random.default_rng(12)
    values = np.concatenate([rng.integers(1, 10 ** min(d + 1, 17), 40) * 10.0 ** (k - d)
                             for k in range(0, 18) for d in range(18)])
    assert_column_matches(tmp_path, np.concatenate([values, -values]))


def full_blocks(layout, blocks):
    """The blocks of a layout with its shared columns put back as text
    cells, as oracle_table reads them."""
    shared = {j: format_column(v) for j, v in layout.shared.items()}
    return [layout.columns(b, shared) for b in blocks]


def write_and_check(path, layout, blocks):
    write_tables(layout, [(path, iter(blocks))])
    assert_same_text(path.read_text(), oracle_table(layout.header, full_blocks(layout, blocks)))


# a float whose %.17g text is n bytes long, for n = 1..24
TEXT_OF_LENGTH = {len("%.17g" % v): v for v in
                  [10.0 ** i for i in range(17)]
                  + [-1e16, 0.1, -0.1, 1 / 300, 1 / 3000, -1 / 3000, -1 / 3e100]}


def test_layout_shares_text_over_blocks_and_files(tmp_path):
    """The wave-field and eigenfunction layouts: shared nodes and zeros laid
    once, used by many blocks of one table and by many tables."""
    rng = np.random.default_rng(21)
    n = 257
    x = np.linspace(0.0, 1.0, n)
    ts = format_column(np.array([0.25, 1 / 3, 1e-7, 0.5]))
    layout = RowLayout(["t", "x", "re", "im"], {"x": x, "im": np.zeros(n)})
    blocks = [[np.broadcast_to(t, (n, t.size)), rng.standard_normal(n) * 10.0 ** e]
              for t, e in zip(ts, (-3, 0, 5, 12))]
    write_and_check(tmp_path / "waves.csv", layout, blocks)
    write_and_check(tmp_path / "again.csv", layout, blocks[::-1])
    files = RowLayout(["x", "re", "im"], {"x": x, "im": np.zeros(n)})
    for k in range(6):
        write_and_check(tmp_path / f"phi{k}.csv", files, [[np.sin((k + 1) * np.pi * x)]])


def test_layout_lays_out_again_for_new_widths_and_row_counts(tmp_path):
    """Without shared columns, blocks of any row count and text width
    follow each other; with them, a block of another row count, or with a
    missing column, is refused."""
    rng = np.random.default_rng(22)
    layout = RowLayout(["a", "s", "b"])
    blocks = []
    for n, width in ((5, 1), (40, 20), (3, 24), (0, 7), (600, 4), (1, 12)):
        text = format_column(np.resize([TEXT_OF_LENGTH[width], 0.0], n))
        blocks.append([rng.standard_normal(n), text, np.full(n, 0.5)])
    write_and_check(tmp_path / "mixed.csv", layout, blocks)
    write_and_check(tmp_path / "twice.csv", layout, blocks[::-1])
    shared = RowLayout(["x", "re"], {"x": np.arange(4.0)})
    with pytest.raises(ConfigurationError, match="differ in length"):
        write_tables(shared, [(tmp_path / "rows.csv", [[np.zeros(4)], [np.zeros(5)]])])
    with pytest.raises(ConfigurationError, match="shared columns"):
        write_tables(shared, [(tmp_path / "cols.csv", [[np.zeros(4), np.zeros(4)]])])


@pytest.mark.parametrize("width", range(1, 25))
def test_layout_text_widths_around_float_cells(tmp_path, width):
    """A text column of each width 1..24 (slots of 2..25 bytes), shared or
    in the block, before, between and after float cells, a float cell
    first and last in the row."""
    assert sorted(TEXT_OF_LENGTH) == list(range(1, 25))
    rng = np.random.default_rng(width)
    n = 23
    text = np.resize([TEXT_OF_LENGTH[width], 1.0], n)
    floats = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-5, 17, (3, n))
    cases = [
        (RowLayout(["a", "s", "b"], {"s": text}), [[floats[0], floats[1]]]),
        (RowLayout(["s", "a", "t"], {"s": text, "t": text[::-1]}), [[floats[2]]]),
        (RowLayout(["a", "b", "s"]), [[floats[0], floats[2], format_column(text)]]),
        (RowLayout(["s", "a", "b", "c"]), [[format_column(text), *floats]]),
    ]
    for i, (layout, blocks) in enumerate(cases):
        write_and_check(tmp_path / f"w{i}.csv", layout, blocks)


def test_layout_block_straddles_chunks(tmp_path, monkeypatch):
    """Blocks taller than a chunk, with shared columns: every chunk takes
    its own rows of the shared text, at the real chunk size (one row past
    it) and at chunks of 100 rows and of one row."""
    rng = np.random.default_rng(23)
    nodes = np.linspace(0.0, 2.0, 1001)
    row = format_column(nodes).shape[1] + grid_module._CELL + 2
    for n, budget in ((grid_module._CHUNK_BYTES // row + 1, grid_module._CHUNK_BYTES),
                      (1001, 100 * row + 1), (1001, row - 1)):
        monkeypatch.setattr(grid_module, "_CHUNK_BYTES", budget)
        x = np.resize(nodes, n)
        layout = RowLayout(["x", "re", "im"], {"x": x, "im": np.zeros(n)})
        blocks = [[rng.standard_normal(n)], [np.cos(x)]]
        write_and_check(tmp_path / f"s{budget}.csv", layout, blocks)
        assert layout._step == max(1, budget // row) < n


def one_call_per_block(layout, blocks) -> bytes:
    """A table as a writer with one _format_into call per block writes
    it: the block's float columns formatted together, every text and float
    cell laid in its slot and the NUL bytes squeezed out."""
    shared = {j: format_column(v) for j, v in layout.shared.items()}
    seps = np.full(len(layout.header), ord(","), np.uint8)
    seps[-1] = ord("\n")
    text = [(",".join(layout.header) + "\n").encode()]
    for block in blocks:
        cols = layout.columns(block, shared)
        floats = [j for j, c in enumerate(cols) if np.ndim(c) == 1]
        if not len(cols[0]):
            continue
        cells = np.empty((len(cols[0]), len(floats), grid_module._WORDS), np.uint64)
        grid_module._format_into(np.column_stack([np.asarray(cols[j], dtype=float)
                                                  for j in floats]), cells, seps[floats])
        slots = []
        for j, c in enumerate(cols):
            if j in floats:
                slots.append(cells[:, floats.index(j)].view(np.uint8))
            else:
                slots.append(np.array(c, np.uint8))
                slots[-1][:, -1] = seps[j]
        text.append(np.hstack(slots).tobytes().translate(None, b"\0"))
    return b"".join(text)


def edge_values(rng, n, ties) -> np.ndarray:
    """n normals of spread magnitude, among them signed zeros, subnormals,
    1e+-300 (left to Python's %.17g) and exact ties."""
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    special = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300,
                               1e-300, -1e-300], rng.choice(ties, 24)])
    v[rng.choice(n, min(n, special.size), replace=False)] = special[:n]
    return v


def check_tables(paths, layout, tables):
    """Each file is the per-value %.17g text of its table (the oracle) and
    the bytes of the one-call-per-block writer."""
    for path, blocks in zip(paths, tables):
        got = path.read_bytes()
        assert got == one_call_per_block(layout, blocks), path.name
        want = oracle_table(layout.header, full_blocks(layout, blocks))
        assert_same_text(got.decode(), want)


def formatting_calls(monkeypatch) -> list:
    """The shapes of the arrays _format_into is called with, from now on."""
    seen = []
    fmt = grid_module._format_into
    monkeypatch.setattr(grid_module, "_format_into",
                        lambda a, out, seps: seen.append(a.shape) or fmt(a, out, seps))
    return seen


@pytest.mark.parametrize("count, calls", [
    (1, [1]), (3, [6003]), (4, [8004]), (5, [8004, 2001]), (9, [8004, 8004, 2001])])
def test_tables_of_one_layout_share_formatting_calls(tmp_path, monkeypatch, count, calls):
    """One-block eigenfunction-shaped tables of 2001 rows, written
    together: four tables a call (8004 of the 8192 cells), the last call
    partial, and every file byte for byte its own table.  The middle
    table's column is constant: formatted with its neighbours, or once
    when it is alone in its call."""
    rng = np.random.default_rng(count)
    n, ties = 2001, exact_ties()
    x = np.linspace(0.0, 1.0, n)
    layout = RowLayout(["x", "re", "im"], {"x": x, "im": np.zeros(n)})
    tables = [[[edge_values(rng, n, ties)]] for _ in range(count)]
    tables[count // 2] = [[np.full(n, -1 / 3)]]
    paths = [tmp_path / f"eigenfunction_{k:04d}.csv" for k in range(count)]
    seen = formatting_calls(monkeypatch)
    write_tables(layout, zip(paths, tables))
    # the shared nodes and zeros first, then the tables' own values
    assert seen == [(n, 1), (1, 1)] + [(m, 1) for m in calls]
    check_tables(paths, layout, tables)


def test_wave_field_shaped_table_shares_formatting_calls(tmp_path, monkeypatch):
    """48 snapshots of 2001 rows in one table: twelve calls of four
    blocks each."""
    rng = np.random.default_rng(48)
    n, ties = 2001, exact_ties()
    x = np.linspace(0.0, 1.0, n)
    ts = format_column(np.linspace(0.5 / 48, 0.5, 48))
    layout = RowLayout(["t", "x", "re", "im"], {"x": x, "im": np.zeros(n)})
    blocks = [[np.broadcast_to(t, (n, t.size)), edge_values(rng, n, ties)] for t in ts]
    seen = formatting_calls(monkeypatch)
    write_tables(layout, [(tmp_path / "wavefield.csv", iter(blocks))])
    assert seen == [(n, 1), (1, 1)] + [(4 * n, 1)] * 12
    check_tables([tmp_path / "wavefield.csv"], layout, [blocks])


def test_new_text_widths_inside_one_formatting_call(tmp_path, monkeypatch):
    """Blocks whose text widths change share one call, and the buffer is
    laid out again between them; a column constant within one block is
    formatted with the others, one constant over the whole call once."""
    rng = np.random.default_rng(7)
    ties = exact_ties()
    layout = RowLayout(["a", "s", "b"])
    blocks = []
    for n, width in ((500, 3), (700, 12), (300, 1), (2, 24)):
        text = format_column(np.resize([TEXT_OF_LENGTH[width], 0.0], n))
        blocks.append([edge_values(rng, n, ties), text, np.full(n, 0.1 * width)])
    constant = [[b[0], b[1], np.full(len(b[0]), 5e-324)] for b in blocks]
    tables = [(tmp_path / "widths.csv", blocks), (tmp_path / "constant.csv", constant)]
    seen = formatting_calls(monkeypatch)
    for path, table in tables:
        write_tables(layout, [(path, table)])
    assert seen == [(1502, 2), (1, 1), (1502, 1)]
    check_tables([p for p, _ in tables], layout, [b for _, b in tables])


def test_blocks_over_the_cell_budget_start_a_new_call(tmp_path, monkeypatch):
    """Blocks without shared columns fill a call while their cells fit
    the budget; a block past it starts the next, and a block taller than
    a piece is cut into pieces that the budget groups."""
    rng = np.random.default_rng(9)
    ties = exact_ties()
    cap = grid_module._CHUNK_BYTES // grid_module._CELL
    step = grid_module._CHUNK_BYTES // (3 * grid_module._CELL)
    sizes = (1000, 1000, 1000, 2 * step + 5, 1)
    blocks = [[edge_values(rng, n, ties) for _ in range(3)] for n in sizes]
    layout = RowLayout(["a", "b", "c"])
    seen = formatting_calls(monkeypatch)
    write_tables(layout, [(tmp_path / "budget.csv", blocks)])
    assert cap // 3 == step == 2730
    assert seen == [(2000, 3), (1000, 3), (step, 3), (step, 3), (5 + 1, 3)]
    check_tables([tmp_path / "budget.csv"], layout, [blocks])


def test_eigs_files_match_per_file_oracle_tables(tmp_path):
    """`slwave eigs` writes every eigenfunction file through one layout;
    each file is the row loop of its own x, re, im table."""
    from slwave.cli import load_config, main
    from slwave.sturm import dirichlet_eigensystem
    cfg = tmp_path / "e.ini"
    cfg.write_text("[problem]\npotential = 2 + cos(3)\n[numerics]\ngrid_n = 400\nmodes = 7\n")
    assert main(["eigs", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run = load_config(str(cfg))
    es = dirichlet_eigensystem(potential(build_grid(run.l, run.grid_n), run.q_form),
                               run.modes, rel_tol=run.shoot_tol)
    for k in range(es.count):
        want = oracle_table(["x", "re", "im"], [[es.grid.x, es.phi[k], np.zeros(es.grid.size)]])
        assert_same_text((tmp_path / "out" / f"eigenfunction_{k + 1:04d}.csv").read_text(), want)


def test_write_json_table_puts_shared_columns_back(tmp_path):
    x = np.linspace(0.0, 1.0, 5)
    layout = RowLayout(["t", "x", "re", "im"], {"x": x, "im": np.zeros(5)})
    blocks = [[np.full(5, t), np.sin(x + t)] for t in (0.25, 0.5)]
    rows = np.concatenate([np.column_stack([b[0], x, b[1], np.zeros(5)])
                           for b in blocks]).tolist()
    p = tmp_path / "w.json"
    write_json_table(p, layout, blocks)
    assert p.read_text() == json_text({"columns": layout.header, "rows": rows})


def test_write_table_empty_and_ragged(tmp_path):
    p = tmp_path / "e.csv"
    write_tables(["x", "y"], [(p, [])])
    assert p.read_text() == "x,y\n"
    write_tables(["x", "y"], [(p, [[np.array([]), np.array([])]])])
    assert p.read_text() == "x,y\n"
    with pytest.raises(ConfigurationError):
        write_tables(["x", "y"], [(p, [[np.zeros(3), np.zeros(2)]])])


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_quad_is_linear(a, b):
    g = build_grid(1.0, 32)
    u = f_of(g, lambda x: np.sin(2 * x))
    v = f_of(g, lambda x: x ** 2 + 0j)
    combo = GridFunction(g, a * u.values + b * v.values)
    lhs = quad(combo)
    rhs = a * quad(u) + b * quad(v)
    assert abs(lhs - rhs) <= 1e-12 * (1 + abs(a) + abs(b))


def test_write_json_table_matches_json_text(tmp_path):
    """Streamed JSON tables are json_text of the whole table, byte for byte."""
    rng = np.random.default_rng(4)
    blocks = [[np.full(3, 0.5), rng.standard_normal(3), np.array([-0.0, 1e300, 5e-324])],
              [np.array([]), np.array([]), np.array([])],
              [np.arange(2.0), np.ones(2, dtype=bool), np.array([1 / 3, -7.0])]]
    header = ["t", "x", "re(é)"]
    rows = np.concatenate([np.column_stack(b) for b in blocks]).astype(float).tolist()
    p = tmp_path / "t.json"
    write_json_table(p, header, iter(blocks))
    assert p.read_text() == json_text({"columns": header, "rows": rows})
    write_json_table(p, header, [])
    assert p.read_text() == json_text({"columns": header, "rows": []})


def test_write_json_table_refuses_non_finite(tmp_path):
    p = tmp_path / "t.json"
    with pytest.raises(NumericalError, match="non-finite"):
        write_json_table(p, ["a"], [[np.zeros(4)], [np.array([1.0, np.nan])]])
    assert list(tmp_path.iterdir()) == []


JSON_PAYLOADS = [
    {"branches": [[-0.0, 5e-324, 1e16, 0.1, -2.5e-300], [1.0]],
     "collision_flags": [True, False, False],
     "counts": [1, 2, 3], "mixed": [1.0, True, 2, None, "é"], "pair": (0.5, -0.5),
     "nested": {"empty_list": [], "empty_dict": {}, "deep": [[[]], [{"z": [False]}]]},
     "scalar": 1e16, "flag": True, "none": None, "text": "line\nbreak",
     "numpy": np.float64(0.25), "int_keys": {2: "b", 1: "a"}},
    [], {}, 0.0, [[1e-300, -1e300]], [{"b": 1, "a": [True]}],
]


@pytest.mark.parametrize("payload", JSON_PAYLOADS)
def test_json_text_is_json_dumps(payload):
    """json_text gives the bytes of json.dumps(indent=2, sort_keys=True)
    plus a newline, at every nesting depth."""
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [[0.5, float("nan")], {"a": [[1.0, float("inf")]]},
                                 {"a": -float("inf")}, [np.float64("nan")]])
def test_json_text_refuses_non_finite(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        json_text(bad)


LEAF_PAYLOADS = [
    {"f": -0.0, "t": True, "i": -7, "n": None, "s": "ünï\u2014\"q\"\\", "e": [], "d": {},
     "list": [0.5, False, 3, None, "é", [], {}, [-0.0], {"k": "ß"}],
     "deep": {"a": {"b": [{"c": 1e300, "d": [None, None], "e": ["x", "ÿ"]}]}}},
    [-0.0, 1, "a", None, True, 2.5e-310],
    [[None], [3, 4], ["é", "e"], [{}], {"": 0}],
    -0.0, 12345678901234567890, "Ω", None, False,
]


@pytest.mark.parametrize("payload", LEAF_PAYLOADS)
def test_json_text_scalar_leaves_are_json_dumps(payload):
    """Scalar leaves alone, in dicts, mixed lists and one-type lists give
    the bytes of json.dumps at every depth."""
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("bad", [{"a": float("nan")}, {"a": {"b": float("inf")}},
                                 [1, "x", -float("inf")], {"a": [None, float("nan")]}])
def test_json_text_refuses_non_finite_leaf(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        json_text(bad)
