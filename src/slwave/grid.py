"""Uniform grids on [0, l], grid functions, quadrature, differencing, the
one cubic interpolation stencil, and the text of the CSV/JSON artefacts.

Everything downstream works on closed uniform grids with an even number of
subintervals so that composite Simpson quadrature applies without special
casing.  Grid functions are complex valued; real data is stored as complex
with zero imaginary part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, NumericalError

__all__ = [
    "Grid", "GridFunction", "build_grid", "sample", "quad", "inner",
    "diff_samples", "interp_cubic", "simpson_sum", "format_column",
    "RowLayout", "write_tables", "write_json_table", "json_text",
]


@dataclass(eq=False)
class Grid:
    """Uniform grid with n subintervals on [0, l].

    Parameters
    ----------
    l : float
        Interval length, must be positive.
    n : int
        Number of subintervals; even and at least 8 (Simpson requirement).
    """

    l: float
    n: int
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.l > 0.0) or not np.isfinite(self.l):
            raise ConfigurationError(f"interval length must be positive, got {self.l}")
        if self.n < 8 or self.n % 2 != 0:
            raise ConfigurationError(f"grid needs an even n >= 8, got {self.n}")
        nodes = np.linspace(0.0, self.l, self.n + 1)
        nodes.setflags(write=False)
        self.x = nodes

    @property
    def h(self) -> float:
        return self.l / self.n

    @property
    def size(self) -> int:
        return self.n + 1


def build_grid(l: float, n: int) -> Grid:
    """Validated grid constructor."""
    return Grid(float(l), int(n))


@dataclass(eq=False)
class GridFunction:
    """Complex samples on the nodes of a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.size,):
            raise ConfigurationError(
                f"value array of shape {v.shape} does not match grid with {self.grid.size} nodes")
        v.setflags(write=False)
        self.values = v

    def _check(self, other: "GridFunction"):
        if other.grid.n != self.grid.n or other.grid.l != self.grid.l:
            raise ConfigurationError("grid functions live on different grids")


def sample(grid: Grid, f: Union[Callable, np.ndarray]) -> GridFunction:
    """Build a grid function from a callable (vectorized over x) or an array."""
    if callable(f):
        return GridFunction(grid, np.asarray(f(grid.x), dtype=complex))
    return GridFunction(grid, f)


def _simpson_pattern(n: int, dtype=float) -> np.ndarray:
    """The composite Simpson pattern 1, 4, 2, ..., 2, 4, 1 on n + 1 nodes."""
    w = np.full(n + 1, 2.0, dtype=dtype)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w


def _simpson_weights(n: int, h: float) -> np.ndarray:
    return _simpson_pattern(n) * (h / 3.0)


def simpson_sum(values: np.ndarray, h) -> complex:
    """Composite Simpson over equispaced samples.  Needs an odd number of
    samples, at least 5 (an even number of subintervals, at least 4)."""
    values = np.asarray(values)
    m = values.shape[0] - 1
    if m < 4 or m % 2:
        raise ConfigurationError(
            f"simpson_sum needs an odd sample count of at least 5, got {m + 1}")
    return (h / 3.0) * np.sum(_simpson_pattern(m, values.real.dtype) * values)


def quad(f: GridFunction) -> complex:
    """Integral of f over [0, l] by composite Simpson."""
    w = _simpson_weights(f.grid.n, f.grid.h)
    return complex(np.sum(w * f.values))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 inner product (f, g) = int f conj(g)."""
    f._check(g)
    w = _simpson_weights(f.grid.n, f.grid.h)
    return complex(np.sum(w * f.values * np.conj(g.values)))


def diff_samples(values: np.ndarray, h: float, order: int = 1) -> np.ndarray:
    """Fourth-order finite-difference derivative of equispaced samples:
    five-point central stencils with shifted five-point ends (six-point
    for the second derivative).  Needs at least 4 + order samples.
    """
    v = np.asarray(values)
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    if order not in (1, 2):
        raise ConfigurationError(f"derivative order must be 1 or 2, got {order}")
    if v.shape[0] < 4 + order:
        raise ConfigurationError(f"order-{order} differencing needs >= {4 + order} samples")
    # the end stencils are elementwise products and a sum: `c @ v` goes to
    # BLAS dot, whose rounding depends on the kernel and thread count
    if order == 1:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * h)
        out[0] = (c * v[:5]).sum()
        out[1] = (c1 * v[:5]).sum()
        out[-2] = -(c1 * v[-5:][::-1]).sum()
        out[-1] = -(c * v[-5:][::-1]).sum()
    else:
        out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * h * h)
        c = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12.0 * h * h)
        c1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12.0 * h * h)
        out[0] = (c * v[:6]).sum()
        out[1] = (c1 * v[:6]).sum()
        out[-2] = (c1 * v[-6:][::-1]).sum()
        out[-1] = (c * v[-6:][::-1]).sum()
    return out


def _cubic_stencil(xq: np.ndarray, x: np.ndarray, h: float) -> tuple:
    """Cubic Lagrange stencil of the queries xq on the uniform nodes x
    (spacing h): the first node j of each query's four and the weights
    (4, len(xq)) of nodes j .. j+3, clipped to the first and last cells.

    The nodes are passed, not rebuilt as i h, because the last node of a
    grid is l itself, which n (l/n) can miss by an ulp.
    """
    j = np.clip((xq / h).astype(int) - 1, 0, x.shape[0] - 4)
    w = np.empty((4,) + xq.shape)
    for k in range(4):
        lk = np.ones_like(xq)
        for mth in range(4):
            if mth != k:
                lk = lk * (xq - x[j + mth]) / (x[j + k] - x[j + mth])
        w[k] = lk
    return j, w


def _cubic_apply(values: np.ndarray, j: np.ndarray, w: np.ndarray):
    """Sum of the stencil weights times the node values, in node order."""
    out = 0.0
    for k in range(4):
        out = out + w[k] * values[j + k]
    return out


def interp_cubic(f: GridFunction, xq) -> np.ndarray:
    """Cubic Lagrange interpolation of a grid function at points xq.

    Uses the four nodes around each query point; fourth-order accurate for
    smooth data.  Queries must lie inside [0, l].
    """
    xq_arr = np.atleast_1d(np.asarray(xq, dtype=float))
    g = f.grid
    if np.any(xq_arr < -1e-12) or np.any(xq_arr > g.l * (1 + 1e-12)):
        raise ConfigurationError("interpolation query outside [0, l]")
    out = _cubic_apply(f.values, *_cubic_stencil(xq_arr, g.x, g.h))
    if np.isscalar(xq) or np.asarray(xq).ndim == 0:
        return out[0]
    return out


# Exact %.17g cells in numpy.  A finite x != 0 has 17 significant digits
# D = round-half-even(|x| 10^(16 - k)) with k = floor(log10 |x|).  The
# product is formed from a double-double 10^(16 - k) by Dekker's (1971)
# error-free product, so its integer part and fraction are known to better
# than 1e-14; a cell whose fraction is within _TIE of 1/2, a non-finite cell
# and one whose k lies outside the table are formatted by Python's own
# %.17g, and so is every cell of a call of at most _SMALL values.  A float
# cell is 32 bytes, four native uint64 words:
#   0 sign | 1-5 "0.000" | 6 d0 | 7 "." after d0 | 8-23 d1..d16 |
#   24-26 unused | 27-30 "e+dd" | 31 separator
# In fixed notation with k >= 1 the dot follows d_k instead: the digits
# after d_k move up one byte (d16 into byte 24), and the dot takes 8 + k.
# The digits are contiguous, so a cell holds few NUL bytes beyond its
# unused tail: translating a row costs about its length.
# A row (RowLayout) is the slots of its columns side by side: a text
# column's slot is as wide as its widest text plus the separator, a float
# column's slot is one cell.  Unused bytes hold NUL and are dropped when a
# piece of rows is written.
_FMT = "%.17g".__mod__
_K_MIN, _K_MAX = -40, 40        # k handled in numpy; 10^(16 - k) is tabled for k +- 1
_TIE = 1e-6
_SPLIT = 134217729.0            # 2^27 + 1, Dekker's splitter
_CELL = 32
_WORDS = _CELL // 8
_CELL_ITEM = np.dtype(f"V{_CELL}")      # a cell as one item, copied in one go
_X_MIN = _K_MIN - 1             # exponents _K_MIN - 1 .. _K_MAX + 2 (fix-up, then carry)
_N_X = _K_MAX + 3 - _X_MIN
# a call of at most this many values is formatted by Python (about 1 us a
# value): the numpy path costs about 60 us a call before its first value
_SMALL = 64
_tables = None
# row-slot bytes per piece of a block, and in _CELL units the float cells
# of one formatting call (8192), gathered across blocks and tables: bounds
# the bytes formatted and translated at once
_CHUNK_BYTES = _CELL << 13


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _build_tables() -> dict:
    """Powers of ten as double-doubles, 4-digit groups, trailing-zero
    counts and the templates of every (sign, exponent, digit count)."""
    hi, lo = [], []
    for j in range(16 - _K_MAX - 1, 16 - _K_MIN + 2):
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        h = num / den                       # correctly rounded int division
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    p_hi = np.array(hi[::-1])               # index k - _K_MIN + 1
    p_lo = np.array(lo[::-1])
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T     # of 0000 .. 9999
    low, high = np.zeros((2, 10_000, 8), np.uint8)  # a group in the low, or the high, half word
    low[:, :4] = high[:, 4:] = 48 + digits
    lead = np.full((10, 8), 0xFF, np.uint8)
    lead[:, 6] = 48 + np.arange(10)
    tz = np.cumprod(digits[:, ::-1] == 0, axis=1, dtype=np.uint8).sum(axis=1, dtype=np.int64)
    # templates, indexed (sign, X - _X_MIN, nd - 1): 0xFF keeps a digit
    X = np.arange(_X_MIN, _X_MIN + _N_X)[:, None]
    nd = np.arange(1, 18)[None, :]
    i = np.arange(17)
    fixed = (X >= -4) & (X < 17)
    small = fixed & (X < 0)
    used = np.where(fixed & (X >= 0), np.maximum(nd, X + 1), nd)
    dot_at = np.where(fixed, X, 0)
    dot = ~small & (nd > dot_at + 1)
    moved = dot & (dot_at >= 1)
    t = np.zeros((2, _N_X, 17, _CELL), np.uint8)
    t[1, ..., 0] = ord("-")
    # digit i's byte: 6 for d0, else 7 + i, and one more past a moved dot
    pos = np.where(i == 0, 6, 7 + i + (moved[..., None] & (i > dot_at[..., None])))
    keep = (i < used[..., None]) * np.uint8(0xFF)
    np.put_along_axis(t[0], pos, keep, -1)
    dot_pos = np.broadcast_to(np.where(dot_at >= 1, 8 + dot_at, 7), dot.shape)
    np.put_along_axis(t[0], dot_pos[..., None], np.where(dot, ord("."), 0)[..., None], -1)
    t[1, ..., 1:] = t[0, ..., 1:]
    pre = np.where(np.arange(5) < 1 - X, np.frombuffer(b"0.000", np.uint8), 0)
    t[..., 1:6] = np.where(small, pre, 0)[:, None, :]
    ax = np.abs(X[:, 0])
    exp = np.stack([np.full_like(ax, ord("e")), np.where(X[:, 0] < 0, ord("-"), ord("+")),
                    48 + ax // 10, 48 + ax % 10], axis=1)
    t[..., 27:31] = np.where(fixed, 0, exp)[:, None, :]
    return {"powers": (p_hi, p_lo, *_split(p_hi)),
            "low": low.view(np.uint64)[:, 0], "high": high.view(np.uint64)[:, 0],
            "lead": lead.view(np.uint64)[:, 0],
            "tz": tz, "templates": t.view(np.uint64).reshape(-1, _WORDS)}


def _scaled(y, k, tb):
    """Integer part and fraction of y 10^(16 - k), to a few 1e-15."""
    j = k - (_K_MIN - 1)
    hi, lo, hh, hl = (np.take(t, j) for t in tb["powers"])
    p = y * hi
    yh, yl = _split(y)
    r = (((yh * hh - p) + yh * hl + yl * hh) + yl * hl) + y * lo
    fp = np.floor(p)
    r = (p - fp) + r
    fr = np.floor(r)
    return fp.astype(np.int64) + fr.astype(np.int64), r - fr


def _python_cells(values: list) -> np.ndarray:
    """Cells of Python's %.17g texts, NUL-padded: (len(values), _CELL) uint8."""
    text = b"".join(_FMT(v).encode().ljust(_CELL, b"\0") for v in values)
    return np.frombuffer(bytearray(text), np.uint8).reshape(-1, _CELL)


def _divmod(a, b):
    q = a // b          # by a scalar, numpy multiplies and shifts; np.divmod divides
    return q, a - q * b


def _format_into(a: np.ndarray, out: np.ndarray, seps: np.ndarray) -> None:
    """The %.17g cells of the float64 array a, of shape (m, r), into out, a
    C-contiguous (m, r, 4) uint64 array, with the byte seps[j] last in the
    cells of column j; every byte is written."""
    text = out.view(np.uint8).reshape(-1, _CELL)
    if a.size <= _SMALL:
        text[:] = _python_cells(a.ravel().tolist())
        out.view(np.uint8)[..., -1] = seps
        return
    global _tables
    if _tables is None:
        _tables = _build_tables()
    tb = _tables
    v = a.ravel()
    mag = np.abs(v)
    zero = mag == 0.0
    ok = np.isfinite(mag) & ~zero
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.where(ok, mag, 1.0)))
    ok &= (k >= _K_MIN) & (k <= _K_MAX)
    k = np.where(ok, k, 0).astype(np.int64)
    y = np.where(ok, mag, 1.0)
    F, frac = _scaled(y, k, tb)
    off = (F < 10 ** 16) | (F >= 10 ** 17)
    if off.any():                           # log10 missed a power of ten
        w = np.flatnonzero(off)
        k[w] += np.where(F[w] < 10 ** 16, -1, 1)
        F[w], frac[w] = _scaled(y[w], k[w], tb)
        ok &= (F >= 10 ** 16) & (F < 10 ** 17)
    ok &= np.abs(frac - 0.5) >= _TIE
    D = F + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    D[~ok] = 0                              # zeros print "0"; the rest is replaced
    k[~ok] = 0
    top, low = _divmod(D, 10 ** 8)
    d0, mid = _divmod(top, 10 ** 8)
    g = (*_divmod(mid, 10 ** 4), *_divmod(low, 10 ** 4))
    tz = np.take(tb["tz"], g[3])
    for w in (2, 1, 0):                     # trailing zeros past the last group
        short = np.flatnonzero(tz == 4 * (3 - w))
        if not short.size:
            break
        tz[short] += np.take(tb["tz"], g[w][short])
    cells = out.reshape(-1, _WORDS)
    cells[:, 0] = np.take(tb["lead"], d0)
    for w in (1, 2):
        cells[:, w] = np.take(tb["low"], g[2 * w - 2]) | np.take(tb["high"], g[2 * w - 1])
    cells[:, 3] = ~np.uint64(0)
    # fixed notation, k >= 1, digits after d_k: the dot follows d_k, and
    # those digits move up one byte
    moved = np.flatnonzero((k >= 1) & (tz < 16 - k))
    if moved.size:
        # the k present; np.unique would do, but its first call loads 1 MB
        for x in np.flatnonzero(np.bincount(k[moved])).tolist():
            r = moved[k[moved] == x]
            text[r, 9 + x:25] = text[r, 8 + x:24]
            text[r, 8 + x] = 0xFF
    tpl = (np.signbit(v) * _N_X + (k - _X_MIN)) * 17 + (16 - tz)
    out &= np.take(tb["templates"], tpl, axis=0).reshape(out.shape)
    bad = np.flatnonzero(~ok & ~zero)
    if bad.size:
        text[bad] = _python_cells(v[bad].tolist())
    out.view(np.uint8)[..., -1] = seps


def _slot(rows: np.ndarray, start: int) -> np.ndarray:
    """The float cells at byte `start` of the rows of a uint8 row buffer,
    one _CELL_ITEM a row."""
    return rows[:, start:start + _CELL].view(_CELL_ITEM)[:, 0]


def _float_cells(a: np.ndarray, seps: np.ndarray) -> list:
    """The cells of the columns of the float64 array a, of shape (m, r),
    column j ending in the byte seps[j]: per column, m _CELL_ITEM cells.
    A column of one bit pattern is formatted once and repeated (a
    zero-stride view); the rest are formatted in one _format_into call."""
    bits = a.view(np.int64)
    same = (bits == bits[:1]).all(axis=0) & (len(a) > 1)
    out = [None] * a.shape[1]
    for js, m in ((np.flatnonzero(same), 1), (np.flatnonzero(~same), len(a))):
        if js.size:
            cells = np.empty((m, js.size, _WORDS), np.uint64)
            _format_into(a[:m, js], cells, seps[js])
            for q, j in enumerate(js):
                out[j] = np.broadcast_to(cells[:, q].view(_CELL_ITEM)[:, 0], (len(a),))
    return out


def format_column(values) -> np.ndarray:
    """The text cells of a float column, for a column written in many
    blocks: uint8 of shape (n, w + 1), each %.17g text ("-0" for -0.0)
    left-aligned and NUL-padded to the widest text, w, and a last NUL byte
    that the writer fills with the separator."""
    a = np.asarray(values, dtype=float).reshape(-1, 1)
    cells = np.empty((len(a), _CELL), np.uint8)
    cells.view(_CELL_ITEM)[:, 0] = _float_cells(a, np.zeros(1, np.uint8))[0]
    size = np.count_nonzero(cells, axis=1)
    text = np.zeros((len(a), int(size.max(initial=0)) + 1), np.uint8)
    # a boolean mask fills row by row: the NUL-free text, left-aligned
    text[np.arange(text.shape[1]) < size[:, None]] = np.frombuffer(
        cells.tobytes().translate(None, b"\0"), np.uint8)
    return text


def _rows(block) -> int:
    n = len(block[0])
    if any(len(c) != n for c in block):
        raise ConfigurationError("table columns differ in length")
    return n


def _slot_ends(widths) -> tuple:
    """The end offsets of the slots of a row whose columns have these
    widths (0 for a float cell), and the rows of one piece: as many as fit
    _CHUNK_BYTES of row slots, and at least one."""
    ends = np.cumsum([w or _CELL for w in widths])
    return ends, max(1, _CHUNK_BYTES // int(ends[-1]))


class RowLayout:
    """The rows of CSV tables as one reusable byte buffer, laid out once
    for every block of every table written with it.

    `header` names the columns.  `shared` maps column names to float
    values that are the same in every block (the grid nodes, a zero
    imaginary part): each is formatted once, into text cells as wide as
    its widest text plus the separator, and laid into the buffer once,
    separators included.  A block holds the other columns, in header
    order: float arrays, or the text cells of :func:`format_column` (a
    zero-stride ``np.broadcast_to`` of one cell row repeats a value); with
    shared columns, every block has their row count.  A float column's
    slot is one 32-byte cell.

    Blocks are cut into pieces of at most _CHUNK_BYTES of row slots.  The
    float cells of consecutive pieces, of one block, of many blocks or of
    many tables, are formatted together, up to _CHUNK_BYTES // _CELL
    cells a call; each piece is then laid out by copying its text and
    float cells into the buffer, which is laid out again when a block's
    text widths change.  The JSON writer reads the same layout: it puts
    the shared floats back into every block.
    """

    def __init__(self, header, shared=None):
        self.header = list(header)
        self.shared = {self.header.index(name): np.asarray(v, dtype=float)
                       for name, v in (shared or {}).items()}
        self._cells = None          # the shared text cells, made for the first CSV block
        self._widths = None         # the slot widths the buffer is laid out for
        self._seps = np.full(len(self.header), ord(","), np.uint8)
        self._seps[-1] = ord("\n")

    def columns(self, block, shared: dict) -> list:
        """The block's columns in header order, with `shared` (the floats,
        or their text cells) at the shared places."""
        if len(block) + len(shared) != len(self.header):
            raise ConfigurationError(
                f"a block of {len(block)} columns for {len(self.header)} header names "
                f"and {len(shared)} shared columns")
        rest = iter(block)
        return [shared[j] if j in shared else next(rest) for j in range(len(self.header))]

    def _lay(self, cols, widths, n: int) -> None:
        """Slot offsets for these widths, and a buffer, for a block of n
        rows, with the shared text and every separator in place."""
        ends, self._step = _slot_ends(widths)
        starts = ends - [w or _CELL for w in widths]
        self._buf = np.zeros((n if self.shared else min(n, self._step), ends[-1]), np.uint8)
        self._starts = starts
        for j in self.shared:
            self._buf[:, starts[j]:ends[j]] = cols[j]
        self._buf[:, ends - 1] = self._seps
        # the block's own text columns: (column, first byte, separator byte);
        # a block's text cells fill their slots up to the separator
        self._text = [(j, starts[j], ends[j] - 1) for j, w in enumerate(widths)
                      if w and j not in self.shared]
        self._widths = widths

    def rows_text(self, tables):
        """The CSV rows of `tables`, (key, blocks) pairs, as (key, text)
        pairs: (key, None) where a table begins, then the bytes of its
        rows, one piece at a time.  Pieces are gathered, across blocks and
        tables, while their float columns stay the same and their float
        cells fit _CHUNK_BYTES // _CELL (a row without floats counts as
        one cell), and each gathering is formatted in one call."""
        if self._cells is None:
            self._cells = {j: format_column(v) for j, v in self.shared.items()}
        cap = _CHUNK_BYTES // _CELL
        chunk, size, floats, widths = [], 0, (), None
        for key, blocks in tables:
            chunk.append((key, None))
            for block in blocks:
                cols = self.columns(block, self._cells)
                n = _rows(cols)
                if not n:
                    continue
                w = tuple(c.shape[1] if np.ndim(c) == 2 else 0 for c in cols)
                if w != widths:
                    widths, step = w, _slot_ends(w)[1]
                    new = tuple(j for j, x in enumerate(w) if not x)
                    if new != floats:
                        yield from self._flush(chunk, floats)
                        chunk, size, floats = [], 0, new
                per_row = max(1, len(floats))
                for i in range(0, n, step):
                    m = min(step, n - i)
                    if size + m * per_row > cap:
                        yield from self._flush(chunk, floats)
                        chunk, size = [], 0
                    chunk.append((key, (cols, widths, n, i, m)))
                    size += m * per_row
        yield from self._flush(chunk, floats)

    def _flush(self, chunk: list, floats: tuple):
        """Format the float cells of the pieces of `chunk` in one call, then
        lay out each piece's rows in turn and yield them."""
        pieces = [p for _, p in chunk if p is not None]
        a = np.empty((sum(p[4] for p in pieces), len(floats)))
        off = 0
        for cols, _, _, i, m in pieces:
            for q, j in enumerate(floats):
                a[off:off + m, q] = cols[j][i:i + m]
            off += m
        cells = _float_cells(a, self._seps[list(floats)]) if a.size else []
        off = 0
        for key, piece in chunk:
            if piece is None:
                yield key, None
                continue
            cols, widths, n, i, m = piece
            if widths != self._widths or (not self.shared and len(self._buf) < m):
                self._lay(cols, widths, n)
            rows = self._buf[i:i + m] if self.shared else self._buf[:m]
            for j, start, sep in self._text:
                rows[:, start:sep] = cols[j][i:i + m, :-1]
            for q, j in enumerate(floats):
                _slot(rows, self._starts[j])[...] = cells[q][off:off + m]
            off += m
            yield key, rows.tobytes().translate(None, b"\0")


def write_tables(table, tables) -> None:
    """Write CSV tables of one layout: each (path, blocks) pair of
    `tables` is a file of the header line, then the rows of its blocks.

    `table` is a :class:`RowLayout`, whose shared columns the blocks leave
    out, or the header, for tables without shared columns; a block is a
    list of equally long columns as :class:`RowLayout` takes them.  The
    float cells of consecutive blocks and tables are formatted together,
    and memory is bounded by one chunk of them, so a caller can stream
    large tables, and many small ones, one block at a time.
    """
    layout = table if isinstance(table, RowLayout) else RowLayout(table)
    head = (",".join(layout.header) + "\n").encode("ascii")
    fh = None
    try:
        for path, text in layout.rows_text(tables):
            if text is None:
                if fh is not None:
                    fh.close()
                fh = Path(path).open("wb")
                text = head
            fh.write(text)
    finally:
        if fh is not None:
            fh.close()


def json_text(payload) -> str:
    """Canonical text of a JSON artefact: json.dumps with indent 2 and
    sorted keys, plus a newline.

    NaN and infinities have no JSON spelling (Python would write the
    non-standard tokens NaN and Infinity), so they raise a NumericalError
    and nothing is written.
    """
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite value in a JSON artefact: {exc}") from None


def write_json_table(path, table, blocks) -> None:
    """Write the JSON table {"columns": header, "rows": [...]} of float
    blocks (`table` and a block as for :func:`write_tables`, the shared
    columns of a layout put back into every block), byte for byte what
    :func:`json_text` gives, one block at a time.  A non-finite value
    raises a NumericalError and leaves no file."""
    layout = table if isinstance(table, RowLayout) else RowLayout(table)
    path = Path(path)
    head = json_text({"columns": layout.header, "rows": []})[:-len("[]\n}\n")]
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="ascii") as fh:
            fh.write(head + "[")
            sep = "\n"
            for block in blocks:
                block = layout.columns(block, layout.shared)
                n = _rows(block)
                if not n:
                    continue
                a = np.column_stack([np.asarray(c, dtype=float) for c in block])
                if not np.isfinite(a).all():
                    raise NumericalError("non-finite value in a JSON artefact")
                row = "    [\n" + ",\n".join(["      %s"] * a.shape[1]) + "\n    ]"
                fh.write(sep + ",\n".join([row] * n) % tuple(map(repr, a.ravel().tolist())))
                sep = ",\n"
            fh.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
        part.replace(path)
    finally:
        part.unlink(missing_ok=True)
