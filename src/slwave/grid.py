"""Uniform grids on [0, l], grid functions, quadrature and differencing.

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
    "central_diff", "diff_samples", "interp_cubic", "simpson_sum",
    "format_column", "write_table", "json_text", "write_csv", "read_csv",
]


@dataclass(frozen=True)
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
        object.__setattr__(self, "x", nodes)

    @property
    def h(self) -> float:
        return self.l / self.n

    @property
    def size(self) -> int:
        return self.n + 1


def build_grid(l: float, n: int) -> Grid:
    """Validated grid constructor."""
    return Grid(float(l), int(n))


@dataclass(frozen=True)
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
        object.__setattr__(self, "values", v)

    # small arithmetic surface, enough for the tests and the library itself
    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, c) -> "GridFunction":
        return GridFunction(self.grid, self.values * complex(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def conj(self) -> "GridFunction":
        return GridFunction(self.grid, np.conj(self.values))

    def _check(self, other: "GridFunction"):
        if other.grid.n != self.grid.n or other.grid.l != self.grid.l:
            raise ConfigurationError("grid functions live on different grids")

    def norm(self) -> float:
        """L2 norm via the grid quadrature."""
        return float(np.sqrt(quad(GridFunction(self.grid, self.values * np.conj(self.values))).real))


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
    """Composite Simpson over equispaced samples.

    An odd subinterval count is handled with a 3/8-rule block on the last
    three cells, keeping fourth order.  Needs at least 5 samples.
    """
    values = np.asarray(values)
    m = values.shape[0] - 1
    if m < 4:
        raise ConfigurationError(f"simpson_sum needs >= 5 samples, got {m + 1}")
    if m % 2 == 0:
        return (h / 3.0) * np.sum(_simpson_pattern(m, values.real.dtype) * values)
    head = simpson_sum(values[: m - 3 + 1], h)  # m-3 is even
    tail = (3.0 * h / 8.0) * (values[m - 3] + 3.0 * values[m - 2] + 3.0 * values[m - 1] + values[m])
    return head + tail


def quad(f: GridFunction) -> complex:
    """Integral of f over [0, l] by composite Simpson."""
    w = _simpson_weights(f.grid.n, f.grid.h)
    return complex(np.sum(w * f.values))


def inner(f: GridFunction, g: GridFunction) -> complex:
    """L2 inner product (f, g) = int f conj(g)."""
    f._check(g)
    w = _simpson_weights(f.grid.n, f.grid.h)
    return complex(np.sum(w * f.values * np.conj(g.values)))


def diff_samples(values: np.ndarray, h: float, order: int = 1, accuracy: int = 2) -> np.ndarray:
    """Finite-difference derivative of equispaced samples.

    accuracy=2 uses the classical central stencils with one-sided
    second-order ends; accuracy=4 uses five-point stencils with shifted
    five-point ends.  Needs at least 5 samples for accuracy 4.
    """
    v = np.asarray(values)
    m = v.shape[0]
    out = np.empty_like(v, dtype=np.result_type(v.dtype, float))
    if order not in (1, 2):
        raise ConfigurationError(f"derivative order must be 1 or 2, got {order}")
    if accuracy == 2:
        if order == 1:
            out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
            out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        else:
            out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
            out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
            out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
        return out
    if accuracy != 4:
        raise ConfigurationError(f"accuracy must be 2 or 4, got {accuracy}")
    if m < 5:
        raise ConfigurationError("accuracy-4 differencing needs >= 5 samples")
    if order == 1:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
        c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * h)
        out[0] = c @ v[:5]
        out[1] = c1 @ v[:5]
        out[-2] = -(c1 @ v[-5:][::-1])
        out[-1] = -(c @ v[-5:][::-1])
    else:
        out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]) / (12.0 * h * h)
        if m < 6:
            raise ConfigurationError("accuracy-4 second derivative needs >= 6 samples")
        c = np.array([45.0, -154.0, 214.0, -156.0, 61.0, -10.0]) / (12.0 * h * h)
        c1 = np.array([10.0, -15.0, -4.0, 14.0, -6.0, 1.0]) / (12.0 * h * h)
        out[0] = c @ v[:6]
        out[1] = c1 @ v[:6]
        out[-2] = c1 @ v[-6:][::-1]
        out[-1] = c @ v[-6:][::-1]
    return out


def central_diff(f: GridFunction, order: int = 1) -> GridFunction:
    """Second-order derivative samples of a grid function (one-sided ends)."""
    return GridFunction(f.grid, diff_samples(f.values, f.grid.h, order=order, accuracy=2))


def interp_cubic(f: GridFunction, xq) -> np.ndarray:
    """Cubic Lagrange interpolation of a grid function at points xq.

    Uses the four nodes around each query point; fourth-order accurate for
    smooth data.  Queries must lie inside [0, l].
    """
    xq_arr = np.atleast_1d(np.asarray(xq, dtype=float))
    g = f.grid
    if np.any(xq_arr < -1e-12) or np.any(xq_arr > g.l * (1 + 1e-12)):
        raise ConfigurationError("interpolation query outside [0, l]")
    h = g.h
    j = np.clip((xq_arr / h).astype(int) - 1, 0, g.n - 3)
    out = np.zeros(xq_arr.shape, dtype=complex)
    for k in range(4):
        xk = g.x[j + k]
        lk = np.ones_like(xq_arr)
        for mth in range(4):
            if mth == k:
                continue
            xm = g.x[j + mth]
            lk = lk * (xq_arr - xm) / (xk - xm)
        out += lk * f.values[j + k]
    if np.isscalar(xq) or np.asarray(xq).ndim == 0:
        return out[0]
    return out


_FMT = "%.17g".__mod__
# cells formatted per chunk of a block: bounds the strings held at once
_CHUNK_CELLS = 1 << 13


def format_column(values) -> list:
    """%.17g strings of a float column; each distinct value, keyed by its
    bit pattern (so -0.0 stays "-0"), is formatted once."""
    a = np.asarray(values, dtype=float)
    keys, inverse = np.unique(a.view(np.int64), return_inverse=True)
    if keys.size == a.size:
        return list(map(_FMT, a.tolist()))
    strs = np.array(list(map(_FMT, keys.view(float).tolist())), dtype=object)
    return strs[inverse].tolist()


def write_table(path, header, blocks) -> None:
    """Write a CSV table: the header line, then the rows of each block.

    A block is a list of equally long columns, each a float array or a
    list of strings already formatted by :func:`format_column`.  Blocks are
    formatted column by column in chunks of bounded size, so a caller can
    stream a large table one block at a time.
    """
    with Path(path).open("w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            n = len(block[0])
            if any(len(c) != n for c in block):
                raise ConfigurationError("table columns differ in length")
            step = max(1, _CHUNK_CELLS // len(block))
            for i in range(0, n, step):
                cols = [c[i:i + step] if isinstance(c, list) else
                        format_column(c[i:i + step]) for c in block]
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def json_text(payload) -> str:
    """Canonical text of a JSON artefact: indent 2, sorted keys, newline.

    NaN and infinities have no JSON spelling (Python would write the
    non-standard tokens NaN and Infinity), so they raise a NumericalError
    and nothing is written.
    """
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"non-finite value in a JSON artefact: {exc}") from None


def write_csv(f: GridFunction, path) -> None:
    """Write a grid function as CSV with columns x,re,im at full precision."""
    write_table(path, ["x", "re", "im"], [[f.grid.x, f.values.real, f.values.imag]])


def read_csv(path) -> GridFunction:
    """Read a grid function written by :func:`write_csv`."""
    path = Path(path)
    raw = np.genfromtxt(path, delimiter=",", skip_header=1)
    if raw.ndim != 2 or raw.shape[1] != 3:
        raise ConfigurationError(f"{path} is not an x,re,im table")
    x = raw[:, 0]
    n = x.shape[0] - 1
    grid = build_grid(float(x[-1]), n)
    if not np.allclose(grid.x, x, rtol=0.0, atol=1e-12 * max(1.0, x[-1])):
        raise ConfigurationError(f"{path} nodes are not a uniform grid on [0, l]")
    return GridFunction(grid, raw[:, 1] + 1j * raw[:, 2])
