"""Seeded problem generator for the benchmark workloads.

Every input the program sees is an INI config written from a Problem; the
seed reaches the program only through those files (and, for `verify`,
through its own `--seed` argument).  The closed forms are evaluated here
with plain numpy, independently of the program's expression parser, so
the recovery checks compare against an outside truth.

Potentials have the form c + a*cos(w x) + b*sin(w2 x) + bump(...) with
c in [1.5, 4] and |a| + |b| + |bump amplitude| <= 0.9 c, so q > 0.1 c on
[0, l]: the Dirichlet operator is positive (lambda_1 > 0) and zero is never
an eigenvalue, which the kernel basis and every wave path require.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

L = 1.0
GRID_N = 2000            # n % 4 == 0 for the half-grid Simpson rule
WAVE_MODES = 300         # n >= 6 * modes for the shooting solver
SNAPSHOTS = 48
TABLE_MODES = (10, 40)
BUMP_SMOOTHNESS = 6      # controls are differentiated twice in the Duhamel term


@dataclass(frozen=True)
class Bump:
    """amp * (4 u (1 - u))**p on [center - width/2, center + width/2]."""

    center: float
    width: float
    amp: float
    p: int = BUMP_SMOOTHNESS

    def expr(self) -> str:
        return f"bump({self.center!r}, {self.width!r}, {self.amp!r}, {self.p})"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = (x - (self.center - 0.5 * self.width)) / self.width
        inside = (u > 0.0) & (u < 1.0)
        return np.where(inside, self.amp * (4.0 * u * (1.0 - u)) ** self.p, 0.0)


@dataclass(frozen=True)
class Potential:
    c: float
    a: float
    w: float
    b: float
    w2: float
    bump: Bump

    def expr(self) -> str:
        def term(coef, atom):
            return f"{'-' if coef < 0 else '+'} {abs(coef)!r}*{atom}"
        return " ".join([repr(self.c), term(self.a, f"cos({self.w!r})"),
                         term(self.b, f"sin({self.w2!r})"),
                         term(self.bump.amp, Bump(self.bump.center, self.bump.width,
                                                  1.0, self.bump.p).expr())])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.c + self.a * np.cos(self.w * x) + self.b * np.sin(self.w2 * x)
                + self.bump(x))

    def lower_bound(self) -> float:
        return self.c - abs(self.a) - abs(self.b) - abs(self.bump.amp)

    def upper_bound(self) -> float:
        return self.c + abs(self.a) + abs(self.b) + abs(self.bump.amp)


@dataclass(frozen=True)
class Problem:
    """One seeded problem: a potential plus what each workload needs."""

    index: int
    q: Potential
    modes: int
    f0: Bump
    fl: Bump
    times: tuple = field(default_factory=tuple)

    def record(self) -> dict:
        return {"index": self.index, "potential": self.q.expr(),
                "modes": self.modes, "f0": self.f0.expr(), "fl": self.fl.expr(),
                "times": list(self.times), "params": asdict(self)}


def reference() -> Problem:
    """The pinned problem every waves/tables pass runs next to its seeded
    ones.  Its accuracy values repeat exactly on every seed, so they can
    carry a regression bound; the seeded values span decades between draws
    and are only held to their acceptance tolerances."""
    edges = 0.1 * L + 0.9 * L * np.arange(SNAPSHOTS + 1) / SNAPSHOTS
    times = tuple(_r(0.5 * (lo + hi)) for lo, hi in zip(edges[:-2], edges[1:-1])) + (L,)
    return Problem(-1, Potential(2.5, 0.8, 3.0, -0.5, 5.0, Bump(0.3, 0.2, 0.4)), 25,
                   Bump(0.14, 0.2, 1.0), Bump(0.12, 0.16, -0.8), times)


def _r(x: float) -> float:
    """Round drawn parameters so configs stay readable; still seeded."""
    return round(float(x), 4)


def _potential(rng: np.random.Generator) -> Potential:
    c = _r(rng.uniform(1.5, 4.0))
    shares = rng.dirichlet((2.0, 2.0, 1.0)) * rng.uniform(0.3, 0.9)
    signs = rng.choice((-1.0, 1.0), size=3)
    a, b, amp = (_r(s * f * c) for s, f in zip(signs, shares))
    # rounding may push the sum past 0.9 c by at most 1.5e-4
    bump = Bump(_r(rng.uniform(0.15, 0.85) * L), _r(rng.uniform(0.1, 0.4) * L), amp)
    return Potential(c, a, _r(rng.uniform(1.0, 8.0)), b, _r(rng.uniform(1.0, 8.0)), bump)


def _control(rng: np.random.Generator) -> Bump:
    """Bump control whose support starts in [0.02, 0.06] l, so its 2-jet
    vanishes at t = 0; widths of 0.12-0.25 l stay resolved by 300 modes."""
    width = _r(rng.uniform(0.12, 0.25) * L)
    start = rng.uniform(0.02, 0.06) * L
    amp = _r(rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0)))
    return Bump(_r(start + 0.5 * width), width, amp)


def _times(rng: np.random.Generator) -> tuple:
    """One jittered time per SNAPSHOTS-th of [0.1 l, l], the last one at l,
    so the Duhamel work (which grows with t) varies little between seeds."""
    edges = 0.1 * L + 0.9 * L * np.arange(SNAPSHOTS + 1) / SNAPSHOTS
    ts = [_r(lo + rng.uniform(0.2, 1.0) * (hi - lo))
          for lo, hi in zip(edges[:-2], edges[1:-1])]
    return tuple(ts) + (L,)


def generate(seed: int, count: int) -> list:
    """`count` problems drawn from `seed`; the same seed gives the same list."""
    rng = np.random.default_rng([seed, 0x51E])
    out = []
    for i in range(count):
        q = _potential(rng)
        modes = int(rng.integers(TABLE_MODES[0], TABLE_MODES[1] + 1))
        if i % 2:
            # pairs share one total, so a tables pass (two problems) writes
            # the same number of eigenfunctions on every seed
            modes = sum(TABLE_MODES) - out[-1].modes
        out.append(Problem(i, q, modes, _control(rng), _control(rng), _times(rng)))
    return out


def table_config(p: Problem, coefficients: str = "") -> str:
    """Config for eigs/model/recover; with `coefficients` set, recover
    reads that model table (the observer path)."""
    extra = f"coefficients = {coefficients}\n" if coefficients else ""
    return (f"[problem]\nl = {L!r}\npotential = {p.q.expr()}\n{extra}\n"
            f"[numerics]\ngrid_n = {GRID_N}\nmodes = {p.modes}\n")


def wave_config(p: Problem) -> str:
    return (f"[problem]\nl = {L!r}\npotential = {p.q.expr()}\n\n"
            f"[numerics]\ngrid_n = {GRID_N}\nmodes = {WAVE_MODES}\nfdtd = on\n\n"
            f"[controls]\nf0 = {p.f0.expr()}\nfl = {p.fl.expr()}\n"
            f"times = {', '.join(repr(t) for t in p.times)}\n")
