"""Host-speed probe: rescales measured times to one reference host speed.

The benchmark's host is a shared 2-vCPU virtual machine whose speed
switches between two levels (a fixed probe reads about 0.10 ms in the
fast state and 0.17 ms in the slow one) for spans of seconds to minutes.
Untouched, one verify pass read 4.5 to 7.9 s on the same code.  The
probe measures that speed where and when the work runs: while a pass is
timed, a SIGALRM handler runs `probe()` every INTERVAL_S of wall time in
the worker's own thread, on the same core as the work, and records how
long it took.

The probes cut a pass into stretches of the program's own work; stretch
i, of dt_i seconds, ends where probe i starts, and the last stretch
runs from the last probe to the end of the pass.  Then

    work_s = sum of dt_i          (the pass without the probe's time)
    ref_s  = sum of dt_i * REF_PROBE_S / p_i

with p_i the duration of the probe that ends stretch i (the last probe
for the last stretch).  ref_s is the time the pass would have taken at
the speed where the probe takes REF_PROBE_S: work done in dt at a speed
where the probe takes p is proportional to dt / p.  Weighting by dt
matters where the signal waits for a long numpy call to return: that
stretch is long and gets the speed measured right after it.
baseline/README.md compares the spread of raw and rescaled pass times.

The probe is fixed benchmark code, never the program's: a change that
speeds up the program does not speed up the probe.  It is a short mix of
the operations the program spends its time on (small-array numpy
arithmetic inside a Python loop, plain integer arithmetic, a vectorised
transcendental), so it slows down with the host as the program does.
It assumes the program runs in one thread: a program thread that held
the interpreter lock would delay the handler and read as a slow host.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# probe duration on the baseline host in its fast state (baseline/README.md);
# a scale only: the parent and a change are rescaled by the same constant
REF_PROBE_S = 1.04e-4
INTERVAL_S = 0.01

_A = np.linspace(0.0, 1.0, 300)
_B = _A[::-1].copy()
_C = np.linspace(0.0, 3.0, 4000)
# the probe writes only into these and allocates no array of its own
_U, _T, _S = np.empty_like(_A), np.empty_like(_A), np.empty_like(_C)
# start and duration of each probe of the active Sampler: 655 s of
# samples at INTERVAL_S
_STARTS, _TOOK = np.zeros(1 << 16), np.zeros(1 << 16)


def probe() -> int:
    np.copyto(_U, _A)
    for _ in range(25):
        np.multiply(_B, _U, out=_T)
        np.multiply(_T, 0.5, out=_T)
        np.add(_U, _T, out=_U)
    s = 0
    for i in range(1000):
        s += i * i
    np.sin(_C, out=_S)
    return s


def sample(count: int) -> list:
    """Durations of `count` back-to-back probes."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out


def speed_factor(durations: list) -> float:
    """mean(REF_PROBE_S / duration): 1 at the reference speed, below 1 on
    a slower host."""
    return statistics.fmean(REF_PROBE_S / d for d in durations)


def rescale(begin: float, end: float, probes) -> tuple:
    """(work_s, ref_s) of a pass timed from `begin` to `end` during which
    the probe ran as `probes`, rows of (start, duration).  A pass with no
    probe (shorter than INTERVAL_S) is not rescaled."""
    probes = np.asarray(probes, dtype=float).reshape(-1, 2)
    if not len(probes):
        return end - begin, end - begin
    starts, took = probes[:, 0], probes[:, 1]
    ends = np.concatenate(([begin], starts + took))
    stretch = np.append(starts - ends[:-1], end - ends[-1])
    speed = REF_PROBE_S / np.append(took, took[-1])
    return float(stretch.sum()), float(stretch @ speed)


class Sampler:
    """Context manager: runs probe() from SIGALRM every INTERVAL_S of wall
    time while active.  Afterwards `begin` and `end` bound the active time
    and `probes` holds a (start, duration) row per probe; `rescale()`
    gives (work_s, ref_s).

    The handler runs at moments that vary with the host's speed, so it
    must leave the program's memory use alone: it stores into a buffer
    allocated at import, before the program runs, and starts no garbage
    collection.  With collections allowed inside it, verify's peak RSS
    read 171 MB instead of 166 MB in 5 of 18 runs; without, 0 of 12.
    It creates no object the collector tracks either: with one tuple per
    call (a 2-d index into the buffer) verify's peak RSS read 171 MB on
    every run."""

    def __init__(self):
        self._n = 0
        self._old = None

    def _tick(self, signum, frame):
        # a collection started here would run at a moment the program
        # alone never reaches and change which of its objects are promoted
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        if self._n < _TOOK.size:
            _STARTS[self._n] = t0
            _TOOK[self._n] = time.perf_counter() - t0
            self._n += 1
        if enabled:
            gc.enable()

    def __enter__(self):
        self._n = 0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.begin = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        self.probes = np.stack((_STARTS[:self._n], _TOOK[:self._n]), axis=1)
        return False

    def rescale(self) -> tuple:
        return rescale(self.begin, self.end, self.probes)
