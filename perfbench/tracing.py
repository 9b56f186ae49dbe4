"""Span recording from outside the program.

`install` wraps the public functions of the traced slwave modules in the
namespace of every slwave module that calls them (including the defining
module itself, so intra-module calls are seen too), plus the CLI command
table, the verification check table and the Workspace artefact builders.
Each call becomes a span (name, start, end, parent) held in memory by a
Recorder; nothing is written until the run ends.  `uninstall` restores
the original objects, so untraced passes run the unmodified program.

A few spans also read numerical-health values from the objects their
call returns (Wronskian drift, admissible nodes, min |det T|, cond G,
route residual, imaginary parts).  That happens after the span closes, so
it counts as tracing overhead and never as layer time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("cli", "verify", "sturm", "control", "model", "operator", "grid")
# modules whose namespaces hold call sites; the last three are not layers
# of their own, but they call into traced ones
CALLERS = LAYERS + ("geometry", "analytic", "mat2")
WORKSPACE_BUILDERS = ("potential", "eigensystem", "kernel", "gauge", "coefficients")


class Recorder:
    """Flat span list; a span is [name, start, end, parent index or -1]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.health = []     # (span name, {value name: number})
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, probe=None):
        """`name` is a span name, or a function of the call arguments that
        returns one; `probe` maps the returned object to health values."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            idx = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if probe is not None:
                self.health.append((span, probe(out)))
            return out
        return traced


def _drift(kb) -> dict:
    return {"wronskian_drift": abs(kb.phi0_at_l + kb.phil_at_0) / abs(kb.phi0_at_l)}


def _gauge(gd) -> dict:
    ok = np.asarray(gd.admissible)
    G = np.asarray(gd.G[ok], dtype=complex)
    return {"admissible_nodes": float(np.count_nonzero(ok)),
            "min_abs_detT": float(np.min(np.abs(np.asarray(gd.detT[ok], dtype=complex)))),
            "cond_G_max": float(np.max(np.linalg.cond(G)))}


_HEALTH = {
    "sturm.dirichlet_eigensystem": lambda es: {"modes": float(es.count)},
    "sturm.kernel_basis": _drift,
    "model.default_gauge": _gauge,
    "operator.assemble_coefficients": lambda mc: {"route_residual": float(mc.route_residual)},
    "operator.recover_potential": lambda rr: {"max_imag": float(rr.max_imag)},
}


def recover_span(mc, sampled_derivatives=False, *rest, **kwargs):
    """The observer path of recover_potential is its own span."""
    return ("operator.recover_observer" if sampled_derivatives
            else "operator.recover_potential")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _get(holder, key):
    return holder[key] if isinstance(holder, (dict, list)) else getattr(holder, key)


def _set(holder, key, value):
    if isinstance(holder, (dict, list)):
        holder[key] = value
    else:
        setattr(holder, key, value)


def install(rec: Recorder) -> list:
    """Wrap every call site; returns the undo list for `uninstall`."""
    mods = {m: importlib.import_module(f"slwave.{m}") for m in CALLERS}
    wrapped = {}
    for layer in LAYERS:
        for name, fn in _public_functions(mods[layer]):
            if layer == "cli" and name == "main":
                continue     # the benchmark opens the cli.main span itself
            span = f"{layer}.{name}"
            probe = _HEALTH.get(span)
            wrapped[fn] = rec.wrap(recover_span if name == "recover_potential" else span,
                                   fn, probe)
    undo = []

    def patch(holder, key, new):
        undo.append((holder, key, _get(holder, key)))
        _set(holder, key, new)

    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patch(mod, name, wrapped[obj])
    cli = mods["cli"]
    for cmd, fn in list(cli._COMMANDS.items()):
        patch(cli._COMMANDS, cmd, rec.wrap(_command_span(cmd), fn))
    verify = mods["verify"]
    for i, (name, tol, sense, fn) in enumerate(list(verify._CHECKS)):
        patch(verify._CHECKS, i, (name, tol, sense, rec.wrap(f"verify.{name}", fn)))
    for meth in WORKSPACE_BUILDERS:
        patch(verify.Workspace, meth,
              rec.wrap("verify.workspace", getattr(verify.Workspace, meth)))
    return undo


def _command_span(cmd: str):
    """`recover` reading a coefficient table is its own span, recover_table."""
    def name(cfg):
        if cmd == "recover" and cfg.coefficients_path:
            return "cli.recover_table"
        return f"cli.{cmd}"
    return name


def uninstall(undo: list) -> None:
    for holder, key, old in reversed(undo):
        _set(holder, key, old)


def _child_time(spans) -> list:
    """Per span: total duration of its direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def busy_and_self(spans) -> tuple:
    """Per span name: busy time (durations of spans with no ancestor of the
    same name, so nested lazy builds count once) and self time (duration
    minus the time of the direct children, which run one after another)."""
    busy, self_t = {}, {}
    child_time = _child_time(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        self_t[name] = self_t.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + (end - start)
    return busy, self_t


def root_time(spans) -> float:
    """Total duration of the top-level spans."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def span_problems(spans, wall: float, max_remainder_share: float = 0.01,
                  slack: float = 1e-9) -> list:
    """What makes a traced pass unusable: a span whose children take longer
    than it does (negative self time), top-level spans that take longer
    than the pass, or a pass whose untraced remainder is more than
    `max_remainder_share` of its wall time.  `slack` absorbs rounding."""
    found = [f"{spans[i][0]}: self time {(s[2] - s[1]) - c:.3e} s"
             for i, (s, c) in enumerate(zip(spans, _child_time(spans)))
             if (s[2] - s[1]) - c < -slack]
    remainder = wall - root_time(spans)
    if remainder < -slack:
        found.append(f"top-level spans exceed the wall time by {-remainder:.3e} s")
    elif remainder > max_remainder_share * wall:
        found.append(f"untraced remainder {remainder:.3e} s of a {wall:.3e} s pass")
    return found
