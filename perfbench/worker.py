"""One benchmark run in one process: a closed loop that issues one CLI
command at a time through `slwave.cli.main`, times whole passes, and checks
every output.  Started by run.py with the BLAS thread count pinned.

A run first executes a warm-up pass, untimed and without the probe: the
pinned reference problem, or for `verify` its own command.  It fills
caches and finishes lazy set-up on the same commands the timed passes
use, fixes the reference digest of the artefacts it writes, and is the
pass whose peak RSS the run reports.  Timed passes follow until
`--seconds` is used up; the first one fixes the reference digest of the
other artefacts.  With `--trace 0` every timed pass runs under the
host-speed probe (speed.py), which rescales its time to the reference
host speed.  Peak RSS is read before the probe first runs: with it, the
heap's layout varied from run to run, and verify's peak RSS read 167 or
200 MB.  With `--trace 1` untraced and traced passes alternate, without
the probe, so the tracing overhead is the difference of their medians
within one process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import problems
import speed
import tracing
from slwave import cli

ROOT = Path(__file__).resolve().parents[1]
MIN_PASSES = 3            # untraced timed passes; a traced run needs 2 of each
# seeded problems per timed pass: two for tables average out the cost of
# writing 10 to 40 eigenfunction files; one simulate already takes ~4 s
PROBLEMS = {"waves": 1, "tables": 2}

# acceptance tolerances, held here so a loosened tolerance in the program
# shows up as a failed check instead of a passing one
VERIFY_TOL = {"dirichlet_spectrum": 1e-7, "dalembert_wave": 2e-3,
              "fdtd_cross_check": 1e-3, "finite_speed": 1e-6,
              "reachable_span": 1e-6, "gauge_identities": 1.0, "parseval": 1e-6,
              "intertwining": 1e-6, "eikonal_metric": problems.L / problems.GRID_N,
              "potential_recovery": 1e-6, "form_limit": 1e-4,
              "graph_consistency": 2e-3}
LOWER_BOUNDED = {"reachable_span"}
# end-to-end accuracy values: the verify check they come from and its tolerance
ACCURACY = {"spectrum_err": ("dirichlet_spectrum", 1e-7),
            "dalembert_err": ("dalembert_wave", 2e-3),
            "fdtd_l2": ("fdtd_cross_check", 1e-3),
            "support_ratio": ("finite_speed", 1e-6),
            "gauge_ratio": ("gauge_identities", 1.0),
            "parseval_res": ("parseval", 1e-6),
            "intertwining_res": ("intertwining", 1e-6),
            "graph_res": ("graph_consistency", 2e-3),
            "recovery_err": ("potential_recovery", 1e-6),
            "observer_err": ("potential_recovery", 1e-3)}
# accuracy values of the pinned inputs on the code the baseline was made
# with, per workload and command label (README.md says how to remake it)
REFERENCE_VALUES = Path(__file__).resolve().with_name("reference_values.json")
DRIFT_FLOOR = 1e-5


@dataclass
class Command:
    kind: str            # verify, simulate, eigs, model, recover, observer
    argv: list
    out: Path
    problem: object = None

    @property
    def label(self) -> str:
        idx = "ref" if self.problem is None or self.problem.index < 0 else self.problem.index
        return f"{self.kind}:{idx}"


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _problem_commands(workload: str, p, inputs: Path, outs: Path) -> list:
    if workload == "waves":
        cfg = _write(inputs / f"wave{p.index}.ini", problems.wave_config(p))
        out = outs / f"wave{p.index}"
        return [Command("simulate", ["simulate", "--config", cfg, "--out", str(out)], out, p)]
    base = outs / f"table{p.index}"
    cfg = _write(inputs / f"table{p.index}.ini", problems.table_config(p))
    obs = _write(inputs / f"observer{p.index}.ini",
                 problems.table_config(p, str(base / "model" / "model.csv")))
    cmds = []
    for kind, config in (("eigs", cfg), ("model", cfg), ("recover", cfg), ("observer", obs)):
        cmd = "recover" if kind == "observer" else kind
        cmds.append(Command(kind, [cmd, "--config", config, "--out", str(base / kind)],
                            base / kind, p))
    return cmds


def build_commands(workload: str, seed: int, work: Path, inject: float) -> tuple:
    """(warm-up commands, commands of one timed pass, config for the
    set-up probe).  The pinned reference problem runs once, untimed: its
    outputs repeat exactly on every seed, so timing it again would add no
    information and halve the number of timed passes.  `verify` has no
    seeded problem; its warm-up is its own command."""
    inputs, outs = work / "inputs", work / "out"
    if workload == "verify":
        argv = ["verify", "--seed", str(seed), "--out", str(outs / "verify")]
        if inject:
            argv += ["--inject-t-perturbation", repr(inject)]
        setup = _write(inputs / "verify.ini", f"[numerics]\nseed = {seed}\n")
        cmd = Command("verify", argv, outs / "verify")
        return [cmd], [cmd], setup
    pinned = _problem_commands(workload, problems.reference(), inputs, outs)
    cmds = []
    for p in problems.generate(seed, PROBLEMS[workload]):
        cmds += _problem_commands(workload, p, inputs, outs)
    return pinned, cmds, cmds[0].argv[2]


# ---------------------------------------------------------------- checks

def _rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _unordered_error(x, q1, q2, q) -> float:
    qx, qr = q(x), q(problems.L - x)
    direct = np.maximum(np.abs(q1 - qx), np.abs(q2 - qr))
    flipped = np.maximum(np.abs(q1 - qr), np.abs(q2 - qx))
    return float(np.max(np.minimum(direct, flipped)))


def check_verify(out: Path, _p) -> tuple:
    report = json.loads((out / "verification_report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    problems_found = []
    if sorted(checks) != sorted(VERIFY_TOL):
        problems_found.append(f"report has checks {sorted(checks)}")
    for name, tol in VERIFY_TOL.items():
        c = checks.get(name)
        if c is None:
            continue
        ok = (c["measured"] >= tol) if name in LOWER_BOUNDED else (c["measured"] <= tol)
        if not (ok and c["passed"]) or abs(c["tolerance"] - tol) > 1e-12 * tol:
            problems_found.append(f"{name}: measured {c['measured']:.3e} vs {tol:.3e}")
    values = {}
    for metric, (name, _) in ACCURACY.items():
        if name in checks:
            c = checks[name]
            values[metric] = (c["extras"]["observer_error"] if metric == "observer_err"
                              else c["measured"])
    if values.get("observer_err", 0.0) > ACCURACY["observer_err"][1]:
        problems_found.append(f"observer_err {values['observer_err']:.3e}")
    return values, problems_found


def check_simulate(out: Path, p) -> tuple:
    rep = json.loads((out / "simulate_report.json").read_text())
    found = []
    if rep["times"] != list(p.times):
        found.append("snapshot times differ from the config")
    ratio = max(s["ratio"] for s in rep["support"])
    if ratio > ACCURACY["support_ratio"][1] or not all(s["passed"] for s in rep["support"]):
        found.append(f"support ratio {ratio:.3e}")
    l2 = rep["fdtd_l2"]
    if l2 is None or l2 > ACCURACY["fdtd_l2"][1] or not rep["fdtd_passed"]:
        found.append(f"fdtd_l2 {l2}")
    with (out / "wavefield.csv").open() as fh:
        lines = sum(1 for _ in fh)
    if lines != 1 + len(p.times) * (problems.GRID_N + 1):
        found.append(f"wavefield.csv has {lines} lines")
    return {"fdtd_l2": l2, "support_ratio": ratio}, found


def check_eigs(out: Path, p) -> tuple:
    lam = _rows(out / "eigenvalues.csv")[:, 1]
    summary = json.loads((out / "eigs_summary.json").read_text())
    k = np.arange(1, p.modes + 1)
    base = (k * np.pi / problems.L) ** 2
    pad = 1e-6 * base
    found = []
    if lam.size != p.modes or summary["count"] != p.modes:
        found.append(f"{lam.size} eigenvalues for {p.modes} modes")
    elif (np.any(np.diff(lam) <= 0.0)
          or np.any(lam < base + p.q.lower_bound() - pad)
          or np.any(lam > base + p.q.upper_bound() + pad)):
        found.append("eigenvalues leave their comparison brackets")
    elif not summary["kappa"] == lam[0] > 0.0:
        found.append(f"kappa {summary['kappa']} vs lambda_1 {lam[0]}")
    if len(glob.glob(str(out / "eigenfunction_*.csv"))) != p.modes:
        found.append("eigenfunction file count")
    return {}, found


def check_model(out: Path, _p) -> tuple:
    gauge, model = _rows(out / "gauge.csv"), _rows(out / "model.csv")
    found = []
    if gauge.shape != (problems.GRID_N // 2 + 1, 18):
        found.append(f"gauge.csv shape {gauge.shape}")
    if model.shape[1] != 17 or not 0 < model.shape[0] <= gauge.shape[0]:
        found.append(f"model.csv shape {model.shape}")
    return {}, found


def check_recover(out: Path, _p) -> tuple:
    err = json.loads((out / "recovery_report.json").read_text())["truth_error"]
    tol = ACCURACY["recovery_err"][1]
    return {"recovery_err": err}, ([] if err <= tol else [f"recovery_err {err:.3e}"])


def check_observer(out: Path, p) -> tuple:
    """Observer-path branches against the closed-form q on x >= 3h."""
    rows = _rows(out / "recovery.csv")
    keep = rows[:, 0] >= 3.0 * problems.L / problems.GRID_N - 1e-12
    err = _unordered_error(rows[keep, 0], rows[keep, 1], rows[keep, 2], p.q)
    tol = ACCURACY["observer_err"][1]
    return {"observer_err": err}, ([] if err <= tol else [f"observer_err {err:.3e}"])


CHECKS = {"verify": check_verify, "simulate": check_simulate, "eigs": check_eigs,
          "model": check_model, "recover": check_recover, "observer": check_observer}


def digest(out: Path) -> tuple:
    """sha256 over (relative path, bytes) of every file, plus counts."""
    h = hashlib.sha256()
    files = nbytes = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        files += 1
        nbytes += len(data)
    return h.hexdigest(), files, nbytes


# ---------------------------------------------------------------- passes

def issue(cmd: Command, rec) -> tuple:
    """Run one command in-process; returns (exit code, error text)."""
    sink = io.StringIO()
    idx = rec.open("cli.main") if rec is not None else None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:          # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:                  # a crash is a failed command, not a failed run
        rc = -1
        sink.write(traceback.format_exc())
    finally:
        if idx is not None:
            rec.close(idx)
    return rc, sink.getvalue() if rc != 0 else ""


def run_pass(cmds, rec=None, sampler=None) -> tuple:
    for c in cmds:
        shutil.rmtree(c.out, ignore_errors=True)
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        results = [issue(c, rec) for c in cmds]
        wall = time.perf_counter() - t0
    return wall, results


class Gate:
    """Counts commands and failures; the first pass fixes the reference
    digest of each command's artefacts, later passes must match it."""

    def __init__(self):
        self.ref = {}
        self.values = {}
        self.attempted = 0
        self.failures = []

    def judge(self, pass_no: int, cmds, results) -> None:
        for cmd, (rc, err) in zip(cmds, results):
            self.attempted += 1
            d = digest(cmd.out)
            why = []
            if rc != 0:
                why.append(f"exit {rc}: {err.strip()[-300:]}")
            if cmd.label not in self.ref:
                found = []
                try:
                    vals, found = CHECKS[cmd.kind](cmd.out, cmd.problem)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    vals, found = {}, [f"unreadable output: {exc!r}"]
                self.values[cmd.label] = vals
                self.ref[cmd.label] = (d[0], not (why or found))
                why += found
            else:
                ref_digest, ref_ok = self.ref[cmd.label]
                if d[0] != ref_digest:
                    why.append("artefact bytes differ from the first pass")
                elif not ref_ok and not why:
                    why.append("same bytes as a failing first pass")
            if why:
                self.failures.append({"pass": pass_no, "command": cmd.label,
                                      "argv": cmd.argv, "why": why})

    def accuracy(self) -> tuple:
        """Worst value per accuracy metric over every problem, and the
        values of the pinned reference commands by label."""
        worst = {}
        for vals in self.values.values():
            for metric, value in vals.items():
                worst[metric] = max(worst.get(metric, value), value)
        pinned = {label: vals for label, vals in self.values.items()
                  if label.endswith(":ref")}
        return worst, pinned


def accuracy_drift(pinned: dict, reference: dict) -> float:
    """Largest ratio of a pinned accuracy value to its committed reference
    value.  Both sides are raised to DRIFT_FLOOR times the value's
    tolerance first, so roundoff-level values (Parseval at 2e-16) cannot
    swing the ratio.  Reads 1.0 on the code the references came from; a
    value that grows by 10 % reads 1.1.  A value missing from this run
    belongs to a command that already failed its checks."""
    ratios = []
    for label, ref_vals in reference.items():
        for metric, ref in ref_vals.items():
            if metric in pinned.get(label, {}):
                floor = DRIFT_FLOOR * ACCURACY[metric][1]
                ratios.append(max(pinned[label][metric], floor) / max(ref, floor))
    return max(ratios, default=1.0)


def file_counts(cmds) -> tuple:
    files = nbytes = 0
    for c in cmds:
        _, f, b = digest(c.out)
        files += f
        nbytes += b
    return files, nbytes


# ---------------------------------------------------------------- layers

SPAN_METRICS = {
    "sturm.eigensystem": "sturm.dirichlet_eigensystem",
    "sturm.kernel_basis": "sturm.kernel_basis",
    "control.smooth_wave": "control.smooth_wave",
    "control.fdtd": "control.fdtd_oracle",
    "control.reachable_span": "control.reachable_span_estimate",
    "model.default_gauge": "model.default_gauge",
    "operator.assemble": "operator.assemble_coefficients",
    "operator.recover": "operator.recover_potential",
    "operator.recover_observer": "operator.recover_observer",
    "operator.graph_sample": "operator.graph_sample",
    "verify.workspace": "verify.workspace",
    "grid.write_csv": "grid.write_csv",
    **{f"verify.{name}": f"verify.{name}" for name in VERIFY_TOL},
    **{f"cli.{cmd}": f"cli.{cmd}" for cmd in
       ("eigs", "simulate", "model", "recover", "recover_table", "verify")},
}
CALL_COUNTS = {"sturm.eigensystem_calls": "sturm.dirichlet_eigensystem",
               "sturm.kernel_basis_calls": "sturm.kernel_basis",
               "control.smooth_wave_calls": "control.smooth_wave"}
# health value -> (metric name, aggregation over the calls of one pass);
# a layer the workload never calls reads 0
HEALTH = {"modes": ("sturm.modes", sum),
          "wronskian_drift": ("sturm.wronskian_drift", max),
          "admissible_nodes": ("model.admissible_nodes", min),
          "min_abs_detT": ("model.min_abs_detT", min),
          "cond_G_max": ("model.cond_G_max", max),
          "route_residual": ("operator.route_residual", max),
          "max_imag": ("operator.max_imag", max)}
TRACE_TOTALS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                "trace.remainder_s")


def per_layer_names() -> list:
    names = []
    for m in SPAN_METRICS:
        names += [f"{m}_s", f"{m}_self_s"]
    names += list(CALL_COUNTS) + [name for name, _ in HEALTH.values()]
    names += [f"{layer}.self_s" for layer in tracing.LAYERS]
    names += ["cli.files_written", "cli.bytes_written"] + list(TRACE_TOTALS)
    return names


def layer_metrics(rec, wall: float, files: int, nbytes: int) -> tuple:
    """Per-layer values of one traced pass, and what makes its span tree
    unusable (tracing.span_problems)."""
    busy, self_t = tracing.busy_and_self(rec.spans)
    out = {}
    for metric, span in SPAN_METRICS.items():
        out[f"{metric}_s"] = busy.get(span, 0.0)
        out[f"{metric}_self_s"] = self_t.get(span, 0.0)
    for metric, span in CALL_COUNTS.items():
        out[metric] = float(sum(1 for s in rec.spans if s[0] == span))
    collected = {}
    for _, vals in rec.health:
        for key, value in vals.items():
            collected.setdefault(key, []).append(value)
    for key, (metric, agg) in HEALTH.items():
        out[metric] = float(agg(collected[key])) if key in collected else 0.0
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_t.items()
                                     if k.split(".", 1)[0] == layer)
    out["cli.files_written"] = float(files)
    out["cli.bytes_written"] = float(nbytes)
    out["trace.wall_s"] = wall
    out["trace.remainder_s"] = wall - tracing.root_time(rec.spans)
    return out, tracing.span_problems(rec.spans, wall)


# ---------------------------------------------------------------- record

def blas_threads() -> int:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in an export that has no .git at all."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "nproc_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            "git_commit": git_commit(), "source_sha256": source_digest()}


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("verify", "waves", "tables"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True,
                    help="scratch directory of this run, relative to the checkout root")
    ap.add_argument("--inject-t-perturbation", type=float, default=0.0, dest="inject")
    args = ap.parse_args(argv)

    # commands run from the checkout root, so every recorded path is relative
    os.chdir(ROOT)
    work = Path(args.work)
    pinned, cmds, setup_cfg = build_commands(args.workload, args.seed, work, args.inject)
    reference = json.loads(REFERENCE_VALUES.read_text())[args.workload]
    gate = Gate()
    warm, results = run_pass(pinned)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gate.judge(0, pinned, results)

    untraced, traced, layers, span_problems = [], [], [], []
    work_s, ref_s, probe_counts = [], [], []     # per probed pass (--trace 0)
    t_start = time.perf_counter()
    want_traced = args.trace == 1
    while True:
        short = len(untraced) < (2 if want_traced else MIN_PASSES) or (
            want_traced and len(traced) < 2)
        spent = time.perf_counter() - t_start
        if not short and spent + statistics.median(untraced + traced) > args.seconds:
            break
        if want_traced and len(traced) < len(untraced):
            rec = tracing.Recorder()
            undo = tracing.install(rec)
            try:
                wall, results = run_pass(cmds, rec)
            finally:
                tracing.uninstall(undo)
            traced.append(wall)
            values, found = layer_metrics(rec, wall, *file_counts(cmds))
            layers.append(values)
            span_problems += [f"traced pass {len(traced)}: {f}" for f in found]
        elif want_traced:
            wall, results = run_pass(cmds)
            untraced.append(wall)
        else:
            sampler = speed.Sampler()
            wall, results = run_pass(cmds, sampler=sampler)
            untraced.append(wall)
            w, r = sampler.rescale()
            work_s.append(w)
            ref_s.append(r)
            probe_counts.append(len(sampler.probes))
        gate.judge(len(untraced) + len(traced), cmds, results)

    worst, pinned_values = gate.accuracy()
    issued = pinned + [c for c in cmds if c not in pinned]
    files, nbytes = file_counts(cmds)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "machine": machine(),
           "inputs": {"argv": [c.argv for c in issued],
                      "problems": [c.problem.record() for c in issued
                                   if c.problem is not None and c.kind in ("simulate", "eigs")]},
           "setup_config": setup_cfg,
           "passes": {"warmup_s": warm, "untraced_s": untraced, "traced_s": traced,
                      "work_s": work_s, "ref_s": ref_s, "probes": probe_counts},
           "attempted": gate.attempted, "failed": len(gate.failures),
           "failures": gate.failures,
           "wall_s": statistics.median(untraced),
           "wall_ref_s": statistics.median(ref_s) if ref_s else None,
           "peak_rss_mb": peak_rss_mb,
           "files_written": files, "bytes_written": nbytes,
           "accuracy": worst, "pinned_values": pinned_values,
           "accuracy_drift": accuracy_drift(pinned_values, reference),
           "per_command_values": gate.values}
    if want_traced:
        # one whole pass, the median one, so its layer self times and
        # remainder add up to its wall time (per-metric medians would not)
        mid = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
        per_layer = dict(layers[mid])
        per_layer["trace.untraced_wall_s"] = statistics.median(untraced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - per_layer["trace.untraced_wall_s"]
        out["per_layer"] = per_layer
        out["per_layer_passes"] = layers
        out["span_problems"] = span_problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
