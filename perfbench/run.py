"""slwave benchmark: one run of one workload, or all three with --all.

    python3 perfbench/run.py --workload {verify,waves,tables} --seed N \\
        --seconds S --trace {0,1} [--inject-t-perturbation EPS]
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; the program is imported from ./src.
Each run starts one worker process (worker.py) that issues one CLI command
at a time and checks every output, then times the set-up of fresh
interpreters (setup_probe.py).  Times of the end-to-end metrics are
rescaled to a reference host speed by the probe in speed.py.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
The full record (machine, inputs, every pass, failures) goes to
.bench_out/results/.  The exit code is 0 only when every output passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify", "waves", "tables")
SETUP_PROBES = 32
DEADLINE_S = 170.0
# One BLAS thread on every machine (never more than nproc).  On a shared
# 2-core host two OpenBLAS threads gave reachable_span_estimate a 0.16 s
# median with 1.13 s outliers; one thread stayed within 0.23-0.33 s.
BLAS_THREADS = 1

# end-to-end metric -> unit; the per-check accuracy values exist on only
# some workloads, so they are reported by name but bounded through
# accuracy_drift (README.md)
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_share": "ratio", "accuracy_drift": "ratio"}
ACCURACY_UNITS = {"spectrum_err": "rel", "dalembert_err": "abs", "fdtd_l2": "abs",
                  "support_ratio": "ratio", "gauge_ratio": "ratio",
                  "parseval_res": "abs", "intertwining_res": "abs",
                  "graph_res": "abs", "recovery_err": "abs", "observer_err": "abs"}


def env() -> dict:
    e = dict(os.environ)
    e["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        e[var] = str(BLAS_THREADS)
    # numpy asks for transparent huge pages on large arrays; whether it gets
    # them depends on the host's free memory: with them on, verify's peak
    # RSS read 166 MB in one set of runs and 196 MB in a later one
    e["NUMPY_MADVISE_HUGEPAGE"] = "0"
    e["PYTHONDONTWRITEBYTECODE"] = "1"
    return e


def call(argv: list, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on the deadline it is killed and reaped."""
    return subprocess.run([sys.executable] + argv, cwd=ROOT, env=env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def setup_seconds(config: str, deadline: float) -> tuple:
    """(seconds as measured, seconds at the reference speed) of each probe."""
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        proc = call([str(HERE / "setup_probe.py"), config], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        took, scaled = proc.stdout.strip().splitlines()[-1].split()
        raw.append(float(took))
        ref.append(float(scaled))
    return raw, ref


def run_one(workload: str, seed: int, seconds: float, trace: int, inject: float,
            deadline: float) -> dict:
    tag = f"{workload}-s{seed}-t{trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        argv = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", str(trace),
                "--work", str(work.relative_to(ROOT))]
        if inject:
            argv += ["--inject-t-perturbation", repr(inject)]
        proc = call(argv, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace == 0:
            raw, ref = setup_seconds(record["setup_config"], deadline)
            record["setup_runs_s"], record["setup_ref_runs_s"] = raw, ref
            record["setup_raw_s"] = statistics.median(raw)
            record["setup_s"] = statistics.median(ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["correct"] = record["failed"] == 0 and not record.get("span_problems")
    record["pass_share"] = 1.0 - record["failed"] / record["attempted"]
    record["fail_share"] = record["failed"] / record["attempted"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def summary_line(record: dict) -> dict:
    if record["trace"]:
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": record[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_calls", "files_written", "modes", "admissible_nodes")):
        return "count"
    return "ratio" if name.endswith(("drift", "cond_G_max")) else "abs"


def report(record: dict) -> None:
    """Human-readable lines: every metric by name and unit, then failures."""
    w = record["workload"]
    if record["trace"]:
        for k, v in sorted(record["per_layer"].items()):
            print(f"{w:7s} {k:42s} {v:.6g} {_layer_unit(k)}")
    else:
        for k in ("wall_ref_s", "wall_s", "setup_s", "setup_raw_s", "fail_share",
                  "peak_rss_mb", "accuracy_drift"):
            unit = END_TO_END.get(k) or ("s" if k.endswith("_s") else "ratio")
            print(f"{w:7s} {k:42s} {record[k]:.6g} {unit}")
        for k, v in sorted(record["accuracy"].items()):
            print(f"{w:7s} {k:42s} {v:.6g} {ACCURACY_UNITS[k]}")
    for f in record["failures"]:
        print(f"{w:7s} FAILED pass {f['pass']} {f['command']}: {'; '.join(f['why'])}")
    for problem in record.get("span_problems", []):
        print(f"{w:7s} FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="slwave benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-t-perturbation", type=float, default=0.0, dest="inject",
                    help="fault injection passed to verify: scales the gauge T")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "slwave" / "cli.py").is_file():
        print(f"no slwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    workloads = WORKLOADS if args.all else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    records = []
    try:
        for w in workloads:
            records.append(run_one(w, args.seed, args.seconds, args.trace, args.inject,
                                   deadline))
            report(records[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    if args.all:
        total = {"correct": all(r["correct"] for r in records),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "metrics": {f"{r['workload']}.{k}": v for r in records
                             for k, v in summary_line(r)["metrics"].items()}}
    else:
        total = summary_line(records[0])
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
