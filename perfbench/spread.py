"""Run one workload on several seeds and summarise the spread.

    python3 perfbench/spread.py --workload verify --seeds 0-9 --seconds 25 \\
        [--out perfbench/baseline/verify.json]

Runs use --trace 0.  For every end-to-end metric of the final JSON lines:
the values, their median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.  Also keeps each run's machine record and pass times
from .bench_out/results.  Runs are sequential; each is a fresh run.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="'0-9' or '3,5,8'")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    runs, metrics = [], {}
    for s in seeds(args.seeds):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                               "--workload", args.workload, "--seed", str(s),
                               "--seconds", args.seconds, "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        took = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        line = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        record_path = ROOT / ".bench_out" / "results" / f"{args.workload}-s{s}-t0.json"
        record = json.loads(record_path.read_text()) if record_path.is_file() else {}
        runs.append({"seed": s, "exit": proc.returncode, "run_s": took,
                     "correct": line and line["correct"],
                     "passes": record.get("passes"), "machine": record.get("machine"),
                     "accuracy": record.get("accuracy"),
                     "pinned_values": record.get("pinned_values"),
                     "setup_runs_s": record.get("setup_runs_s"),
                     "setup_ref_runs_s": record.get("setup_ref_runs_s")})
        print(f"seed {s}: exit {proc.returncode} in {took:.1f} s", flush=True)
        if line is None:
            print(proc.stderr[-2000:], file=sys.stderr)
            continue
        for k, v in line["metrics"].items():
            metrics.setdefault(k, {"unit": v["unit"], "values": []})["values"].append(v["value"])
    summary = {"workload": args.workload, "seconds": args.seconds,
               "metrics": {k: {"unit": m["unit"], **summarise(m["values"])}
                           for k, m in metrics.items()},
               "runs": runs}
    for k, m in summary["metrics"].items():
        print(f"{k:40s} median {m['median']:.6g} {m['unit']:6s} spread {m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
