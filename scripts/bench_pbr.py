#!/usr/bin/env python3
"""Time every ``nogo pbr`` op of the ``pbr-grid`` and ``pbr-lp`` benchmark
passes at seed 1, before and after a change, and write the numbers to a BENCH
json file.

Both trees run every op in fresh interpreters, alternating base and change,
after the workloads' warm-up ops.  Each op is timed twice: the verdict alone,
``pbr.solve_feasibility`` on a ``FeasibilityProblem`` parsed by the tree's own
CLI with the Born table built before the clock starts (``solve``), and the
whole in-process op as ``perfbench`` times it, ``cli.build_parser`` ->
``cli.config_from_args`` -> ``cli.run`` -> ``reports.emit`` (``op``).  Next to
each op's median times the script records the counters that tell a speed-up
from skipped work: the grid points the verdict covers (``tested_points``), the
exact LPs it solved and their pivots (0 where omlab has no
``pbr.find_feasible``), its status, and, from a separate untimed pass of the
whole op, the ``ExactComplex`` products and the ``Fraction`` products it
computed.  Statuses and ``ExactComplex`` products must agree
between the two sides.  The base tree's ``src/`` is extracted from git with
``git archive``.

    python3 scripts/bench_pbr.py --base 1bbb6f6 --runs 9 --out BENCH_15.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("pbr-grid", "pbr-lp")
TIMES = ("solve", "op")  # seconds under the keys solve_s and op_s
COUNTERS = ("status", "points", "lps", "pivots", "exact_products", "fraction_products")

# Runs the warm-up ops, then times every op of the json argv list once, with
# the omlab on sys.path, and prints one json line per op.
WORKER = r"""
import json, sys, time
from fractions import Fraction
from omlab import cli, pbr, reports
from omlab.exact import ExactComplex
ops, warmups = json.loads(open(sys.argv[1]).read())
born = pbr.build_pbr_scenario().born_table()
# a tree without an LP engine in omlab records 0 LPs and 0 pivots
solve, lps = getattr(pbr, "find_feasible", None), []

def record(*args, **kwargs):
    lps.append(solve(*args, **kwargs))
    return lps[-1]

def whole_op(argv):
    config = cli.config_from_args(cli.build_parser().parse_args(argv))
    reports.emit(cli.run(config), "json")

if solve is not None:
    pbr.find_feasible = record
for argv in warmups:
    whole_op(argv)
rows = []
for argv in ops:
    a = cli.config_from_args(cli.build_parser().parse_args(argv)).args
    problem = pbr.FeasibilityProblem(
        lambda_size=a["lambda_size"], grid_denominator=a["grid_denominator"],
        q=None if a["q"] is None else Fraction(a["q"]), relax_product=a["relax_product"],
        null_budget=None if a["null_budget"] is None else Fraction(a["null_budget"]))
    lps.clear()
    start = time.perf_counter()
    verdict = pbr.solve_feasibility(problem, born)
    solve_s = time.perf_counter() - start
    row = {"solve_s": solve_s, "status": verdict.status, "points": verdict.tested_points,
           "lps": len(lps), "pivots": sum(r.pivots for r in lps)}
    start = time.perf_counter()
    whole_op(argv)
    rows.append(dict(row, op_s=time.perf_counter() - start))

# untimed: count the products each whole op computes
counts = {}

def counting(cls, name, key):
    product = getattr(cls, name)

    def counted(*args):
        counts[key] += 1
        return product(*args)
    setattr(cls, name, counted)

for name in ("__mul__", "__rmul__"):
    counting(ExactComplex, name, "exact_products")
    counting(Fraction, name, "fraction_products")
for argv, row in zip(ops, rows):
    counts.update(exact_products=0, fraction_products=0)
    whole_op(argv)
    print(json.dumps(dict(row, **counts)))
"""


def seed_one_ops() -> tuple:
    """(workload, argv) for every nogo pbr op of the benchmark passes at seed 1,
    and the workloads' warm-up argvs."""
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads
    ops = [(name, argv) for name in WORKLOADS for argv in workloads.generate(name, 1)
           if argv[2:4] == ["nogo", "pbr"]]
    return ops, [argv for name in WORKLOADS for argv in workloads.WARMUP[name]]


def extract_src(rev: str, dest: Path, *also: str) -> Path:
    """``src/`` of git revision ``rev``, and the paths in ``also``, unpacked
    under ``dest``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src",
                           *also], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "cpu": cpu}


def decide_once(src: Path, ops_path: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", WORKER, str(ops_path)],
                         check=True, capture_output=True, text=True, env=env).stdout
    return [json.loads(line) for line in out.strip().splitlines()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--runs", type=int, default=5, help="timed runs per side (>= 5)")
    ap.add_argument("--out", required=True, help="BENCH json file to write")
    args = ap.parse_args()
    if args.runs < 5:
        ap.error("a median for a BENCH file needs at least 5 runs per side")

    ops, warmups = seed_one_ops()
    with tempfile.TemporaryDirectory() as tmp:
        ops_path = Path(tmp) / "ops.json"
        ops_path.write_text(json.dumps([[argv for _, argv in ops], warmups]))
        sides = {"base": extract_src(args.base, Path(tmp) / "base"), "change": SRC}
        runs = {side: [] for side in sides}
        for i in range(args.runs):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[side].append(decide_once(sides[side], ops_path))
                print(f"run {i + 1}/{args.runs} {side}: "
                      f"{sum(r['op_s'] for r in runs[side][-1]):.3f} s", file=sys.stderr)

    rows, same = [], True
    for j, (workload, argv) in enumerate(ops):
        row = {"workload": workload, "argv": " ".join(argv[2:])}
        for side, side_runs in runs.items():
            first = {k: side_runs[0][j][k] for k in COUNTERS}
            same &= all({k: r[j][k] for k in COUNTERS} == first for r in side_runs)
            row[side] = {**{f"{t}_median_ms": round(1000 * statistics.median(
                r[j][f"{t}_s"] for r in side_runs), 3) for t in TIMES}, **first}
        same &= all(row["base"][k] == row["change"][k] for k in ("status", "exact_products"))
        rows.append(row)
    totals = {}
    for workload in WORKLOADS:
        idx = [j for j, (w, _) in enumerate(ops) if w == workload]
        totals[workload] = {"ops": len(idx)}
        for t in TIMES:
            med = {side: statistics.median(sum(r[j][f"{t}_s"] for j in idx) for r in side_runs)
                   for side, side_runs in runs.items()}
            totals[workload][f"{t}_median_pass_s"] = {
                side: round(m, 4) for side, m in med.items()}
            totals[workload][f"{t}_speedup"] = round(med["base"] / med["change"], 2)
        totals[workload].update({f"{k}_total": {side: sum(rows[j][side][k] for j in idx)
                                                for side in runs}
                                 for k in COUNTERS if k != "status"})
    doc = {
        "what": "every nogo pbr op of the pbr-grid and pbr-lp passes at seed 1 "
                "(perfbench/workloads.py), each run in a fresh interpreter after the "
                "warm-up ops, base and change alternating; solve = pbr.solve_feasibility "
                "with the Born table built beforehand, op = build_parser -> "
                "config_from_args -> run -> emit as perfbench times it; per-op and "
                "per-pass medians over the runs; exact_products (ExactComplex.__mul__ "
                "and __rmul__ calls) and fraction_products (Fraction.__mul__ and "
                "__rmul__ calls) are counted per whole op in a separate untimed pass",
        "machine": machine(),
        "base_rev": args.base,
        "runs_per_side": args.runs,
        "statuses_and_exact_products_identical": same,
        "totals": totals,
        "ops": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(totals))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
