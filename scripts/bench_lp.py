#!/usr/bin/env python3
"""Time the exact simplex on the LPs of the PBR no-show verdicts, before and
after a change, and write the numbers to a BENCH json file.

The corpus is every LP that the weight-grid search ``pbr._grid_search``
hands to ``simplex.find_feasible`` while it decides, once each,

* the ``FeasibilityProblem`` of every ``nogo pbr`` op of the ``pbr-lp`` and
  ``lab-mix`` benchmark passes at seed 1 (``perfbench/workloads.py``), built
  from the op's ``cli.config_from_args``, and
* the default problem with no forced overlap, and with no-show budgets 1/8
  and 1/2.

The grid search is called directly because ``pbr.solve_feasibility`` decides
most of these problems at the support level, with one LP or none.  The
corpus is the 212 LPs that ``BENCH_4.json`` describes; it is regenerated
from this checkout on every run.  Both trees then solve
the whole corpus in fresh interpreters, alternating base and change, and the
script records each side's median wall time, the LP count, the pivots the
change's simplex takes and one digest of every result (feasibility, solution
and phase-1 value), which must agree between the two sides.  The base tree
is extracted from git with ``git archive``.

    python3 scripts/bench_lp.py --base 4343991 --runs 5 --out BENCH_4.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Solves the pickled corpus with the omlab on sys.path and prints one json
# line: wall time, result digest and (where LPResult has them) pivots.
WORKER = r"""
import hashlib, json, pickle, sys, time
from omlab.simplex import find_feasible
with open(sys.argv[1], "rb") as fh:
    corpus = pickle.load(fh)
start = time.perf_counter()
results = [find_feasible(*lp) for lp in corpus]
wall = time.perf_counter() - start
digest = hashlib.sha256(repr([
    (r.feasible, None if r.solution is None else tuple(map(str, r.solution)),
     str(r.phase1_value)) for r in results]).encode()).hexdigest()
pivots = [getattr(r, "pivots", None) for r in results]
print(json.dumps({"wall_s": wall, "digest": digest,
                  "pivots": None if None in pivots else sum(pivots),
                  "feasible": sum(r.feasible for r in results)}))
"""


def build_corpus() -> list:
    """Every (n_vars, equalities, inequalities) the corpus grid searches solve."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from omlab import cli, pbr
    from perfbench import workloads

    problems = [pbr.FeasibilityProblem(**cli.config_from_args(
                    cli.build_parser().parse_args(argv)).args)
                for name in ("pbr-lp", "lab-mix") for argv in workloads.generate(name, 1)
                if argv[2:4] == ["nogo", "pbr"]]
    problems += [pbr.FeasibilityProblem(q=None),
                 pbr.FeasibilityProblem(null_budget=Fraction(1, 8)),
                 pbr.FeasibilityProblem(null_budget=Fraction(1, 2))]
    born = pbr.build_pbr_scenario().born_table()
    corpus = []
    solve = pbr.find_feasible

    def record(n_vars, equalities=(), inequalities=()):
        corpus.append((n_vars, list(equalities), list(inequalities)))
        return solve(n_vars, equalities, inequalities)

    pbr.find_feasible = record
    try:
        for problem in problems:
            pbr._grid_search(problem, born)
    finally:
        pbr.find_feasible = solve
    return corpus


def extract_src(rev: str, dest: Path) -> Path:
    """``src/`` of git revision ``rev``, unpacked under ``dest``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def solve_once(src: Path, corpus_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", WORKER, str(corpus_path)],
                         check=True, capture_output=True, text=True, env=env).stdout
    return json.loads(out.strip().splitlines()[-1])


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--runs", type=int, default=5, help="timed runs per side (>= 5)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_4.json"))
    args = ap.parse_args()
    if args.runs < 5:
        ap.error("a median for a BENCH file needs at least 5 runs per side")

    corpus = build_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.pickle"
        corpus_path.write_bytes(pickle.dumps(corpus))
        sides = {"base": extract_src(args.base, Path(tmp) / "base"), "change": SRC}
        runs = {side: [] for side in sides}
        for i in range(args.runs):
            for side, src in sides.items():
                runs[side].append(solve_once(src, corpus_path))
                print(f"run {i + 1}/{args.runs} {side}: {runs[side][-1]['wall_s']:.3f} s",
                      file=sys.stderr)

    digests = {side: {r["digest"] for r in rs} for side, rs in runs.items()}
    same = digests["base"] == digests["change"] and len(digests["base"]) == 1
    medians = {side: statistics.median(r["wall_s"] for r in rs) for side, rs in runs.items()}
    doc = {
        "what": "exact phase-1 simplex over the LPs of the PBR weight-grid search "
                "(pbr-lp and lab-mix nogo pbr ops at seed 1; default problems with "
                "q=none, null budget 1/8 and 1/2); each run solves every LP once in a "
                "fresh interpreter, base and change alternating",
        "machine": machine(),
        "base_rev": args.base,
        "lp_count": len(corpus),
        "feasible_count": runs["change"][0]["feasible"],
        "pivots_total": runs["change"][0]["pivots"],
        "results_digest": runs["change"][0]["digest"],
        "results_identical": same,
        "runs_per_side": args.runs,
        "wall_s": {side: [round(r["wall_s"], 4) for r in rs] for side, rs in runs.items()},
        "median_wall_s": {side: round(m, 4) for side, m in medians.items()},
        "speedup": round(medians["base"] / medians["change"], 2),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({k: doc[k] for k in ("lp_count", "pivots_total", "results_identical",
                                         "median_wall_s", "speedup")}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
