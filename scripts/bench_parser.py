#!/usr/bin/env python3
"""Time ``cli.build_parser().parse_args(argv)`` per verb, and run the
benchmark's workloads, before and after a change, and write the numbers to a
BENCH json file.

Per verb, the argv is the first op of the benchmark passes at seed 1
(``perfbench/workloads.py``, lab-mix first) that names it.  Each side builds
and parses every verb's argv in fresh interpreters, base and change
alternating: ``WARMUPS`` untimed calls, then ``CALLS`` timed ones, whose
median is that interpreter's time; the file gives the median over the
interpreters.  Next to each time it records, from one untimed call, the
counters that tell a speed-up from skipped work: the ``ArgumentParser``
objects built and the ``add_argument`` calls made, and whether the namespace
equals the other side's.

Then each workload runs ``perfbench/run.py --trace 0`` for the benchmark's
``run_seconds`` (read from each side's ``BENCHMARK.json``) at seeds
1..``--pairs``, base and change alternating which goes first, each side
from its own copy of ``src/``, ``perfbench/`` and ``BENCHMARK.json``, so no
result lands in this checkout.  The file gives each end-to-end metric's
median and quartiles per side, how many pairs the change won on
``ops_per_s`` and ``op_p50_ms``, and whether every run was correct.  The base
tree is extracted from git with ``git archive``.

    python3 scripts/bench_parser.py --base 6c1c1af --runs 9 --pairs 10 --out BENCH_24.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pbr import ROOT, extract_src, machine

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

METRICS = ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb", "ops_ok_frac")
HIGHER_IS_BETTER = {"ops_per_s"}
WARMUPS, CALLS = 5, 51  # untimed and timed build + parse calls per verb and interpreter

# Prints one json line per verb: the median build + parse time of this
# interpreter, the parsers and add_argument calls of one call, and the namespace.
WORKER = r"""
import argparse, json, statistics, sys, time
from omlab import cli
argvs, warmups, calls = json.loads(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
times = {}
for verb, argv in argvs.items():
    for _ in range(warmups):
        cli.build_parser().parse_args(argv)
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        cli.build_parser().parse_args(argv)
        samples.append(time.perf_counter() - start)
    times[verb] = statistics.median(samples)
counts = {"parsers": 0, "add_argument": 0}
init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

def counted_init(parser, *args, **kwargs):
    counts["parsers"] += 1
    init(parser, *args, **kwargs)

def counted_add_argument(parser, *args, **kwargs):
    counts["add_argument"] += 1
    return add_argument(parser, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted_init
argparse.ArgumentParser.add_argument = counted_add_argument
for verb, argv in argvs.items():
    counts.update(parsers=0, add_argument=0)
    ns = cli.build_parser().parse_args(argv)
    print(json.dumps({"verb": verb, "build_parse_s": times[verb], **counts,
                      "namespace": repr(vars(ns))}))
"""


def verb_argvs() -> dict:
    """verb -> the first op of the seed-1 benchmark passes that names it."""
    found = {}
    for workload in ("lab-mix", "pbr-lp", "pbr-grid"):
        for argv in workloads.generate(workload, 1):
            found.setdefault(argv[2], argv)
    return found


def parse_once(src: Path, argvs: dict) -> dict:
    out = subprocess.run([sys.executable, "-c", WORKER, json.dumps(argvs), str(WARMUPS),
                          str(CALLS)], check=True, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    return {row["verb"]: row for row in map(json.loads, out.splitlines())}


def perfbench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 4), "quartiles": [round(q1, 4), round(q3, 4)]}


def copy_tree(dest: Path) -> Path:
    """This checkout's benchmark inputs, copied under ``dest``."""
    skip = shutil.ignore_patterns("__pycache__", "results")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--runs", type=int, default=9, help="fresh interpreters per side (>= 9)")
    ap.add_argument("--pairs", type=int, default=5, help="perfbench pairs per workload (>= 5)")
    ap.add_argument("--out", required=True, help="BENCH json file to write")
    args = ap.parse_args()
    if args.runs < 9 or args.pairs < 5:
        ap.error("a median for a BENCH file needs at least 9 interpreters and 5 pairs")

    argvs = verb_argvs()
    with tempfile.TemporaryDirectory() as tmp:
        base = extract_src(args.base, Path(tmp) / "base", "perfbench", "BENCHMARK.json").parent
        trees = {"base": base, "change": copy_tree(Path(tmp) / "change")}
        seconds = {side: json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
                   for side, tree in trees.items()}
        parses = {side: [] for side in trees}
        for i in range(args.runs):
            for side in (list(trees) if i % 2 == 0 else list(reversed(trees))):
                parses[side].append(parse_once(trees[side] / "src", argvs))
        print("build + parse timed", file=sys.stderr)
        runs = {w: {side: [] for side in trees} for w in workloads.WORKLOADS}
        for workload in workloads.WORKLOADS:
            for seed in range(1, args.pairs + 1):
                for side in (list(trees) if seed % 2 else list(reversed(trees))):
                    runs[workload][side].append(
                        perfbench_once(trees[side], workload, seed, seconds[side]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {runs[workload][side][-1]['op_p50_ms']:.3f} ms p50"
                    for side in trees), file=sys.stderr)

    verbs, same = {}, True
    for verb, argv in argvs.items():
        row = {"argv": " ".join(argv)}
        for side, side_runs in parses.items():
            first = side_runs[0][verb]
            row[side] = {"build_parse_median_ms": round(1000 * statistics.median(
                r[verb]["build_parse_s"] for r in side_runs), 4),
                "parsers": first["parsers"], "add_argument": first["add_argument"]}
        same &= parses["base"][0][verb]["namespace"] == parses["change"][0][verb]["namespace"]
        row["speedup"] = round(row["base"]["build_parse_median_ms"]
                               / row["change"]["build_parse_median_ms"], 2)
        verbs[verb] = row
    pairs = {}
    for workload, sides in runs.items():
        block = {"seeds": list(range(1, args.pairs + 1)),
                 **{m: {side: spread([r[m] for r in rs]) for side, rs in sides.items()}
                    for m in METRICS},
                 "correct": all(r["correct"] for rs in sides.values() for r in rs),
                 "failed_ops": sum(r["failed"] for rs in sides.values() for r in rs)}
        for m in ("ops_per_s", "op_p50_ms"):
            sign = 1 if m in HIGHER_IS_BETTER else -1
            block[f"{m}_change_wins"] = sum(sign * (c[m] - b[m]) > 0
                                            for b, c in zip(sides["base"], sides["change"]))
        pairs[workload] = block
    doc = {
        "what": "build + parse: cli.build_parser().parse_args(argv) per verb, the median "
                f"of {CALLS} calls after {WARMUPS} warm-ups in each of "
                f"{args.runs} fresh interpreters per side, base and change alternating, "
                "with the ArgumentParser objects built and add_argument calls made by one "
                "call; perfbench: run.py --trace 0 for each side's run_seconds at seeds "
                f"1-{args.pairs} per workload, base and change alternating which runs first",
        "machine": machine(),
        "base_rev": args.base,
        "run_seconds": seconds,
        "namespaces_identical": same,
        "build_parse": verbs,
        "perfbench_pairs": pairs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({v: r["speedup"] for v, r in verbs.items()}))
    return 0 if same and all(p["correct"] for p in pairs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
