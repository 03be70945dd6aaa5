#!/usr/bin/env python3
"""Run the benchmark on a base revision and on this checkout, in alternating
pairs, and write each workload's accept/reject arithmetic to a BENCH json file.

The base side is ``src/`` of the git revision (``git archive``), the change
side a copy of this checkout's ``src/``; both get this checkout's
``perfbench/`` and ``BENCHMARK.json``, so only ``src/`` differs.  For every
workload of ``BENCHMARK.json``, each side runs ``perfbench/run.py --trace 0``
for the file's ``run_seconds`` at seeds 1..``PAIRS``, the base first at odd
seeds and the change first at even ones.  Per end-to-end metric the file
gives each side's median and quartiles, the pairs each side won (in the
metric's ``better`` direction; ties count for neither), ``gain`` (the change
won at least nine tenths of the pairs, and its median is better by more than
the base's interquartile range) and ``worse_beyond_bound`` (the change's
median is worse than the base's by more than the metric's ``bound``, a
fraction of the base median).  One ``--trace 1`` run per side and workload,
at seed 1, adds the per-layer counters, which tell a speed-up from skipped
work.  The script exits 1 if any run is not correct.

    python3 scripts/ab.py --base 8267e33 --out BENCH_25.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PAIRS = 10  # alternating base/change pairs per workload, at seeds 1..PAIRS


def extract_src(rev: str, dest: Path) -> Path:
    """``src/`` of git revision ``rev``, unpacked under ``dest``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
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


def add_benchmark(tree: Path) -> Path:
    """This checkout's ``perfbench/`` and ``BENCHMARK.json``, copied into ``tree``."""
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object of one ``perfbench/run.py`` run in ``tree``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "quartiles": [q1, q3]}


def summarize(spec: dict, runs: dict) -> dict:
    """The accept/reject arithmetic of paired runs.

    ``runs`` maps a workload to ``{"base": [...], "change": [...]}``, two
    lists of ``perfbench/run.py --trace 0`` result objects in which the i-th
    entries form a pair.  ``spec`` is ``BENCHMARK.json``: its ``end_to_end``
    entries give each metric's name, ``better`` direction and ``bound``.
    """
    out = {}
    for workload, sides in runs.items():
        pairs = list(zip(sides["base"], sides["change"]))
        block = {"pairs": len(pairs),
                 "correct": all(r["correct"] for rs in sides.values() for r in rs),
                 "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in sides.items()}
            base, change = spread(values["base"]), spread(values["change"])
            margins = [sign * (c["metrics"][name]["value"] - b["metrics"][name]["value"])
                       for b, c in pairs]
            change_wins = sum(m > 0 for m in margins)
            gap = sign * (change["median"] - base["median"])  # > 0: the change is better
            q1, q3 = base["quartiles"]
            block[name] = {
                "base": base, "change": change,
                "change_wins": change_wins, "base_wins": sum(m < 0 for m in margins),
                "gain": change_wins >= 0.9 * len(pairs) and gap > q3 - q1,
                "worse_beyond_bound": -gap > metric["bound"] * abs(base["median"]),
            }
        out[workload] = block
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="BENCH json file to write")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {"base": [], "change": []} for w in workloads}
    traced = {w: {} for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        base = extract_src(args.base, Path(tmp) / "base").parent
        change = Path(tmp) / "change"
        shutil.copytree(SRC, change / "src", ignore=shutil.ignore_patterns("__pycache__"))
        trees = {"base": add_benchmark(base), "change": add_benchmark(change)}
        for workload in workloads:
            for seed in range(1, PAIRS + 1):
                for side in (("base", "change") if seed % 2 else ("change", "base")):
                    runs[workload][side].append(
                        run_once(trees[side], workload, seed, seconds, trace=0))
                print(f"{workload} seed {seed} done", file=sys.stderr)
            for side, tree in trees.items():
                traced[workload][side] = run_once(tree, workload, 1, seconds, trace=1)

    summary = summarize(spec, runs)
    for workload, sides in traced.items():
        summary[workload]["correct"] &= all(r["correct"] for r in sides.values())
        summary[workload]["per_layer_seed1"] = {
            side: {name: m["value"] for name, m in r["metrics"].items()}
            for side, r in sides.items()}
    doc = {
        "what": f"scripts/ab.py: perfbench/run.py --trace 0 for run_seconds at seeds "
                f"1-{PAIRS} per workload, base and change alternating which runs first, "
                "each side from its own src/ with this checkout's perfbench/ and "
                "BENCHMARK.json; per_layer_seed1 is one --trace 1 run per side at seed 1",
        "machine": machine(),
        "base_rev": args.base,
        "run_seconds": seconds,
        "workloads": summary,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for workload, block in summary.items():
        print(f"{workload}: correct={block['correct']} " + ", ".join(
            f"{m['name']} {block[m['name']]['base']['median']:.4g} -> "
            f"{block[m['name']]['change']['median']:.4g}" for m in spec["end_to_end"]))
    return 0 if all(block["correct"] for block in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
