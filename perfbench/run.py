"""The omlab benchmark: one closed-loop client driving omlab in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload pbr-lp --seed 1 --seconds 24 --trace 0

An op is one ``omlab --format json <argv>`` invocation done in process:
``cli.build_parser`` -> ``cli.config_from_args`` -> ``cli.run`` ->
``reports.emit``, i.e. ``cli.main`` without the print and the file write.
The next op starts only after the previous one returns.  The seed turns into
the workload's pass of argv lists (see ``workloads.py``); the run repeats the
pass until ``--seconds`` have elapsed, always finishing the pass it is in, so
every run measures whole passes of the same ops.

Every op is bracketed by the speed kernel (``speed.py``), and its wall time
is scaled to the reference machine speed before it enters a metric.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every op
twice, once plain and once under the outside-in tracer (``tracer.py``), in
alternating order, and reports the per-layer metrics plus the tracing
overhead.  Both modes check the outputs (``checks.py``) and write the ops,
their digests, the metrics and a provenance block to ``perfbench/results/``.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_omlab():
    """Import omlab from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "omlab" / "__init__.py").is_file():
        sys.exit(f"omlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import omlab
    from omlab import cli, reports

    if Path(omlab.__file__).resolve().parent != (SRC / "omlab").resolve():
        sys.exit(f"imported omlab from {omlab.__file__}, not from {SRC}")
    return omlab, cli, reports


class Outcome:
    """One executed op: its wall time, verdict and report document."""

    __slots__ = ("argv", "wall", "ok", "error", "doc")

    def __init__(self, argv, wall, ok, error, doc):
        self.argv, self.wall, self.ok, self.error, self.doc = argv, wall, ok, error, doc


def execute(cli, reports, argv: list) -> Outcome:
    """One op.  A raised exception, a failed check or a failed emit fails it."""
    report = rendered = error = None
    start = time.perf_counter()
    try:
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        report = cli.run(config)
        rendered = reports.emit(report, "json")
    except (Exception, SystemExit) as exc:
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    wall = time.perf_counter() - start
    if rendered is not None:
        doc = json.loads(rendered)
    elif report is not None:
        doc = report.to_json()
    else:
        doc = None
    ok = error is None and report.all_passed
    if error is None and not ok:
        error = "; ".join(f"{c.name}: observed {c.observed}"[:200]
                          for c in report.checks if not c.passed)
    return Outcome(argv, wall, ok, error, doc)


def measure_setup(workload: str) -> list:
    """Set-up seconds, at reference speed, of fresh interpreters that import
    omlab and warm up."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC),
           json.dumps(workloads.WARMUP[workload])]
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(speed.scale(probe["setup_s"], probe["kernel_before_s"],
                                   probe["kernel_after_s"]))
    return samples


def provenance(seed: int, source: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "jsonschema": metadata.version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source,
        "seed": seed,
    }


class Verifier:
    """Output checks for every op, against the ledger of earlier executions."""

    def __init__(self, ledger: checks.Ledger):
        self.ledger = ledger
        self.problems: list = []
        self.first: dict = {}  # argv -> verdict and digest of its first execution

    def __call__(self, outcome: Outcome, counters: dict | None = None) -> None:
        d = checks.digest(outcome.doc, outcome.error)
        record = {"digest": d}
        if counters is not None:
            record["counters"] = counters
        self.problems += self.ledger.check(outcome.argv, record)
        key = tuple(outcome.argv)
        if key in self.first:
            return
        self.first[key] = {"ok": outcome.ok, "error": outcome.error, "digest": d}
        if outcome.doc is not None:
            self.problems += checks.check_echo(outcome.argv, outcome.doc)
            if outcome.argv[2:4] == ["nogo", "pbr"]:
                self.problems += checks.check_pbr(outcome.doc)


def nearest_rank(values: list, p: float) -> float:
    """The p-th percentile by nearest rank."""
    return sorted(values)[math.ceil(p * len(values)) - 1]


def run_passes(ops: list, seconds: float, run_op) -> int:
    """Repeat the pass until ``seconds`` have elapsed, finishing the last pass.

    Calls ``run_op(op_id, argv)`` for every op; returns the number of passes.
    """
    passes = 0
    start = time.perf_counter()
    while True:
        for i, argv in enumerate(ops):
            run_op(passes * len(ops) + i, argv)
        passes += 1
        if time.perf_counter() - start >= seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    omlab, cli, reports = import_omlab()
    source = checks.source_digest(SRC)
    setup = measure_setup(args.workload)
    for warm in workloads.WARMUP[args.workload]:
        execute(cli, reports, warm)

    RESULTS.mkdir(exist_ok=True)
    ledger = checks.Ledger(RESULTS / f"ledger-{source[:16]}.json")
    verify = Verifier(ledger)
    ops = workloads.generate(args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    walls = {tuple(argv): [] for argv in ops}   # raw wall times of each op
    scaled = {key: [] for key in walls}         # the same at reference speed
    kernel = [speed.kernel()]                   # the kernel time before the next op
    failed = attempted = 0

    def timed(argv: list, times: dict) -> Outcome:
        outcome = execute(cli, reports, argv)
        after = speed.kernel()
        walls[tuple(argv)].append(outcome.wall)
        times[tuple(argv)].append(speed.scale(outcome.wall, kernel[-1], after))
        kernel.append(after)
        return outcome

    t0 = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(omlab)
        plain = {key: [] for key in walls}

        def run_op(op_id, argv):
            nonlocal failed, attempted
            # Each op runs plain and traced, alternating which goes first.
            for traced_turn in ((False, True) if op_id % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracer.op(op_id):
                        outcome = timed(argv, scaled)
                    attempted += 1
                    failed += not outcome.ok
                    verify(outcome, tracer.op_counters())
                else:
                    verify(timed(argv, plain))

        passes = run_passes(ops, args.seconds, run_op)
        metrics = tracer.per_layer(passes)
        metrics["trace.overhead"] = (sum(map(sum, scaled.values()))
                                     / sum(map(sum, plain.values())))
        metrics["ops.failed_frac"] = failed / attempted
        tracer.write_spans(str(RESULTS / f"{stem}.spans.jsonl.gz"), t0)
        note = f"{passes} traced passes of {len(ops)} ops, {len(tracer.spans)} spans"
        wanted = spec["per_layer"]
    else:
        def run_op(op_id, argv):
            nonlocal failed, attempted
            outcome = timed(argv, scaled)
            attempted += 1
            failed += not outcome.ok
            verify(outcome)

        passes = run_passes(ops, args.seconds, run_op)
        times = [w for ws in scaled.values() for w in ws]
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000 * statistics.median(times),
            "op_p90_ms": 1000 * nearest_rank(times, 0.9),
            "ops_ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        beyond = sum(t > metrics["op_p90_ms"] / 1000 for t in times)
        raw = sum(map(sum, walls.values()))
        slowdown = statistics.median(kernel) / speed.REFERENCE_KERNEL_S
        note = (f"{passes} passes of {len(ops)} ops; {attempted / raw:.4g} ops/s before "
                f"scaling, machine {slowdown:.3g}x slower than the reference; "
                f"op_p90_ms over {len(times)} ops, {beyond} beyond it; "
                f"setup_s median of {len(setup)} probes")
        wanted = spec["end_to_end"]
    ledger.save()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"metrics not computed: {missing}")
    result = {
        "correct": not verify.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload,
        "provenance": provenance(args.seed, source),
        "seconds": args.seconds,
        "passes": passes,
        "note": note,
        "setup_samples_s": setup,
        "kernel_s": kernel,
        "ops": [{"argv": list(key), **verify.first[key],
                 "wall_ms": [1000 * w for w in walls[key]],
                 "scaled_ms": [1000 * w for w in scaled[key]]} for key in walls],
        "problems": verify.problems,
        "metrics": metrics,
        "result": result,
    }, indent=1))
    for problem in verify.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
