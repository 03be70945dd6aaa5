#!/usr/bin/env python3
"""Run every verification verb and print a one-line summary per run.

Every report is also serialized to schema-checked JSON; a report that fails
the schema counts as a failed run.
"""

import sys

import jsonschema

from omlab.cli import run
from omlab.reports import RunConfig, emit

RUNS = [
    RunConfig(command="verify toy-born"),
    RunConfig(command="verify noncomm", seed=7),
    RunConfig(command="verify combine-table"),
    RunConfig(command="verify steering"),
    RunConfig(command="verify no-signaling"),
    RunConfig(command="simulate mz",
              args={"phase_in": True, "model": "both", "source": "first_splitter"}),
    RunConfig(command="simulate mz",
              args={"phase_in": False, "model": "both", "source": "first_splitter"}),
    RunConfig(command="nogo pbr",
              args={"q": "1/4", "lambda_size": 4, "grid_denominator": 4}),
    RunConfig(command="nogo pbr", args={"q": None}),
    RunConfig(command="nogo pbr", args={"q": "1/4", "null_budget": "1/2"}),
    RunConfig(command="nogo hardy", args={"lambda_size": 4}),
    RunConfig(command="nogo hardy", args={"lambda_size": 4, "drop_invar": True}),
    RunConfig(command="nogo chsh"),
    RunConfig(command="gaussian suite", number_mode="float"),
]


def main() -> int:
    worst = 0
    for config in RUNS:
        report = run(config)
        ok = report.all_passed
        try:
            emit(report, "json")
            schema = ""
        except jsonschema.ValidationError as exc:
            ok = False
            schema = f"  schema error: {exc.message}"
        n_pass = sum(1 for c in report.checks if c.passed)
        print(f"{'PASS' if ok else 'FAIL'}  {config.command:24s} "
              f"{n_pass}/{len(report.checks)} checks  "
              f"{report.wall_clock_s:6.2f}s  args={config.args}{schema}")
        worst = max(worst, 0 if ok else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
