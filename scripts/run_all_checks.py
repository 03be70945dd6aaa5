#!/usr/bin/env python3
"""Run every verification verb and print a one-line summary per run: the
verdict, the command, passed/total checks and the run's wall clock in
milliseconds, each in a fixed-width column.

Every report is also serialized to schema-checked JSON; a report that fails
the schema counts as a failed run.
"""

import sys

from omlab.cli import build_parser, config_from_args, run
from omlab.reports import ReportError, emit

# Each run is an omlab command line; the CLI supplies every default.
RUNS = [
    ["verify", "toy-born"],
    ["verify", "noncomm", "--seed", "7"],
    ["verify", "combine-table"],
    ["verify", "steering"],
    ["verify", "no-signaling"],
    ["simulate", "mz"],
    ["simulate", "mz", "--phase", "0"],
    ["nogo", "pbr"],
    ["nogo", "pbr", "--q", "none"],
    ["nogo", "pbr", "--null-budget", "1/2"],
    ["nogo", "hardy"],
    ["nogo", "hardy", "--drop-invar"],
    ["nogo", "chsh"],
    ["gaussian", "suite"],
    ["gaussian", "epr"],
]


def main() -> int:
    worst = 0
    for argv in RUNS:
        config = config_from_args(build_parser().parse_args(argv))
        report = run(config)
        ok = report.all_passed
        try:
            emit(report, "json")
            schema = ""
        except ReportError as exc:
            ok = False
            schema = f"  schema error: {exc}"
        tally = f"{sum(1 for c in report.checks if c.passed)}/{len(report.checks)}"
        print(f"{'PASS' if ok else 'FAIL'}  {config.command:24s} "
              f"{tally:>7s} checks  {report.wall_clock_s * 1e3:9.2f} ms  "
              f"omlab {' '.join(argv)}{schema}")
        worst = max(worst, 0 if ok else 1)
    return worst


if __name__ == "__main__":
    sys.exit(main())
