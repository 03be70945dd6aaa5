"""Set-up probe: one fresh interpreter imports omlab and runs warm-up ops.

Usage: python3 probe.py SRC_DIR WARMUP_JSON

Prints {"setup_s": ..., "kernel_before_s": ..., "kernel_after_s": ...}:
the seconds from just before importing omlab until the warm-up ops have
returned, and the speed kernel's time on either side of them.  The ops' own
verdicts do not matter here: their job is to finish every lazy set-up the
workload pays once, and the measuring run checks the verdicts.
"""

import json
import sys
import time

import speed


def main() -> None:
    src, warmup = sys.argv[1], json.loads(sys.argv[2])
    before = speed.kernel()
    start = time.perf_counter()
    sys.path.insert(0, src)
    from omlab import cli, reports

    for argv in warmup:
        report = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
        try:
            reports.emit(report, "json")
        except Exception:  # a failed emit is still a finished warm-up
            pass
    setup = time.perf_counter() - start
    print(json.dumps({"setup_s": setup, "kernel_before_s": before,
                      "kernel_after_s": speed.kernel()}))


if __name__ == "__main__":
    main()
