#!/usr/bin/env python3
"""Compare the reports of a base revision with this tree's, command line by
command line.

The command lines are ``scripts/reach.py``'s: every op of the three perfbench
workloads at seeds 1-3, the warm-up ops, ``scripts/run_all_checks.RUNS`` and
``reach.EDGE_ARGVS``, each distinct argv once.  Each tree runs all of them in
one fresh interpreter, in process (``cli.build_parser`` ->
``cli.config_from_args`` -> ``cli.run`` -> ``reports.emit``), and compares
two texts of each report: its JSON minus ``wall_clock_s``, and its text
format with the ``in N.NNNs`` timing cut from the last line.  A run that
raises is compared by its exception's type and message.  The base tree's
``src/`` is extracted from git with ``git archive``.

The script prints each argv whose report differs, with the top-level keys
and check names that differ (``text`` for the text format), and exits 1 if
any does.

    python3 scripts/report_diff.py --base 1bbb6f6
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # the script writes nothing into the trees
sys.path.insert(0, str(Path(__file__).resolve().parent))
import reach  # noqa: E402  (puts perfbench/ and scripts/ on sys.path)
from ab import SRC, extract_src  # noqa: E402

# Prints one line per argv: its report JSON minus wall_clock_s and its text
# minus the timing, or what it raised.
WORKER = r"""
import json, sys
from pathlib import Path
import omlab
from omlab import cli, reports
if Path(omlab.__file__).resolve().parent != (Path(sys.argv[2]) / "omlab").resolve():
    sys.exit(f"imported omlab from {omlab.__file__}, not from {sys.argv[2]}")
for argv in json.loads(open(sys.argv[1]).read()):
    try:
        report = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
        doc = json.loads(reports.emit(report, "json"))
        del doc["wall_clock_s"]
        # the last line ends "checks passed in N.NNNs"
        text = reports.emit(report, "text").rpartition(" in ")[0]
    except (Exception, SystemExit) as exc:
        doc, text = {"raised": f"{type(exc).__name__}: {exc}"}, None
    print(json.dumps({"json": doc, "text": text}, sort_keys=True))
"""


def reports_of(src: Path, argvs_path: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("OMLAB_OUTPUT_DIR", None)
    out = subprocess.run([sys.executable, "-c", WORKER, str(argvs_path), str(src)],
                         check=True, capture_output=True, text=True, env=env,
                         cwd=argvs_path.parent).stdout
    return out.splitlines()


def what_differs(base: dict, change: dict) -> list:
    """Top-level keys of the JSON that differ; for ``checks``, the names of
    the checks; ``text`` if the text format differs."""
    text = ["text"] if base["text"] != change["text"] else []
    base, change = base["json"], change["json"]
    keys = sorted(k for k in base.keys() | change.keys() if base.get(k) != change.get(k))
    if "checks" not in keys or not isinstance(base.get("checks"), list):
        return keys + text
    old = {c["name"]: c for c in base["checks"]}
    new = {c["name"]: c for c in change.get("checks", [])}
    names = sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))
    return [k for k in keys if k != "checks"] + [f"check {n!r}" for n in names] + text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    args = ap.parse_args()

    argvs = list(dict.fromkeys(map(tuple, reach.argvs())))
    with tempfile.TemporaryDirectory() as tmp:
        argvs_path = Path(tmp) / "argvs.json"
        argvs_path.write_text(json.dumps(argvs))
        base = reports_of(extract_src(args.base, Path(tmp) / "base"), argvs_path)
        change = reports_of(SRC, argvs_path)
    differ = [(argv, b, c) for argv, b, c in zip(argvs, base, change) if b != c]
    for argv, b, c in differ:
        print(f"omlab {' '.join(argv)}: {', '.join(what_differs(json.loads(b), json.loads(c)))}")
    print(f"{len(argvs)} distinct command lines: {len(differ)} reports differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
