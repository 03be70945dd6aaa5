#!/usr/bin/env python3
"""Which omlab code the lab's own command lines reach.

The command lines are the ones the benchmark and the scripts issue: every op
of ``perfbench/workloads.generate(w, s)`` for the three workloads at seeds
1-3, the benchmark's warm-up ops, ``scripts/run_all_checks.RUNS`` with
``--format json`` and with ``--format text``, and the edge cases in
``EDGE_ARGVS``; then the usage errors in ``USAGE_ARGVS``, which exit 2 with
no report.  Each runs in process through ``cli.main`` under
``sys.settrace``, with its output kept only for the names of its failed
rows and ``OMLAB_OUTPUT_DIR`` unset; omlab is imported under the same trace,
so module-level code counts as reached.

It prints how many command lines exit 0 and 1, and how many of each group
reached ``cli._argparse``,
which parses every form but the one the lab issues.  For each module it
prints its statements (``ast`` statements, docstrings left out) and how
many of them the trace reached.  Then it lists
every function, method or class whose body no command line enters.  A
function is entered when it is called.  A class is entered when one of its
own functions is, when a method runs on one of its instances, or when one of
its instances is raised.

A definition may stay unentered only as an entry of ``KEPT``, keyed by file
and qualified name, with the reason it stays.  The script exits 1 when a
command line of ``argvs()`` reaches ``cli._argparse``; when one exits 1,
unless it is in ``REJECTED_ARGVS``; when one of those exits 0 or fails a row
other than "run completed without errors"; when a usage error does not exit
2, an unentered definition is not in ``KEPT``, or a ``KEPT`` entry is entered
or names no definition; else 0, so it can run as a check.  It takes no
options.

    python3 scripts/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

sys.dont_write_bytecode = True  # the script writes nothing
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "omlab"
for path in (ROOT / "src", ROOT / "perfbench", ROOT / "scripts"):
    sys.path.insert(0, str(path))

# One rejected value per range-checked option: each exits 1, and its one
# failed row is "run completed without errors", which names the error.
REJECTED_ARGVS = [
    ["nogo", "pbr", "--lambda-size", "9"],
    ["nogo", "pbr", "--grid-denominator", "0"],
    ["nogo", "pbr", "--null-budget", "1"],
    ["nogo", "hardy", "--lambda-size", "1"],
    ["nogo", "hardy", "--lambda-size", "9"],
    ["gaussian", "epr", "--squeeze", "-1"],
    ["gaussian", "suite", "--lambda", "0"],
    ["gaussian", "epr", "--lambda", "-1"],
    ["gaussian", "suite", "--lambda", "nan"],
    ["gaussian", "epr", "--lambda", "inf"],
    # lambda outside the documented range, where the float arithmetic fails
    ["gaussian", "suite", "--lambda", "1e-308"],
    ["gaussian", "epr", "--lambda", "1e-320"],
    ["gaussian", "suite", "--lambda", "1e305"],
    ["gaussian", "epr", "--lambda", "1e308"],
    # squeeze outside its documented range, where the float arithmetic fails
    ["gaussian", "epr", "--squeeze", "20"],
    ["gaussian", "epr", "--squeeze", "1e3"],
    ["gaussian", "epr", "--squeeze", "nan"],
    ["gaussian", "epr", "--squeeze", "inf"],
    # non-finite float readings, which fail naming the parameter
    ["simulate", "mz", "--theta", "nan"],
    ["gaussian", "epr", "--value", "nan"],
]

EDGE_ARGVS = [
    ["nogo", "pbr", "--q", "none", "--relax-product"],
    ["nogo", "pbr", "--q", "none", "--relax-product", "--null-budget", "1/2"],
    ["nogo", "pbr", "--lambda-size", "1"],
    ["nogo", "pbr", "--q", "1"],
    ["nogo", "hardy", "--lambda-size", "8", "--drop-invar"],
    ["simulate", "mz", "--theta", "1.0"],
    ["verify", "noncomm", "--seed", "54"],
    ["gaussian", "epr", "--squeeze", "10"],
    # lambda far below 1, where products of two mode variances underflow
    ["gaussian", "suite", "--lambda", "1e-160"],
    ["gaussian", "epr", "--lambda", "1e-300"],
    *REJECTED_ARGVS,
    # a negative reading in exponent form, which argparse once took for an option
    ["gaussian", "epr", "--value", "-1e3"],
    # a large reading, whose posterior mean is held to a relative 1e-9
    ["gaussian", "epr", "--squeeze", "1", "--value", "1e10"],
]

# One option per verb that has options, given to a target that does not take
# it, a "--" given as an "=" value and a command's option given before the
# verb: each is a usage error (exit 2), so it yields no report and stays out
# of ``argvs()``.
USAGE_ARGVS = [
    ["verify", "toy-born", "--seed", "3"],
    ["nogo", "chsh", "--q", "1/2"],
    ["gaussian", "suite", "--squeeze", "9"],
    ["--output=--", "nogo", "chsh"],
    ["--seed", "3", "verify", "noncomm"],
]

# (file, qualified name) -> why no lab command line needs to enter it.
_FAILURE = "a failure path: no lab command line feeds it a fault"
_ITEMS_8_18 = "ROADMAP items 8 and 18 call it"
KEPT = {
    ("cli.py", "_path"): "the argparse type that rejects a blank --output",
    ("models.py", "ModelError"): _FAILURE,
    ("models.py", "EpistemicState.support"): _ITEMS_8_18,
    ("models.py", "EpistemicState.is_point_mass"): _ITEMS_8_18,
    ("models.py", "overlap_witness"): _ITEMS_8_18,
    ("models.py", "classify"): _ITEMS_8_18,
    ("models.py", "permute_labels"): _ITEMS_8_18,
    ("pbr.py", "_model_error"): _FAILURE,
    ("quantum.py", "tensor"): "ROADMAP items 3, 16 and 19 call it",
    ("reports.py", "ReportError"): _FAILURE,
    ("reports.py", "_Fault"): _FAILURE,
    ("reports.py", "_Fault.__init__"): _FAILURE,
    ("toy.py", "ToyPermutation.inverse"): "ROADMAP items 14 and 15 call it",
    ("toy.py", "_as_prob_vector"): "ROADMAP item 4 calls it",
    ("toy.py", "knowledge_measure"): "ROADMAP item 4 calls it",
}


class Reach:
    """The trace: omlab lines hit, omlab code objects entered, and the
    classes of the instances methods ran on or that were raised."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.lines = defaultdict(set)   # file -> line numbers of line events
        self.entered = Counter()        # (file, co_firstlineno) -> calls
        self.types = set()

    def call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(self.prefix):
            self.entered[code.co_filename, code.co_firstlineno] += 1
            self._note_self(frame)
            return self.local
        if code.co_filename == "<string>":  # dataclass-generated methods
            self._note_self(frame)
        return None

    def local(self, frame, event, arg):
        if event == "line":
            self.lines[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "exception":
            self.types.update(arg[0].__mro__)
        return self.local

    def _note_self(self, frame):
        code = frame.f_code
        if code.co_argcount and code.co_varnames[0] == "self":
            self.types.update(type(frame.f_locals["self"]).__mro__)


def argvs() -> list:
    import run_all_checks
    import workloads

    runs = [argv for w in workloads.WORKLOADS for s in (1, 2, 3)
            for argv in workloads.generate(w, s)]
    runs += [argv for ops in workloads.WARMUP.values() for argv in ops]
    runs += [["--format", fmt] + argv for fmt in ("json", "text")
             for argv in run_all_checks.RUNS]
    return runs + EDGE_ARGVS


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _children(stmt) -> list:
    kids = [s for name in ("body", "orelse", "finalbody") for s in getattr(stmt, name, [])]
    for clause in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        kids += clause.body
    return kids


def _first_line(node) -> int:
    return min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])


def module_reach(tree, hits: set) -> tuple:
    """(statements, reached): a simple statement is reached when a line event
    fell on one of its lines, a compound one when one fell on its header or
    a statement under it was reached."""
    memo = {}

    def reached(stmt) -> bool:
        if stmt not in memo:
            kids = _children(stmt)
            last = kids[0].lineno - 1 if kids and kids[0].lineno > stmt.lineno else stmt.end_lineno
            own = any(line in hits for line in range(_first_line(stmt), last + 1))
            memo[stmt] = own or any(reached(k) for k in kids if not _is_docstring(k))
        return memo[stmt]

    stmts = [s for s in ast.walk(tree) if isinstance(s, ast.stmt) and not _is_docstring(s)]
    return len(stmts), sum(reached(s) for s in stmts)


def _resolve(module, qualname: str):
    """The class a qualified name names in ``module``; None when it is local
    to a function."""
    obj = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
    return obj


def definitions(path: Path, tree, reach: Reach, module) -> list:
    """(line, qualified name, entered) of each function, method and class."""
    found = []

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                entered = (str(path), _first_line(child)) in reach.entered
                if entered:
                    entered_classes.add(owner)
                found.append((child.lineno, name, entered))
                visit(child, name + ".<locals>.", None)
            elif isinstance(child, ast.ClassDef):
                name = prefix + child.name
                visit(child, name + ".", name)
                found.append((child.lineno, name, name in entered_classes
                              or _resolve(module, name) in reach.types))
            else:
                visit(child, prefix, owner)

    entered_classes = set()
    visit(tree, "", None)
    return sorted(found)


def main() -> int:
    os.environ.pop("OMLAB_OUTPUT_DIR", None)
    reach = Reach()
    sys.settrace(reach.call)
    try:
        from omlab import cli

        code = cli._argparse.__code__
        argparse_key = (code.co_filename, code.co_firstlineno)  # one call per command line
        runs = argvs()
        codes, failed_rows = [], []
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(cli.main(argv))
            failed_rows.append({line.partition(": expected ")[0].removeprefix("[FAIL] ")
                                for line in out.getvalue().splitlines()
                                if line.startswith("[FAIL] ")})
        argparsed = reach.entered[argparse_key]
        usage_codes = []
        for argv in USAGE_ARGVS:
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    usage_codes.append(cli.main(argv))
            except SystemExit as stop:
                usage_codes.append(stop.code)
    finally:
        sys.settrace(None)
    print(f"{len(runs)} command lines: {codes.count(0)} exit 0, "
          f"{len(codes) - codes.count(0)} exit 1; {argparsed} reached argparse")
    bad_usage = [argv for argv, code in zip(USAGE_ARGVS, usage_codes) if code != 2]
    print(f"{len(USAGE_ARGVS)} usage errors, exit "
          + ", ".join(str(code) for code in sorted(set(usage_codes)))
          + f"; {reach.entered[argparse_key] - argparsed} reached argparse")
    print(f"{'module':14s} {'statements':>10s} {'reached':>8s}")
    total = [0, 0]
    dead, entered = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        n, hit = module_reach(tree, reach.lines[str(path)])
        total = [total[0] + n, total[1] + hit]
        print(f"{path.name:14s} {n:10d} {hit:8d}")
        module = sys.modules["omlab" if path.stem == "__init__" else f"omlab.{path.stem}"]
        for line, name, was_entered in definitions(path, tree, reach, module):
            if was_entered:
                entered.add((path.name, name))
            else:
                dead.append((path.name, line, name))
    print(f"{'total':14s} {total[0]:10d} {total[1]:8d}")
    print(f"definitions no command line enters ({len(dead)}):")
    for file, line, name in dead:
        print(f"  {file}:{line} {name}  ({KEPT.get((file, name), 'not in KEPT')})")
    fails = [f"usage error {' '.join(argv)} did not exit 2" for argv in bad_usage]
    for argv, code, failed in zip(runs, codes, failed_rows):
        if argv not in REJECTED_ARGVS:
            if code:
                fails.append(f"{' '.join(argv)} exited {code}")
        elif code != 1 or failed != {"run completed without errors"}:
            fails.append(f"rejected value {' '.join(argv)} exited {code}, failing rows "
                         f"{sorted(failed)} in place of only 'run completed without errors'")
    if argparsed:
        fails.append(f"{argparsed} lab command lines reached cli._argparse")
    fails += [f"{file}:{line} {name} is entered by no command line and not in KEPT"
              for file, line, name in dead if (file, name) not in KEPT]
    unentered = {(file, name) for file, _, name in dead}
    for file, name in KEPT:
        if (file, name) in entered:
            fails.append(f"KEPT entry {file} {name} is entered: drop it from KEPT")
        elif (file, name) not in unentered:
            fails.append(f"KEPT entry {file} {name} names no definition")
    for fail in fails:
        print(f"FAIL: {fail}")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
