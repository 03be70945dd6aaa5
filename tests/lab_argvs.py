"""The lab's own command lines, as ``scripts/reach.py`` lists them, read
without leaving that script's ``sys.path`` entries or its
``sys.dont_write_bytecode`` behind."""

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def _reach():
    saved = sys.path[:], sys.dont_write_bytecode
    try:
        # reach.argvs() imports from both, after reach's own import is cached
        sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
        import reach

        yield reach
    finally:
        sys.path[:], sys.dont_write_bytecode = saved


def reach_argvs() -> list:
    """Every distinct command line of ``reach.argvs()``, once, in order."""
    with _reach() as reach:
        return [list(argv) for argv in dict.fromkeys(map(tuple, reach.argvs()))]


def edge_argvs() -> list:
    with _reach() as reach:
        return [list(argv) for argv in reach.EDGE_ARGVS]


def usage_argvs() -> list:
    with _reach() as reach:
        return [list(argv) for argv in reach.USAGE_ARGVS]
