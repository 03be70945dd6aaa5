"""Run configuration and structured, replayable report documents.

Every CLI run produces a ReportDocument: the echoed configuration, one row
per check (expected vs observed, a provenance tag and a pass flag) and the
wall clock, stamped with ``omlab.__version__``.  Every row is made by
``row``, which writes its values with ``fmt``, a fraction with ``frac_str``.
The document shape is pinned by ``schemas/report-v1.schema.json``.  ``emit``
checks a report against it and writes its JSON text in one walk, whichever
format it returns: the walk interprets the draft 2020-12 keywords the schema
uses as jsonschema does (so the package needs no jsonschema at run time) and
writes each value as ``json.dumps(doc, sort_keys=True, indent=2)`` would, so
identical configs emit byte-identical documents apart from the wall-clock
field.  The walk trusts the packaged schema to use only the keywords and
forms it interprets; the test suite checks that once, not each emit.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import KW_ONLY, dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__

SCHEMA_ID = "omlab/report-v1"
PROVENANCES = ("PAPER", "DERIVED", "TRIVIAL")


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """What a run is: the command, its args and where its report is written.
    A report's config has every arg of its command, an omitted one at its
    default; its number mode follows from the command and the args."""

    command: str
    args: dict = field(default_factory=dict)
    _: KW_ONLY
    output: str | None = None

    @property
    def number_mode(self) -> str:
        """'float' for the Gaussian commands and for ``simulate mz`` given a
        theta, else 'exact'."""
        floats = (self.command.startswith("gaussian ")
                  or self.command == "simulate mz" and self.args.get("theta") is not None)
        return "float" if floats else "exact"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "args": dict(self.args),
            "number_mode": self.number_mode,
            "output": self.output,
        }


@dataclass(frozen=True)
class CheckResult:
    """One row of a report: the check's name, expected and observed values,
    provenance tag, verdict and optional detail."""

    name: str
    expected: str
    observed: str
    provenance: str
    passed: bool
    detail: dict | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ReportError(f"provenance must be one of {PROVENANCES}")

    def to_json(self) -> dict:
        doc = {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "provenance": self.provenance,
            "passed": self.passed,
        }
        if self.detail is not None:
            doc["detail"] = self.detail
        return doc


def frac_str(x: Fraction) -> str:
    """A fraction as "n/d", in lowest terms, with the sign on n."""
    return f"{x.numerator}/{x.denominator}"


def fmt(value) -> str:
    """A value as a row writes it: a fraction as n/d, a bool in lower case, a
    float to 12 significant digits, anything else by ``str``."""
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def row(name, expected, observed, provenance, passed=None, detail=None) -> CheckResult:
    """The row of one check, its values written by ``fmt``; without ``passed``
    it passes iff the two texts agree."""
    e, o = fmt(expected), fmt(observed)
    if passed is None:
        passed = e == o
    return CheckResult(name, e, o, provenance, bool(passed), detail)


@dataclass(frozen=True)
class ReportDocument:
    """A run's config, its checks and its wall-clock seconds; its JSON and
    text carry the omlab version that produced it."""

    config: RunConfig
    checks: tuple
    wall_clock_s: float

    @property
    def all_passed(self) -> bool:
        """True iff there is a check and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "version": __version__,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "wall_clock_s": self.wall_clock_s,
        }


def load_schema() -> dict:
    text = (Path(__file__).with_name("schemas") / "report-v1.schema.json").read_text()
    return json.loads(text)


# The types of draft 2020-12 as jsonschema checks them: a bool is never a
# number, and a numpy scalar is a number exactly when it is a numbers.Number
# (numpy.int64 is, numpy.bool_ is not).
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


_encode_str = json.encoder.encode_basestring_ascii


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# The text of a scalar of each type that json writes, a subclass written as
# its first base here (an IntEnum as an int, a numpy.float64 as a float).
_LEAVES = {str: _encode_str, int: int.__repr__, float: _float_text,
           bool: {True: "true", False: "false"}.get, type(None): lambda _: "null"}


class _Fault(Exception):
    """A keyword that a value fails, or a value or key that JSON cannot
    write; ``keys`` gains the key or index of each container it leaves."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.keys = []


def _walk(schema, value, write, nl: str) -> None:
    """Check ``value`` against ``schema`` and pass ``write`` the text that
    ``json.dumps(value, sort_keys=True, indent=2)`` writes, ``nl`` being the
    newline and indent of the value's last line.

    The first keyword that ``value`` fails, keys taken in sorted order, or
    the first value or key that JSON cannot write, raises _Fault.  Where
    ``schema`` is None (inside ``args`` and ``detail``) there is nothing to
    check and the walk only writes."""
    if schema:
        types = schema.get("type")
        if types is not None and not (_TYPES[types](value) if isinstance(types, str)
                                      else any(_TYPES[t](value) for t in types)):
            raise _Fault(f"{value!r} is not of type {types!r}")
        if "const" in schema and value != schema["const"]:
            raise _Fault(f"{schema['const']!r} was expected")
        if "enum" in schema and value not in schema["enum"]:
            raise _Fault(f"{value!r} is not one of {schema['enum']!r}")
        # the bound applies to numbers only, and nan passes it
        if "minimum" in schema and _TYPES["number"](value) and value < schema["minimum"]:
            raise _Fault(f"{value!r} is less than the minimum of {schema['minimum']!r}")
    inner = nl + "  "
    if isinstance(value, dict):
        properties = schema.get("properties", {}) if schema else {}
        if schema:
            for key in schema.get("required", ()):
                if key not in value:
                    raise _Fault(f"{key!r} is a required property")
            extra = [key for key in value if key not in properties]
            if extra and "additionalProperties" in schema:  # whose one form is false
                raise _Fault(f"additional properties {extra!r} are not allowed")
        for key in value:
            if not isinstance(key, str):
                raise _Fault(f"keys must be str, not {type(key).__name__}")
        opening = "{" + inner
        try:
            for key in sorted(value):
                item, sub = value[key], properties.get(key)
                head = opening + _encode_str(key) + ": "
                opening = "," + inner
                leaf = None if sub else _LEAVES.get(type(item))
                if leaf is not None:
                    write(head + leaf(item))
                    continue
                write(head)
                _walk(sub, item, write, inner)
        except _Fault as fault:
            fault.keys.append(key)
            raise
        write(nl + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        items = schema.get("items") if schema and isinstance(value, list) else None
        opening = "[" + inner
        try:
            for i, item in enumerate(value):
                head = opening
                opening = "," + inner
                leaf = None if items else _LEAVES.get(type(item))
                if leaf is not None:
                    write(head + leaf(item))
                    continue
                write(head)
                _walk(items, item, write, inner)
        except _Fault as fault:
            fault.keys.append(i)
            raise
        write(nl + "]" if value else "[]")
    else:
        leaf = _LEAVES.get(type(value)) or next(
            (_LEAVES[t] for t in type(value).__mro__ if t in _LEAVES), None)
        if leaf is None:
            raise _Fault(f"Object of type {type(value).__name__} is not JSON serializable")
        write(leaf(value))


def _walk_report(doc: dict) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)``, written by
    ``_walk`` under the package schema, read afresh on every call; a _Fault
    becomes ReportError("<json_path>: <reason>"), the path in jsonschema's
    ``json_path`` notation."""
    schema = load_schema()
    parts = []
    try:
        _walk(schema, doc, parts.append, "\n")
    except _Fault as fault:
        path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(fault.keys))
        raise ReportError(f"${path}: {fault}") from None
    return "".join(parts)


def emit(report: ReportDocument, fmt: str = "json") -> str:
    """The report as ``fmt``, "json" or "text", after ``_walk_report`` has
    checked it; JSON round-trips losslessly, its text that of
    ``json.dumps(doc, sort_keys=True, indent=2)``.  Either format raises the
    same ReportError for a report the schema rejects or a value or key that
    JSON cannot write, naming its path."""
    if fmt not in ("json", "text"):
        raise ReportError(f"unknown format {fmt!r}")
    json_text = _walk_report(report.to_json())
    if fmt == "json":
        return json_text
    lines = [f"omlab {__version__} :: {report.config.command}"]
    for c in report.checks:
        flag = "PASS" if c.passed else "FAIL"
        lines.append(f"[{flag}] {c.name}: expected {c.expected}, "
                     f"observed {c.observed}  ({c.provenance})")
    n_ok = sum(1 for c in report.checks if c.passed)
    lines.append(f"{n_ok}/{len(report.checks)} checks passed "
                 f"in {report.wall_clock_s:.3f}s")
    return "\n".join(lines)
