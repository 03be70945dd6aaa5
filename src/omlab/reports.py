"""Run configuration and structured, replayable report documents.

Every CLI run produces a ReportDocument: the echoed configuration, one row
per check (expected vs observed, a provenance tag and a pass flag) and the
wall clock, stamped with ``omlab.__version__``.  Every row is made by
``row``, which writes its values with ``fmt``.  JSON serialization is
deterministic (sorted keys), so identical configs emit byte-identical
documents apart from the wall-clock field.  The document shape is pinned
by ``schemas/report-v1.schema.json``.  ``validate_report`` checks each JSON
report against it, interpreting the draft 2020-12 keywords it uses as
jsonschema does, so the package needs no jsonschema at run time.
"""

from __future__ import annotations

import importlib.resources
import json
import numbers
from dataclasses import KW_ONLY, dataclass, field
from fractions import Fraction

from . import __version__
from .models import frac_str

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
    text = importlib.resources.files("omlab").joinpath(
        "schemas/report-v1.schema.json").read_text()
    return json.loads(text)


_DRAFT = "https://json-schema.org/draft/2020-12/schema"

# The types of draft 2020-12 as jsonschema checks them: a bool is never a
# number, an integral float is an integer, and a numpy scalar is a number
# exactly when it is a numbers.Number (numpy.int64 is, numpy.bool_ is not).
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _type_names(v) -> list:
    return [v] if isinstance(v, str) else v


def _strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


# keyword -> the forms of its value that _check interprets.  Consts and enums
# are strings only: then == is the schema's equality, which never equates a
# bool with a number.  Subschemas are checked by _check_form's recursion.
_FORMS = {
    "$schema": lambda v: v == _DRAFT,
    "$id": _TYPES["string"],
    "title": _TYPES["string"],
    "type": lambda v: _strings(_type_names(v)) and set(_type_names(v)) <= _TYPES.keys(),
    "const": _TYPES["string"],
    "enum": _strings,
    "required": _strings,
    "properties": _TYPES["object"],
    "additionalProperties": lambda v: v is False,
    "items": _TYPES["object"],
    "minimum": _TYPES["number"],
}


def _check_form(schema) -> None:
    """Raise ReportError naming the first keyword of ``schema`` or of one of
    its subschemas that has no form in ``_FORMS``."""
    if not isinstance(schema, dict):
        raise ReportError(f"unsupported schema form {schema!r}")
    for key, value in schema.items():
        if key not in _FORMS or not _FORMS[key](value):
            raise ReportError(f"unsupported schema keyword or form {key!r}: {value!r}")
    items = [schema["items"]] if "items" in schema else []
    for sub in [*schema.get("properties", {}).values(), *items]:
        _check_form(sub)


def _check(schema: dict, value, path: str) -> None:
    """Raise ReportError("<path>: <reason>") at the first keyword of ``schema``
    that ``value`` fails, descending into properties and items."""
    if "type" in schema and not any(_TYPES[t](value) for t in _type_names(schema["type"])):
        raise ReportError(f"{path}: {value!r} is not of type {schema['type']!r}")
    if "const" in schema and value != schema["const"]:
        raise ReportError(f"{path}: {schema['const']!r} was expected")
    if "enum" in schema and value not in schema["enum"]:
        raise ReportError(f"{path}: {value!r} is not one of {schema['enum']!r}")
    # the bound applies to numbers only, and nan passes it
    if "minimum" in schema and _TYPES["number"](value) and value < schema["minimum"]:
        raise ReportError(f"{path}: {value!r} is less than the minimum of {schema['minimum']!r}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                raise ReportError(f"{path}: {key!r} is a required property")
        extra = [key for key in value if key not in properties]
        if extra and "additionalProperties" in schema:  # whose one form is false
            raise ReportError(f"{path}: additional properties {extra!r} are not allowed")
        for key, sub in properties.items():
            if key in value:
                _check(sub, value[key], f"{path}.{key}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(schema["items"], item, f"{path}[{i}]")


def validate_report(doc: dict) -> None:
    """Check ``doc`` against the package schema, read afresh, as jsonschema
    would.  A violation raises ReportError("<json_path>: <reason>"), the path
    in jsonschema's ``json_path`` notation; a keyword or form of the schema
    that ``_check`` does not interpret raises ReportError naming it."""
    schema = load_schema()
    _check_form(schema)
    _check(schema, doc, "$")


def emit(report: ReportDocument, fmt: str = "json") -> str:
    """Deterministic serialization; JSON round-trips losslessly."""
    if fmt == "json":
        doc = report.to_json()
        validate_report(doc)
        return json.dumps(doc, sort_keys=True, indent=2)
    if fmt == "text":
        lines = [f"omlab {__version__} :: {report.config.command}"]
        for c in report.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.name}: expected {c.expected}, "
                         f"observed {c.observed}  ({c.provenance})")
        n_ok = sum(1 for c in report.checks if c.passed)
        lines.append(f"{n_ok}/{len(report.checks)} checks passed "
                     f"in {report.wall_clock_s:.3f}s")
        return "\n".join(lines)
    raise ReportError(f"unknown format {fmt!r}")

