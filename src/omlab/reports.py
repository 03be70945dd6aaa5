"""Run configuration and structured, replayable report documents.

Every CLI run produces a ReportDocument: the echoed configuration, one row
per check (expected vs observed, a provenance tag and a pass flag), a
version stamp and the wall clock.  JSON serialization is deterministic
(sorted keys), so identical (config, seed) pairs emit byte-identical
documents apart from the wall-clock field.  The document shape is pinned
by ``schemas/report-v1.schema.json``.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field

from . import __version__

SCHEMA_ID = "omlab/report-v1"
PROVENANCES = ("PAPER", "DERIVED", "TRIVIAL")


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    args: dict = field(default_factory=dict)
    seed: int = 0
    number_mode: str = "exact"
    tolerance: float = 1e-12
    output: str | None = None

    def __post_init__(self):
        if self.number_mode not in ("exact", "float"):
            raise ReportError("number_mode must be 'exact' or 'float'")
        if self.tolerance <= 0:
            raise ReportError("tolerance must be positive")

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "args": dict(self.args),
            "seed": self.seed,
            "number_mode": self.number_mode,
            "tolerance": self.tolerance,
            "output": self.output,
        }


@dataclass(frozen=True)
class CheckResult:
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


@dataclass(frozen=True)
class ReportDocument:
    config: RunConfig
    checks: tuple
    wall_clock_s: float
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "version": self.version,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "wall_clock_s": self.wall_clock_s,
        }


def load_schema() -> dict:
    text = importlib.resources.files("omlab").joinpath(
        "schemas/report-v1.schema.json").read_text()
    return json.loads(text)


def validate_report(doc: dict) -> None:
    """Raise what ``jsonschema.validate`` raises, minus its meta-schema check
    of the fixed package schema (the tests make that check once).
    ``jsonschema`` is imported here, so text-format runs never load it."""
    import jsonschema

    schema = load_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise error


def emit(report: ReportDocument, fmt: str = "json") -> str:
    """Deterministic serialization; JSON round-trips losslessly."""
    if fmt == "json":
        doc = report.to_json()
        validate_report(doc)
        return json.dumps(doc, sort_keys=True, indent=2)
    if fmt == "text":
        lines = [f"omlab {report.version} :: {report.config.command}"]
        for c in report.checks:
            flag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.name}: expected {c.expected}, "
                         f"observed {c.observed}  ({c.provenance})")
        n_ok = sum(1 for c in report.checks if c.passed)
        lines.append(f"{n_ok}/{len(report.checks)} checks passed "
                     f"in {report.wall_clock_s:.3f}s")
        return "\n".join(lines)
    raise ReportError(f"unknown format {fmt!r}")

