"""Finite ontological models: ontic spaces, epistemic states, response
functions, the Born-reproduction check and the epistemic/ontic classifier.

Weights and the Born tables they are checked against are exact
``Fraction``s throughout, so reproduction and overlap checks are equality
tests, not tolerance tests.  Continuous ontic spaces are out of scope here;
they live in :mod:`omlab.gaussian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence


class ModelError(ValueError):
    """Malformed model component or inconsistent query."""


@dataclass(frozen=True)
class OnticSpace:
    """The ontic states' labels: nonempty and distinct."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ModelError("ontic space must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("ontic labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class EpistemicState:
    """Probability distribution over an ontic space, exact rationals."""

    space: OnticSpace
    weights: tuple

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if len(ws) != self.space.size:
            raise ModelError("weight vector length does not match ontic space")
        if any(w < 0 for w in ws):
            raise ModelError("negative epistemic weight")
        if sum(ws) != 1:
            raise ModelError(f"epistemic weights sum to {sum(ws)}, not 1")

    @property
    def support(self) -> tuple:
        return tuple(l for l, w in zip(self.space.labels, self.weights) if w > 0)

    def is_point_mass(self) -> bool:
        return sum(1 for w in self.weights if w > 0) == 1


@dataclass(frozen=True)
class ResponseFunction:
    """Outcome-probability table xi[outcome][lambda], rows per outcome."""

    space: OnticSpace
    outcomes: tuple
    table: tuple  # table[o][l] with o indexing outcomes, l indexing labels

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.table)
        object.__setattr__(self, "table", rows)
        if len(rows) != len(self.outcomes):
            raise ModelError("table row count does not match outcomes")
        for row in rows:
            if len(row) != self.space.size:
                raise ModelError("table column count does not match ontic space")
            if any(not 0 <= x <= 1 for x in row):
                raise ModelError("response entries must lie in [0, 1]")
        for l in range(self.space.size):
            col = sum(row[l] for row in rows)
            if col != 1:
                raise ModelError(
                    f"response column for {self.space.labels[l]!r} sums to {col}, not 1"
                )

    def row(self, outcome) -> tuple:
        """xi(outcome | lambda) for every label, in the space's order."""
        try:
            return self.table[self.outcomes.index(outcome)]
        except ValueError:
            raise ModelError(f"unknown outcome {outcome!r}") from None


@dataclass(frozen=True)
class OntologicalModel:
    """One ontic space with labelled preparations (epistemic states) and
    measurements (response functions) over it."""

    space: OnticSpace
    preparations: Mapping[str, EpistemicState]
    measurements: Mapping[str, ResponseFunction]

    def __post_init__(self):
        for name, p in self.preparations.items():
            if p.space != self.space:
                raise ModelError(f"preparation {name!r} uses a different ontic space")
        for name, m in self.measurements.items():
            if m.space != self.space:
                raise ModelError(f"measurement {name!r} uses a different ontic space")

    def preparation(self, label) -> EpistemicState:
        try:
            return self.preparations[label]
        except KeyError:
            raise ModelError(f"unknown preparation {label!r}") from None

    def measurement(self, label) -> ResponseFunction:
        try:
            return self.measurements[label]
        except KeyError:
            raise ModelError(f"unknown measurement {label!r}") from None


def predicted_probability(model: OntologicalModel, prep, meas, outcome) -> Fraction:
    """sum_lambda p(lambda) xi(outcome | lambda), exact."""
    p = model.preparation(prep)
    row = model.measurement(meas).row(outcome)
    return sum((w * x for w, x in zip(p.weights, row)), Fraction(0))


@dataclass(frozen=True)
class ReproductionRow:
    """One (prep, meas, outcome) triple: the model's probability, the Born
    value, and whether they are equal."""

    prep: str
    meas: str
    outcome: str
    model_value: Fraction
    quantum_value: Fraction
    match: bool


@dataclass(frozen=True)
class ReproductionReport:
    """Every triple's row; ``ok`` holds iff each row matches."""

    rows: tuple
    ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ok", all(r.match for r in self.rows))

    def mismatches(self) -> tuple:
        return tuple(r for r in self.rows if not r.match)


def reproduction_check(model: OntologicalModel, quantum_table: Mapping) -> ReproductionReport:
    """Compare every (prep, meas, outcome) triple against a Born table.

    ``quantum_table`` maps (prep, meas, outcome) to the Born probability and
    must cover the whole model; values are compared by equality.
    """
    rows = []
    for prep in model.preparations:
        for meas, xi in model.measurements.items():
            for outcome in xi.outcomes:
                key = (prep, meas, outcome)
                if key not in quantum_table:
                    raise ModelError(f"quantum table is missing entry {key!r}")
                qv = quantum_table[key]
                mv = predicted_probability(model, prep, meas, outcome)
                rows.append(ReproductionRow(prep, meas, outcome, mv, qv, mv == qv))
    return ReproductionReport(tuple(rows))


def overlap_witness(a: EpistemicState, b: EpistemicState):
    """Some lambda where both states put positive weight, or None."""
    if a.space != b.space:
        raise ModelError("epistemic states live on different ontic spaces")
    for lam, wa, wb in zip(a.space.labels, a.weights, b.weights):
        if wa * wb > 0:
            return lam
    return None


PSI_COMPLETE = "psi_complete"
PSI_SUPPLEMENTED = "psi_supplemented"
PSI_EPISTEMIC = "psi_epistemic"


def classify(model: OntologicalModel) -> str:
    """psi_epistemic / psi_complete / psi_supplemented per overlap structure.

    psi_epistemic: some pair of distinct preparations overlaps.
    psi_complete: all preparations are point masses and preparation ->
    ontic-label is a bijection onto the whole space.  Everything else is
    psi_supplemented (ontic but not complete).
    """
    preps = list(model.preparations.items())
    if len(preps) < 2:
        raise ModelError("classification needs at least 2 preparations")
    for i in range(len(preps)):
        for j in range(i + 1, len(preps)):
            if overlap_witness(preps[i][1], preps[j][1]) is not None:
                return PSI_EPISTEMIC
    if all(p.is_point_mass() for _, p in preps):
        peaks = {p.support[0] for _, p in preps}
        if len(peaks) == len(preps) and peaks == set(model.space.labels):
            return PSI_COMPLETE
    return PSI_SUPPLEMENTED


def permute_labels(model: OntologicalModel, new_order: Sequence) -> OntologicalModel:
    """Relabel the ontic space by the given ordering of existing labels."""
    if len(new_order) != model.space.size or set(new_order) != set(model.space.labels):
        raise ModelError("new_order must be a permutation of the labels")
    idx = [model.space.labels.index(l) for l in new_order]
    space = OnticSpace(tuple(new_order))
    preparations = {
        name: EpistemicState(space, tuple(p.weights[i] for i in idx))
        for name, p in model.preparations.items()
    }
    measurements = {
        name: ResponseFunction(space, xi.outcomes,
                               tuple(tuple(row[i] for i in idx) for row in xi.table))
        for name, xi in model.measurements.items()
    }
    return OntologicalModel(space, preparations, measurements)
