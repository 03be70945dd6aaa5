"""Ontological-model framework: reproduction, overlap, classification."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omlab.models import (
    EpistemicState,
    ModelError,
    OnticSpace,
    OntologicalModel,
    ResponseFunction,
    PSI_COMPLETE,
    PSI_EPISTEMIC,
    PSI_SUPPLEMENTED,
    classify,
    overlap_witness,
    permute_labels,
    predicted_probability,
    reproduction_check,
)
from omlab.toy import build_toy_model, toy_born_table

HALF = Fraction(1, 2)


def delta_model(n_states: int, peaks: dict) -> OntologicalModel:
    """Point-mass preparations on an n-element space; one trivial response."""
    space = OnticSpace(tuple(range(1, n_states + 1)))
    preparations = {
        name: EpistemicState(space, tuple(Fraction(1) if l == peak else Fraction(0)
                                          for l in space.labels))
        for name, peak in peaks.items()
    }
    table = (tuple(Fraction(1) for _ in space.labels),)
    measurements = {"M": ResponseFunction(space, ("only",), table)}
    return OntologicalModel(space, preparations, measurements)


# ------------------------------------------------------------- prediction

def test_predicted_probability_reference_values():
    model = build_toy_model()
    assert predicted_probability(model, "0", "X", "+") == HALF
    assert predicted_probability(model, "+", "X", "+") == 1


def test_predicted_probability_unknown_labels():
    model = build_toy_model()
    with pytest.raises(ModelError):
        predicted_probability(model, "nope", "X", "+")
    with pytest.raises(ModelError):
        predicted_probability(model, "0", "nope", "+")
    with pytest.raises(ModelError):
        predicted_probability(model, "0", "X", "nope")


def test_outcomes_sum_to_one_for_all_pairs():
    model = build_toy_model()
    for prep in model.preparations:
        for meas, xi in model.measurements.items():
            total = sum(predicted_probability(model, prep, meas, o)
                        for o in xi.outcomes)
            assert total == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.data())
def test_outcomes_sum_to_one_random_models(n, data):
    space = OnticSpace(tuple(range(n)))
    raw = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if sum(raw) == 0:
        raw[0] = 1
    weights = tuple(Fraction(x, sum(raw)) for x in raw)
    prep = EpistemicState(space, weights)
    rows = []
    for _ in range(2):  # two outcomes with column-stochastic split
        rows.append([data.draw(st.integers(0, 4)) for _ in range(n)])
    table = []
    for o in range(2):
        row = []
        for l in range(n):
            tot = rows[0][l] + rows[1][l]
            row.append(Fraction(rows[o][l], tot) if tot else Fraction(1, 2))
        table.append(tuple(row))
    xi = ResponseFunction(space, ("a", "b"), tuple(table))
    model = OntologicalModel(space, {"p": prep, "q": prep}, {"M": xi})
    total = sum(predicted_probability(model, "p", "M", o) for o in ("a", "b"))
    assert total == 1


# ------------------------------------------------------------- reproduction

def test_toy_model_reproduces_all_36_triples():
    report = reproduction_check(build_toy_model(), toy_born_table())
    assert report.ok
    assert len(report.rows) == 36


def test_corrupting_one_response_entry_localizes_mismatches():
    model = build_toy_model()
    xi = model.measurements["X"]
    # flip xi("+", lambda=1) from 1 to 0
    table = [list(row) for row in xi.table]
    assert table[0][0] == 1
    table[0][0] = Fraction(0)
    table[1][0] = Fraction(1)  # keep the column stochastic
    broken = OntologicalModel(
        model.space, model.preparations,
        {**model.measurements,
         "X": ResponseFunction(model.space, xi.outcomes, tuple(map(tuple, table)))},
    )
    report = reproduction_check(broken, toy_born_table())
    assert not report.ok
    bad = report.mismatches()
    # exactly the triples whose preparation gives weight to lambda=1 under X
    assert all(r.meas == "X" for r in bad)
    affected_preps = {r.prep for r in bad}
    assert affected_preps == {"0", "+", "-i"}  # the supports containing 1


def test_reproduction_missing_entry():
    table = toy_born_table()
    table.pop(("0", "X", "+"))
    with pytest.raises(ModelError):
        reproduction_check(build_toy_model(), table)


def test_delta_model_reproduces_its_own_table():
    model = delta_model(2, {"a": 1, "b": 2})
    table = {(p, "M", "only"): Fraction(1) for p in ("a", "b")}
    assert reproduction_check(model, table).ok


# ------------------------------------------------------------- overlap

def test_overlap_witness_examples():
    space = OnticSpace((1, 2, 3, 4))
    p0 = EpistemicState(space, (HALF, HALF, 0, 0))
    pp = EpistemicState(space, (HALF, 0, HALF, 0))
    p1 = EpistemicState(space, (0, 0, HALF, HALF))
    assert overlap_witness(p0, pp) == 1
    assert overlap_witness(p0, p1) is None
    assert overlap_witness(p0, p0) is not None


def test_overlap_witness_mismatched_spaces():
    a = EpistemicState(OnticSpace((1, 2)), (HALF, HALF))
    b = EpistemicState(OnticSpace((1, 3)), (HALF, HALF))
    with pytest.raises(ModelError):
        overlap_witness(a, b)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_overlap_witness_symmetry(data):
    space = OnticSpace(tuple(range(4)))

    def draw_state():
        raw = data.draw(st.lists(st.integers(0, 5), min_size=4, max_size=4))
        if sum(raw) == 0:
            raw[0] = 1
        return EpistemicState(space, tuple(Fraction(x, sum(raw)) for x in raw))

    a, b = draw_state(), draw_state()
    assert (overlap_witness(a, b) is None) == (overlap_witness(b, a) is None)


# ------------------------------------------------------------- classify

def test_classify_toy_model_epistemic():
    assert classify(build_toy_model()) == PSI_EPISTEMIC


def test_classify_delta_complete():
    labels = ("0", "1", "+", "-", "+i", "-i")
    model = delta_model(6, {name: i + 1 for i, name in enumerate(labels)})
    assert classify(model) == PSI_COMPLETE


def test_classify_split_pairs_supplemented():
    # 12 ontic states, each preparation spread over its private pair
    space = OnticSpace(tuple(range(1, 13)))
    preparations = {}
    for i, name in enumerate(("0", "1", "+", "-", "+i", "-i")):
        w = [Fraction(0)] * 12
        w[2 * i] = HALF
        w[2 * i + 1] = HALF
        preparations[name] = EpistemicState(space, tuple(w))
    table = (tuple(Fraction(1) for _ in space.labels),)
    model = OntologicalModel(space, preparations,
                             {"M": ResponseFunction(space, ("only",), table)})
    assert classify(model) == PSI_SUPPLEMENTED
    # by enumeration: no pair overlaps, and no preparation is a point mass
    for (na, pa), (nb, pb) in itertools.combinations(preparations.items(), 2):
        assert overlap_witness(pa, pb) is None
    assert not any(p.is_point_mass() for p in preparations.values())


def test_classify_needs_two_preparations():
    model = delta_model(2, {"a": 1})
    with pytest.raises(ModelError):
        classify(model)


@settings(max_examples=200, deadline=None)
@given(st.permutations([1, 2, 3, 4]))
def test_classify_invariant_under_relabeling(order):
    model = build_toy_model()
    assert classify(permute_labels(model, tuple(order))) == classify(model)


# ------------------------------------------------------------- validation

def test_epistemic_state_validation():
    space = OnticSpace((1, 2))
    with pytest.raises(ModelError):
        EpistemicState(space, (HALF, HALF, HALF))
    with pytest.raises(ModelError):
        EpistemicState(space, (Fraction(3, 4), Fraction(1, 2)))
    with pytest.raises(ModelError):
        EpistemicState(space, (Fraction(-1, 2), Fraction(3, 2)))


def test_response_function_validation():
    space = OnticSpace((1, 2))
    with pytest.raises(ModelError):
        ResponseFunction(space, ("a", "b"),
                         ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))))
    with pytest.raises(ModelError):
        ResponseFunction(space, ("a",), ((Fraction(2), Fraction(0)),))


def test_ontic_space_validation():
    with pytest.raises(ModelError):
        OnticSpace(())
    with pytest.raises(ModelError):
        OnticSpace((1, 1))
