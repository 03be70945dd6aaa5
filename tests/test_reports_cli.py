"""Report documents, serialization determinism and the CLI surface."""

import ast
import copy
import dataclasses
import functools
import inspect
import itertools
import json
import math
import operator
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lab_argvs import edge_argvs, reach_argvs

from omlab import cli, gaussian, hardy, pbr, quantum, reports, toy
from omlab.reports import (
    CheckResult,
    ReportDocument,
    ReportError,
    RunConfig,
    emit,
    load_schema,
)


def option(command, key):
    """The ``cli.Option`` that fills ``key`` for ``command``."""
    (opt,) = [o for o in cli.COMMANDS[command][0] if o.key == key]
    return opt


def small_report(passed=True):
    config = RunConfig(command="verify noncomm", args={"seed": 3})
    checks = (CheckResult("demo", "1", "1" if passed else "0", "TRIVIAL", passed),)
    return ReportDocument(config, checks, wall_clock_s=0.01)


# ------------------------------------------------------------- documents

def test_a_config_is_its_command_args_and_output():
    assert [(f.name, f.kw_only) for f in dataclasses.fields(RunConfig)] == [
        ("command", False), ("args", False), ("output", True)]
    assert [f.name for f in dataclasses.fields(ReportDocument)] == [
        "config", "checks", "wall_clock_s"]
    # the report's config carries number_mode too, derived from the other two
    assert set(load_schema()["properties"]["config"]["properties"]) == {
        "command", "args", "number_mode", "output"}


def test_a_third_positional_argument_does_not_fill_output():
    # a call written when number_mode was the third field
    with pytest.raises(TypeError):
        RunConfig("x", {}, "exact")


@pytest.mark.parametrize("config, mode", [
    (RunConfig("gaussian suite", {"hbar_like": 1}), "float"),
    (RunConfig("gaussian epr"), "float"),
    (RunConfig("simulate mz", {"theta": 1.0}), "float"),
    (RunConfig("simulate mz", {"theta": None}), "exact"),
    (RunConfig("simulate mz"), "exact"),
])
def test_a_reports_number_mode_follows_from_its_command_and_args(config, mode):
    report = cli.run(config)
    assert report.all_passed
    assert (config.number_mode, report.to_json()["config"]["number_mode"]) == (mode, mode)


def test_a_config_that_does_not_resolve_is_echoed_as_given():
    config = RunConfig("nogo chsh", {"seed": 3}, output="o.json")
    report = cli.run(config)
    assert report.config is config and not report.all_passed
    assert report.to_json()["config"] == {"command": "nogo chsh", "args": {"seed": 3},
                                          "number_mode": "exact", "output": "o.json"}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_unknown_provenance_fails_emit_naming_its_path(fmt):
    # the schema's enum is the one list of provenance tags
    report = ReportDocument(RunConfig(command="verify toy-born"),
                            (CheckResult("n", "1", "1", "GUESSED", True),), 0.0)
    with pytest.raises(ReportError, match=r"^\$\.checks\[0\]\.provenance: 'GUESSED' is not one of"):
        emit(report, fmt)


def test_empty_report_is_schema_valid_and_does_not_pass():
    report = ReportDocument(RunConfig(command="verify toy-born"), (), 0.0)
    emit(report)
    assert report.to_json()["checks"] == []
    assert not report.all_passed  # a run that checked nothing shows nothing


def test_package_schema_passes_its_meta_schema():
    schema = load_schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def reference_paths(doc) -> set:
    """The ``json_path`` of every error jsonschema finds in ``doc``."""
    schema = load_schema()
    validator = jsonschema.validators.validator_for(schema)(schema)
    return {error.json_path for error in validator.iter_errors(doc)}


def our_path(doc):
    """None if ``reports._walk_report`` passes ``doc``, else the path it names."""
    try:
        reports._walk_report(doc)
    except ReportError as exc:
        return str(exc).partition(": ")[0]
    return None


def test_every_lab_report_passes_both_checkers():
    for argv in reach_argvs():
        doc = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv))).to_json()
        assert (our_path(doc), reference_paths(doc)) == (None, set()), argv


@functools.cache
def base_reports() -> tuple:
    """Reports with each optional field present and absent: a row without a
    detail and one with a None detail, a failed run (a detail dict and an
    output path), a verdict's rows, and no rows at all."""
    config = RunConfig(command="nogo pbr", args={"q": "7/2"}, output="out.json")
    two_rows = small_report().to_json()
    two_rows["checks"].append(dict(two_rows["checks"][0], detail=None))
    return (two_rows, cli.run(config).to_json(), cli.run(RunConfig("nogo hardy")).to_json(),
            ReportDocument(RunConfig(command="verify toy-born"), (), 0.0).to_json())


def nodes(node, path=()):
    """The path of ``node`` and of every value inside it, depth first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


MUTANT_VALUES = st.one_of(
    st.sampled_from([None, 0, 3.0, 2.5, -1, math.nan, "s"]), st.booleans(),
    st.builds(list), st.builds(dict), st.booleans().map(numpy.bool_),
    st.sampled_from([3, 0, -1]).map(numpy.int64),
    st.sampled_from([3.0, 2.5, -1.0, math.nan]).map(numpy.float64))


@st.composite
def single_point_mutants(draw):
    """A base report with one key deleted, one key added, or one value set."""
    doc = copy.deepcopy(draw(st.sampled_from(base_reports())))
    path, node = draw(st.sampled_from(list(nodes(doc))))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    edit = draw(st.sampled_from(["add"] * isinstance(node, dict) + ["set"] * bool(path)
                                + ["delete"] * (bool(path) and isinstance(parent, dict))))
    if edit == "add":
        node[draw(st.sampled_from(["extra", "name", "seed", "detail", "output"]))] = \
            draw(MUTANT_VALUES)
    elif edit == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(MUTANT_VALUES)
    return doc


def json_path(path) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


@settings(max_examples=400, deadline=None)
@given(single_point_mutants())
def test_single_point_mutants_get_jsonschemas_verdict_and_one_of_its_paths(doc):
    ours, reference = our_path(doc), reference_paths(doc)
    unwritable = [json_path(path) for path, node in nodes(doc)
                  if isinstance(node, (numpy.int64, numpy.bool_))]
    if unwritable and not reference:
        # jsonschema passes a value that JSON cannot write; our checker names it
        assert ours == unwritable[0]
    else:
        assert (ours is None) == (not reference)
        assert ours is None or ours in reference


def strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# keyword -> the forms of its value that reports._walk interprets.  Consts and
# enums are strings only: then == is the schema's equality, which never
# equates a bool with a number.
WALKED_FORMS = {
    "$schema": lambda v: v == "https://json-schema.org/draft/2020-12/schema",
    "$id": lambda v: isinstance(v, str),
    "title": lambda v: isinstance(v, str),
    "type": lambda v: (v in reports._TYPES if isinstance(v, str)
                       else strings(v) and reports._TYPES.keys() >= set(v)),
    "const": lambda v: isinstance(v, str),
    "enum": strings,
    "required": strings,
    "properties": lambda v: isinstance(v, dict),
    "additionalProperties": lambda v: v is False,
    "items": lambda v: isinstance(v, dict),
    "minimum": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def subschemas(schema):
    """``schema`` and every schema under its ``properties`` and ``items``."""
    yield schema
    if isinstance(schema, dict):
        items = [schema["items"]] if "items" in schema else []
        for sub in [*schema.get("properties", {}).values(), *items]:
            yield from subschemas(sub)


def test_package_schema_uses_only_the_keywords_and_forms_the_walk_interprets():
    schemas = list(subschemas(load_schema()))
    assert all(isinstance(sub, dict) for sub in schemas)
    assert [(key, value) for sub in schemas for key, value in sub.items()
            if key not in WALKED_FORMS or not WALKED_FORMS[key](value)] == []


def test_emit_reads_the_schema_afresh_on_every_call(monkeypatch):
    emit(small_report())
    schema = load_schema()
    schema["properties"]["version"]["const"] = "0"
    monkeypatch.setattr(reports, "load_schema", lambda: schema)
    with pytest.raises(ReportError, match=re.escape("$.version: ")):
        emit(small_report())


def test_load_schema_reads_the_packaged_schema():
    import importlib.resources
    oracle = importlib.resources.files("omlab").joinpath("schemas/report-v1.schema.json")
    assert load_schema() == json.loads(oracle.read_text())


@pytest.mark.parametrize("detail, message", [
    ({"count": numpy.int64(3)}, "$.checks[0].detail.count: Object of type int64 is not JSON"),
    ({"pairs": [(1, 2), {0}]}, "$.checks[0].detail.pairs[1]: Object of type set is not JSON"),
    ({"by": {1: "a"}}, "$.checks[0].detail.by: keys must be str, not int"),
], ids=["numpy.int64", "set", "int key"])
def test_a_value_json_cannot_write_is_a_report_error_naming_its_path(detail, message):
    report = ReportDocument(RunConfig(command="verify noncomm"),
                            (CheckResult("demo", "1", "1", "TRIVIAL", True, detail),), 0.0)
    assert reference_paths(report.to_json()) == set()
    with pytest.raises(ReportError, match=re.escape(message)):
        emit(report, "text")
    with pytest.raises(ReportError, match=re.escape(message)):
        emit(report, "json")


JSON_STRINGS = st.text(st.characters() | st.characters(categories=["Cs", "Cc"]), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**80),
              st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
              st.floats().map(numpy.float64), JSON_STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_the_walk_writes_the_text_of_json_dumps(value):
    parts = []
    reports._walk(None, value, parts.append, "\n")
    assert "".join(parts) == json.dumps(value, sort_keys=True, indent=2)


def test_every_lab_report_emits_the_text_of_json_dumps():
    for argv in reach_argvs():
        report = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
        assert emit(report, "json") == json.dumps(report.to_json(), sort_keys=True,
                                                  indent=2), argv


def test_json_round_trip():
    report = small_report()
    assert json.loads(emit(report, "json")) == report.to_json()


def test_text_format_mentions_every_check():
    text = emit(small_report(), "text")
    assert "PASS" in text and "demo" in text and "1/1 checks" in text


def test_unknown_format_rejected():
    with pytest.raises(ReportError):
        emit(small_report(), "yaml")


# ------------------------------------------------------------- determinism

def _strip_clock(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("wall_clock_s")
    return doc


def test_replay_determinism_byte_identical_minus_clock():
    config = RunConfig(command="verify noncomm", args={"seed": 11})
    a = cli.run(config).to_json()
    b = cli.run(config).to_json()
    assert json.dumps(_strip_clock(a), sort_keys=True) == \
        json.dumps(_strip_clock(b), sort_keys=True)


def test_different_seeds_still_pass_but_may_differ():
    a = cli.run(RunConfig(command="verify noncomm", args={"seed": 1})).to_json()
    b = cli.run(RunConfig(command="verify noncomm", args={"seed": 2})).to_json()
    assert all(c["passed"] for c in a["checks"])
    assert all(c["passed"] for c in b["checks"])


def test_a_reports_config_replays_its_run():
    # the config read back from the report's JSON is all a rerun needs
    for argv in reach_argvs():
        doc = json.loads(emit(cli.run(cli.config_from_args(cli.build_parser().parse_args(argv))),
                              "json"))
        c = doc["config"]
        again = cli.run(RunConfig(c["command"], c["args"], output=c["output"]))
        assert (json.dumps(_strip_clock(again.to_json()), sort_keys=True)
                == json.dumps(_strip_clock(doc), sort_keys=True)), argv


KERNEL_ROW = "noncomm ontic kernel = Born outcomes + updated state"
SAMPLED_ROW = "noncomm sampled frequency (n=4000, Hoeffding delta=1e-09)"


def noncomm_rows(seed=54) -> dict:
    return {c.name: c for c in toy.noncomm_checks(seed)}


@pytest.mark.parametrize("command", ["noncomm", "all"])
def test_seed_54_passes(command, capsys):
    # the old 3-sigma band, |freq - 1/2| <= 0.0237, failed this seed's 0.0255
    assert cli.main(["verify", command, "--seed", "54"]) == 0
    capsys.readouterr()
    rows = noncomm_rows()
    assert rows[KERNEL_ROW].observed == "18/18"
    assert rows[SAMPLED_ROW].observed == "0.025500 vs 0.051740"


def test_a_sampler_biased_to_three_fifths_fails_both_noncomm_rows(monkeypatch):
    def biased(lam, meas, rng):
        # the first block with probability 3/5, whatever lam is
        first, second = meas.partition
        return rng.choice([(first, x) for x in (*sorted(first), min(first))]
                          + [(second, x) for x in sorted(second)])

    monkeypatch.setattr(toy, "ontic_simulate_measurement", biased)
    rows = noncomm_rows()
    assert not rows[KERNEL_ROW].passed and rows[KERNEL_ROW].observed == "0/18"
    assert not rows[SAMPLED_ROW].passed


def test_a_sampler_that_resamples_outside_the_block_fails_the_kernel_row(monkeypatch):
    monkeypatch.setattr(toy, "ontic_simulate_measurement",
                        lambda lam, meas, rng: (meas.block_of(lam), rng.choice(toy.STATES)))
    rows = noncomm_rows()
    assert not rows[KERNEL_ROW].passed
    assert rows[KERNEL_ROW].detail["mismatches"][:2] == ["Z on 0", "X on 0"]
    assert rows[SAMPLED_ROW].passed  # the outcomes alone are right


def scanning_loop_observed(seed: int) -> str:
    """The sampled row's observed text as the loop computed it before the
    measurements indexed their blocks: a partition scan and a sorted block
    per sample, the oracle for the random stream."""
    rng = random.Random(seed)
    n, delta = 4000, 1e-9
    hits = 0
    for _ in range(n):
        lam = rng.choice((1, 2))
        block = next(b for b in toy.MEAS_X_TOY.partition if lam in b)
        rng.choice(sorted(block))
        hits += block == frozenset({1, 3})
    radius = math.sqrt(math.log(2 / delta) / (2 * n))
    return f"{abs(hits / n - 0.5):.6f} vs {radius:.6f}"


def test_the_sampled_row_draws_the_same_random_stream_as_the_scanning_loop():
    for seed in [*range(1, 31), 54]:
        assert noncomm_rows(seed)[SAMPLED_ROW].observed == scanning_loop_observed(seed), seed


def test_both_ontic_rows_call_the_module_sampler_once_per_sample_and_branch(monkeypatch):
    # a shortcut past the module's sampler would empty the biased-sampler gates
    calls, simulate = [], toy.ontic_simulate_measurement

    def counted(lam, meas, rng):
        calls.append(rng)
        return simulate(lam, meas, rng)

    monkeypatch.setattr(toy, "ontic_simulate_measurement", counted)
    noncomm_rows(7)
    seeded = [rng for rng in calls if type(rng) is random.Random]
    assert len(seeded) == 4000 and len({id(rng) for rng in seeded}) == 1
    assert sum(type(rng) is toy._EachChoice for rng in calls) == 24
    assert len(calls) == 4024


def test_a_correct_sampler_with_more_branches_for_one_state_passes_the_kernel_row(monkeypatch):
    def doubled(lam, meas, rng):
        # lambda = 1 draws from its block's members listed twice: 4 branches, not 2
        block = meas.block_of(lam)
        return block, rng.choice(sorted(block) * (2 if lam == 1 else 1))

    monkeypatch.setattr(toy, "ontic_simulate_measurement", doubled)
    rows = noncomm_rows()
    assert rows[KERNEL_ROW].passed and rows[KERNEL_ROW].observed == "18/18"


def test_a_sampler_that_resamples_one_state_onto_the_wrong_member_fails_those_pairs(monkeypatch):
    def stuck(lam, meas, rng):
        # lambda = 4 always lands on its block's smaller member, from one branch
        block = meas.block_of(lam)
        return block, rng.choice([min(block)] if lam == 4 else sorted(block))

    monkeypatch.setattr(toy, "ontic_simulate_measurement", stuck)
    kernel = noncomm_rows()[KERNEL_ROW]
    assert not kernel.passed and kernel.observed == "9/18"
    # exactly the states whose support holds 4: 1 = 3v4, - = 2v4, -i = 1v4
    assert kernel.detail["mismatches"] == [f"{m} on {label}" for label in ("1", "-", "-i")
                                           for m in ("Z", "X", "Y")]


@pytest.mark.slow
def test_noncomm_passes_at_seeds_1_to_1000():
    # a fair sampler leaves the Hoeffding band with probability at most 1e-9
    # per seed, so this sweep fails a correct kernel with probability <= 1e-6
    failed = [seed for seed in range(1, 1001)
              if not cli.run(RunConfig("verify noncomm", {"seed": seed})).all_passed]
    assert failed == []


# ------------------------------------------------------------- dispatch

def test_every_report_check_carries_a_provenance_tag():
    for command in ("verify toy-born", "verify combine-table", "nogo chsh"):
        report = cli.run(RunConfig(command=command))
        assert report.checks
        for c in report.checks:
            assert c.provenance in ("PAPER", "DERIVED", "TRIVIAL")
        emit(report)


def test_unknown_verb_is_captured_as_failed_check():
    report = cli.run(RunConfig(command="explode now"))
    assert not report.all_passed
    assert "ValueError" in report.checks[0].observed


def test_module_error_is_captured():
    report = cli.run(RunConfig(command="nogo pbr", args={"q": "7/2"}))
    assert not report.all_passed


def test_an_undeclared_arg_fails_naming_it_and_the_command():
    # the library route takes the CLI's rule: a command reads only its own args
    keys = {opt.key for options, _ in cli.COMMANDS.values() for opt in options}
    for command, (options, _) in cli.COMMANDS.items():
        own = [opt.key for opt in options]
        for key in sorted(keys - set(own)):
            (row,) = cli.run(RunConfig(command=command, args={key: "1"})).checks
            assert not row.passed
            assert row.observed == (f"ValueError: {key!r} is not an arg of {command!r} "
                                    f"(its args: {', '.join(own) or 'none'})")
            assert row.detail["origin"] == "omlab/cli.py:_dispatch"


# (command, key, value): a value of a form that no command line gives the key,
# and a list for every key of the table
MISFITS = [("simulate mz", "model", "bogus"), ("simulate mz", "phase", True),
           ("simulate mz", "phase", 0), ("simulate mz", "theta", "0.5"),
           ("simulate mz", "model", None), ("nogo hardy", "lambda_size", "4"),
           ("nogo hardy", "lambda_size", 4.0), ("nogo hardy", "drop_invar", 1),
           ("nogo pbr", "lambda_size", True), ("nogo pbr", "q", 0.25),
           ("nogo pbr", "null_budget", "1/0"), ("nogo pbr", "null_budget", "none"),
           ("gaussian epr", "squeeze", "3"), ("gaussian epr", "value", False),
           ("gaussian suite", "hbar_like", "1"), ("verify noncomm", "seed", "3"),
           ("verify all", "seed", 1.0)] + [
    (command, opt.key, [1]) for command, (options, _) in cli.COMMANDS.items() for opt in options]


@pytest.mark.parametrize("command, key, value", MISFITS, ids=repr)
def test_an_arg_of_the_wrong_form_fails_naming_it_its_value_and_the_command(command, key,
                                                                             value):
    (row,) = cli.run(RunConfig(command=command, args={key: value})).checks
    assert not row.passed
    assert row.observed.startswith(f"ValueError: {command!r} takes {key} as ")
    assert row.observed.endswith(f", not {value!r}")
    assert row.detail["origin"] == "omlab/cli.py:_dispatch"


def test_an_int_is_a_real_number_and_a_fraction_string_need_not_be_reduced():
    int_squeeze = cli.run(RunConfig("gaussian epr", args={"squeeze": 1}))
    float_squeeze = cli.run(RunConfig("gaussian epr", args={"squeeze": 1.0}))
    assert int_squeeze.all_passed
    assert [c.to_json() for c in int_squeeze.checks] == [c.to_json() for c in float_squeeze.checks]
    assert cli.run(RunConfig("nogo pbr", args={"q": "2/4"})).all_passed


def test_failed_run_keeps_the_exception_type_and_origin():
    report = cli.run(RunConfig(command="nogo pbr", args={"q": "7/2"}))
    detail = report.checks[0].detail
    assert detail["type"] == "PbrError"
    path, _, function = detail["origin"].rpartition(":")
    assert path == "omlab/pbr.py"
    source = Path(pbr.__file__).read_text()
    bodies = [ast.get_source_segment(source, node) for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == function]
    assert any('raise PbrError("q must lie in' in body for body in bodies)
    emit(report)


# ------------------------------------------------------------- main()

def test_main_exit_zero_and_writes_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "steering", "--format", "json",
                     "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    reports._walk_report(doc)
    assert all(c["passed"] for c in doc["checks"])
    assert "steering" in capsys.readouterr().out


def test_main_env_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OMLAB_OUTPUT_DIR", str(tmp_path))
    code = cli.main(["verify", "no-signaling"])
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "verify-no-signaling.text").exists()


@pytest.mark.parametrize("argv", [["--output="], ["--output", ""]], ids=repr)
def test_a_blank_output_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["simulate", "mz", *argv, "--phase=0"])
    assert stop.value.code == 2
    assert (capsys.readouterr().err.splitlines()[-1]
            == "omlab simulate: error: argument --output: invalid path value: ''")


def unwritable(err: str, path: str) -> str:
    """The one line ``err`` holds, which must name ``path`` and no traceback."""
    (line,) = err.splitlines()
    assert line.startswith(f"omlab: error: cannot write the report to {path!r}: ")
    return line


@pytest.mark.parametrize("name", [".", "newdir/"])
def test_an_output_that_names_a_directory_is_a_named_error(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["nogo", "chsh", "--output", name]) == 1
    out, err = capsys.readouterr()
    assert "chsh gap positive" in out  # the report was printed first
    assert unwritable(err, name).endswith("Is a directory")
    assert list(tmp_path.iterdir()) == []  # newdir was not created


def test_an_output_dir_that_is_a_file_is_a_named_error(tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("OMLAB_OUTPUT_DIR", str(tmp_path / "file"))
    assert cli.main(["nogo", "chsh"]) == 1
    out, err = capsys.readouterr()
    assert "chsh gap positive" in out
    assert unwritable(err, str(tmp_path / "file" / "nogo-chsh.text")).endswith(
        f"File exists: {str(tmp_path / 'file')!r}")


def test_main_mz_both_models(capsys):
    code = cli.main(["simulate", "mz", "--phase", "pi", "--model", "both",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = [c["name"] for c in doc["checks"]]
    assert any("correspondence" in n for n in names)


def test_main_seed_after_subcommand(capsys):
    assert cli.main(["verify", "noncomm", "--seed", "9"]) == 0
    capsys.readouterr()


def test_verify_all_runs_every_target(capsys):
    assert cli.main(["verify", "all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = " ".join(c["name"] for c in doc["checks"])
    for word in ("toy-born", "noncomm", "combine", "steering", "no-signaling"):
        assert word in names


def test_expected_infeasible_is_a_pass(capsys):
    # the constraint search reports infeasible, and that is the success case
    code = cli.main(["nogo", "pbr", "--q", "1/4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    verdict = next(c for c in doc["checks"] if c["name"].startswith("pbr verdict"))
    assert verdict["observed"] == "infeasible" and verdict["passed"]


def test_mz_float_theta_check(capsys):
    code = cli.main(["simulate", "mz", "--phase", "0", "--theta", "0.7",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["number_mode"] == "float"
    assert any("float-mode" in c["name"] for c in doc["checks"])


def test_exit_status_reflects_failures(monkeypatch, capsys):
    # square an impossible expectation through the dispatcher
    monkeypatch.setattr(toy, "toy_born_checks",
                        lambda: [CheckResult("forced", "1", "0", "TRIVIAL", False)])
    assert cli.main(["verify", "toy-born"]) == 1
    assert "[FAIL] forced: expected 1, observed 0" in capsys.readouterr().out


def test_a_run_with_no_checks_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(toy, "toy_born_checks", lambda: [])
    assert cli.main(["verify", "toy-born"]) == 1
    assert "0/0 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("detail, message", [
    ({"cells": {1, 2}}, "$.checks[0].detail.cells: Object of type set is not JSON serializable"),
    ({"count": numpy.int64(3)},
     "$.checks[0].detail.count: Object of type int64 is not JSON serializable"),
    ({"by": {1: "a"}}, "$.checks[0].detail.by: keys must be str, not int"),
], ids=["set", "numpy.int64", "int key"])
def test_a_report_that_cannot_be_emitted_is_a_named_error(detail, message, fmt, tmp_path,
                                                          monkeypatch, capsys):
    monkeypatch.setattr(toy, "toy_born_checks", lambda: [
        CheckResult("unwritable", "1", "1", "TRIVIAL", True, detail)])
    out = tmp_path / "report"
    assert cli.main(["verify", "toy-born", "--format", fmt, "--output", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.splitlines() == [f"omlab: error: cannot emit the report: {message}"]


@pytest.mark.parametrize("phase", ["0", "pi"])
def test_the_toy_from_the_upper_arm_reaches_each_detector_half_the_time(phase, monkeypatch,
                                                                       capsys):
    # before, the toy model had no upper-arm row: "0/0 checks passed", exit 0
    assert cli.main(["simulate", "mz", "--model", "toy", "--source", "upper_arm",
                     "--phase", phase]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out
    (row,) = toy.mz_checks(phase, "toy", "upper_arm", None)
    assert row.name == f"mz toy P(d1), P(d2) [upper_arm, phase={phase == 'pi'}]"
    assert (row.expected, row.observed, row.passed) == ("(1/2, 1/2)", "(1/2, 1/2)", True)
    # through the first splitter the toy ends in 0 or 1: one detector, surely
    run = toy.mz_toy_run
    monkeypatch.setattr(toy, "mz_toy_run", lambda phase_in, source: run(phase_in))
    (row,) = toy.mz_checks(phase, "toy", "upper_arm", None)
    assert not row.passed


def test_gaussian_json_reports_are_schema_valid(capsys):
    assert cli.main(["gaussian", "suite", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(c["passed"] is True for c in doc["checks"])


def test_gaussian_entropy_row_fails_on_a_shifted_closed_form(monkeypatch):
    def entropy_row():
        return next(c for c in gaussian.gaussian_suite_checks(1.0)
                    if c.name == "gaussian entropy closed form vs quadrature")

    assert entropy_row().passed
    entropy = gaussian.entropy
    monkeypatch.setattr(gaussian, "entropy", lambda state: entropy(state) + 1e-5)
    assert not entropy_row().passed


def test_entropy_row_passes_where_det_gamma_is_subnormal():
    # det(1e-160 * I) = 1e-320 is subnormal: ln det gamma comes from slogdet
    rows = {c.name: c for c in gaussian.gaussian_suite_checks(1e-160)}
    assert rows["gaussian entropy closed form vs quadrature"].passed


OUT_OF_RANGE_LAMBDA = [["gaussian", "suite", "--lambda", "1e-308"],
                       ["gaussian", "epr", "--lambda", "1e-320"],
                       ["gaussian", "suite", "--lambda", "1e305"],
                       ["gaussian", "epr", "--lambda", "1e308"],
                       ["gaussian", "suite", "--lambda", "0"],
                       ["gaussian", "epr", "--lambda", "-1"],
                       ["gaussian", "suite", "--lambda", "nan"],
                       ["gaussian", "epr", "--lambda", "inf"]]


@pytest.mark.parametrize("argv", OUT_OF_RANGE_LAMBDA)
def test_out_of_range_lambda_fails_naming_the_range(argv):
    # beyond the documented range the float arithmetic underflows or
    # overflows, lam * identity is not positive definite at lam <= 0, and
    # at nan or inf it is not symmetric within tolerance; the parameter is
    # checked first, so the failed row names the range
    assert argv in edge_argvs()
    report = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    (row,) = report.checks
    assert not row.passed
    assert row.observed == "GaussianError: the uncertainty parameter must lie in [1e-300, 1e+280]"
    assert row.detail["origin"].startswith("omlab/gaussian.py:")


def test_lambda_help_states_the_checked_range():
    low, high = gaussian.LAMBDA_RANGE
    assert option("gaussian suite", "hbar_like") is option("gaussian epr", "hbar_like")
    assert option("gaussian epr", "hbar_like").spec["help"].endswith(f"[{low:g}, {high:g}]")
    for lam in (low, high):  # both ends pass, at the widest squeeze swept
        checks = gaussian.gaussian_suite_checks(lam) + gaussian.gaussian_epr_checks(12.0, lam, "p", 1.0)
        assert [c.name for c in checks if not c.passed] == [], lam
    for lam in (math.nextafter(low, 0), math.nextafter(high, math.inf)):
        with pytest.raises(gaussian.GaussianError, match="must lie in"):
            gaussian.coherent_boundary(lam)


OUT_OF_RANGE_SQUEEZE = [["gaussian", "epr", "--squeeze", "-1"],
                        ["gaussian", "epr", "--squeeze", "20"],
                        ["gaussian", "epr", "--squeeze", "1e3"],
                        ["gaussian", "epr", "--squeeze", "nan"],
                        ["gaussian", "epr", "--squeeze", "inf"]]


@pytest.mark.parametrize("argv", OUT_OF_RANGE_SQUEEZE)
def test_out_of_range_squeeze_fails_naming_the_range(argv):
    # past the range the float arithmetic fails (at 20) or cosh overflows (at 1e3)
    assert argv in edge_argvs()
    report = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    (row,) = report.checks
    assert not row.passed
    assert row.observed == "GaussianError: squeezing must lie in [0, 13]"
    assert row.detail["origin"] == "omlab/gaussian.py:check_squeeze"


def test_squeeze_help_states_the_checked_range():
    low, high = gaussian.SQUEEZE_RANGE
    assert option("gaussian epr", "squeeze").spec["help"].endswith(f"[{low:g}, {high:g}]")
    for lam, measure in itertools.product(gaussian.LAMBDA_RANGE, "qp"):
        # the widest squeeze passes at both ends of the lambda range
        checks = gaussian.gaussian_epr_checks(high, lam, measure, 1.0)
        assert [c.name for c in checks if not c.passed] == [], (lam, measure)
    for squeeze in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf)):
        with pytest.raises(gaussian.GaussianError, match="must lie in"):
            gaussian.gaussian_epr_checks(squeeze, 1.0, "q", 1.0)


NON_FINITE = {"simulate mz --theta": ("QuantumError: theta must be finite",
                                      "omlab/quantum.py:mz_detection_probabilities"),
              "gaussian epr --value": ("GaussianError: alice_value must be finite",
                                       "omlab/gaussian.py:epr_inference")}


@pytest.mark.parametrize("flag, value", itertools.product(NON_FINITE, ("nan", "inf", "-inf")))
def test_non_finite_reading_fails_naming_the_parameter(flag, value):
    # before: nan amplitudes failed the ket's norm check, and a nan posterior
    # mean failed its row as "expected nan, observed nan".  The reading is
    # given as its own argument and joined to its flag by "="
    argv = f"{flag} {value}".split(" ")
    assert value != "nan" or argv in edge_argvs()
    for given in (argv, f"{flag}={value}".split(" ")):
        report = cli.run(cli.config_from_args(cli.build_parser().parse_args(given)))
        (row,) = report.checks
        assert not row.passed
        assert (row.observed, row.detail["origin"]) == NON_FINITE[flag]


def test_value_help_says_finite():
    assert "finite" in option("gaussian epr", "value").spec["help"]


def test_a_large_reading_passes_the_posterior_mean_row():
    # the mean, 9.64e9 here, was once held to an absolute 1e-9 and failed
    argv = ["gaussian", "epr", "--squeeze", "1", "--value", "1e10"]
    assert argv in edge_argvs()
    report = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    assert [c.name for c in report.checks if not c.passed] == []


def test_edge_argvs_raise_no_warning():
    # lam is checked before any arithmetic: inf * 0 warned of an invalid value
    for argv in edge_argvs() + [["gaussian", "suite", "--lambda", "inf"]]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
        assert [str(w.message) for w in caught] == [], argv


def test_relaxed_pbr_on_one_ontic_state(capsys):
    code = cli.main(["nogo", "pbr", "--lambda-size", "1", "--relax-product",
                     "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    verdict = next(c for c in doc["checks"] if c["name"].startswith("pbr verdict"))
    assert verdict["observed"] == "infeasible" and verdict["passed"]
    # one grid point, two joint families: product and concentrated
    assert verdict["detail"]["tested_points"] == 2


def test_unforced_pbr_on_one_ontic_state_is_an_expected_infeasible(capsys):
    # one cell weighed by all four preparations: no model at any budget below 1
    for budget in ((), ("--null-budget", "1/2")):
        code = cli.main(["nogo", "pbr", "--q", "none", "--lambda-size", "1",
                         "--format", "json", *budget])
        doc = json.loads(capsys.readouterr().out)
        verdict = next(c for c in doc["checks"] if c["name"].startswith("pbr verdict"))
        assert verdict["expected"] == verdict["observed"] == "infeasible"
        assert code == 0


def pbr_report(capsys, *argv):
    code = cli.main(["nogo", "pbr", "--format", "json", *argv])
    doc = json.loads(capsys.readouterr().out)
    return code, {c["name"].split(" (")[0]: c for c in doc["checks"]}


def test_huge_grid_denominator_is_counted_in_closed_form(capsys):
    # q = 1/4 of D = 10^9 forces m = 2.5 * 10^8 units onto the star on each
    # side: C(D - m + 3, 3) weight vectors per side, counted without a loop
    start = time.perf_counter()
    code, checks = pbr_report(capsys, "--grid-denominator", "1000000000")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert checks["pbr verdict"]["detail"]["tested_points"] == math.comb(750000003, 3) ** 2
    assert elapsed < 1.0


def test_budget_below_the_price_is_an_expected_infeasible(capsys):
    # f = 1/2 puts 1/4 on (*, *) in every preparation, above the budget 1/8
    code, checks = pbr_report(capsys, "--q", "1/2", "--grid-denominator", "2",
                              "--null-budget", "1/8")
    assert code == 0
    verdict = checks["pbr verdict"]
    assert verdict["expected"] == verdict["observed"] == "infeasible"
    assert verdict["detail"]["decided_by"] == "support"
    assert verdict["detail"]["certificate"]["bound"] == "1/4"
    price = checks["pbr minimal no-show budget = f^2"]
    assert price["expected"] == price["observed"] == "1/4" and price["passed"]


def test_two_state_budget_is_an_expected_infeasible(capsys):
    code, checks = pbr_report(capsys, "--q", "1/2", "--lambda-size", "2",
                              "--grid-denominator", "2", "--null-budget", "1/2")
    assert code == 0
    verdict = checks["pbr verdict"]
    assert verdict["expected"] == verdict["observed"] == "infeasible"
    assert verdict["detail"]["decided_by"] == "support"
    assert verdict["detail"]["certificate"]["violated_equation"] == (
        "forced no-show rate 1/1 exceeds budget 1/2 for Psi1")
    assert "pbr minimal no-show budget = f^2" not in checks


def test_gram_check_fails_on_a_non_orthonormal_ket():
    kets = dict(pbr.build_pbr_scenario().measurement_kets)
    assert pbr.gram_check(kets).passed
    kets["phi2"] = kets["phi1"]  # normalized, but not orthogonal to phi1
    check = pbr.gram_check(kets)
    assert not check.passed and check.observed == "false"
    assert check.detail == {"defects": ["<phi1|phi2>", "<phi2|phi1>"]}


def test_zero_facts_check_fails_on_a_flipped_fact():
    facts = hardy.derive_zero_probability_facts()
    assert hardy.zero_facts_check(facts).passed

    def flip(*indices):
        return [dataclasses.replace(f, is_zero=not f.is_zero) if i in indices else f
                for i, f in enumerate(facts)]

    assert [f.is_zero for f in facts[:2]] == [False, True]
    assert not hardy.zero_facts_check(flip(0)).passed
    # two flips keep two zero facts, but not the paper's two
    assert not hardy.zero_facts_check(flip(0, 1)).passed


def test_nogo_hardy_derives_the_zero_facts_once(monkeypatch, capsys):
    calls = []
    derive = hardy.derive_zero_probability_facts

    def counted():
        calls.append(1)
        return derive()

    monkeypatch.setattr(hardy, "derive_zero_probability_facts", counted)
    assert cli.main(["--format", "json", "nogo", "hardy", "--lambda-size", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_mz_and_hardy_facts_check_no_basis(monkeypatch):
    # every basis is checked once, when its module is imported; no op re-checks one
    def forbidden(vectors):
        raise AssertionError(f"re-checked the basis {list(vectors)}")

    monkeypatch.setattr(quantum, "gram_defects", forbidden)
    assert hardy.zero_facts_check(hardy.derive_zero_probability_facts()).passed
    for phase, source in itertools.product(("0", "pi"), ("first_splitter", "upper_arm")):
        assert all(c.passed for c in toy.mz_checks(phase, "both", source, 1.0))


def modules_loaded(probes, module: str) -> list:
    """Run each argv through ``cli.main`` in turn, in one fresh interpreter,
    and say after each whether ``module`` has been imported."""
    script = ("import contextlib, io, sys\n"
              "from omlab import cli\n"
              f"for argv in {probes!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0\n"
              f"    print({module!r} in sys.modules)\n")
    env = {k: v for k, v in os.environ.items() if k != "OMLAB_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    return [line == "True" for line in out.splitlines()]


# The Gaussian command comes last, as a control that the probe sees an import.
NUMPY_PROBES = (["nogo", "pbr"], ["nogo", "hardy"], ["nogo", "chsh"], ["simulate", "mz"],
                ["verify", "all"], ["gaussian", "suite"])


def test_only_gaussian_commands_import_numpy():
    assert modules_loaded(NUMPY_PROBES, "numpy") == [argv[0] == "gaussian"
                                                     for argv in NUMPY_PROBES]


# Text is the default format, and both formats are schema-checked; the numpy
# test above is the control that the probe sees an import.
JSONSCHEMA_PROBES = (["nogo", "pbr"], ["verify", "all"], ["--format", "json", "nogo", "chsh"],
                     ["--format", "json", "verify", "all"], ["--format", "json", "gaussian", "epr"])


def test_no_command_text_or_json_loads_jsonschema():
    assert modules_loaded(JSONSCHEMA_PROBES, "jsonschema") == [False] * len(JSONSCHEMA_PROBES)


# module -> command lines, run in turn in one interpreter, and whether the
# module is loaded after each.  A PBR verdict needs pbr, quantum, exact and
# reports only, a Hardy verdict hardy, quantum, exact and reports, and a
# Gaussian one gaussian and reports.  Each list ends with a command that does
# load the module, as the control that the probe sees the import.
PBR_PROBES = (["nogo", "pbr"], ["nogo", "pbr", "--null-budget", "1/2"])
TOY_PROBES = (["verify", "all"], ["simulate", "mz"])
SECTOR_PROBES = {
    "omlab.toy": (PBR_PROBES + (["nogo", "hardy"], ["verify", "toy-born"]),
                  [False, False, False, True]),
    "omlab.hardy": (PBR_PROBES + TOY_PROBES + (["nogo", "hardy"],),
                    [False, False, False, False, True]),
    "omlab.gaussian": (PBR_PROBES + TOY_PROBES + (["gaussian", "epr"],),
                       [False, False, False, False, True]),
    "omlab.pbr": (TOY_PROBES + (["nogo", "hardy"], ["nogo", "pbr"]), [False, False, False, True]),
    "omlab.models": (PBR_PROBES + (["nogo", "hardy"], ["gaussian", "epr"],
                                   ["verify", "toy-born"]),
                     [False, False, False, False, True]),
}


@pytest.mark.parametrize("module", SECTOR_PROBES)
def test_a_command_loads_only_the_sector_modules_it_runs(module):
    probes, loaded = SECTOR_PROBES[module]
    assert modules_loaded(probes, module) == loaded


# A well-formed command line is read without argparse, and so without the
# gettext and locale it imports.  A flag given both before and after the verb
# is a form only argparse reads: the control that the probe sees the imports.
ARGPARSE_PROBES = (["nogo", "pbr"], ["verify", "all"],
                   ["--format", "json", "verify", "toy-born", "--format", "text"])


@pytest.mark.parametrize("module", ["argparse", "gettext", "locale"])
def test_a_well_formed_command_line_loads_no_argparse(module):
    assert modules_loaded(ARGPARSE_PROBES, module) == [False, False, True]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_each_command_names_a_row_function_of_its_module_taking_its_options(command):
    # a misspelt name would only show as a failed row when the command runs
    options, name = cli.COMMANDS[command]
    rows = cli._rows(name)
    assert inspect.isfunction(rows)
    assert rows.__module__ == f"omlab.{name.split(':')[0]}"
    params = inspect.signature(rows).parameters.values()
    if command == "verify all":
        assert [p.kind for p in params] == [inspect.Parameter.VAR_KEYWORD]
    else:
        assert {p.name for p in params} == {opt.key for opt in options}


@pytest.mark.parametrize("verb, target", [command.split(" ") for command in cli.COMMANDS])
def test_omitted_args_take_the_cli_defaults(verb, target):
    # the whole report, config and all, is the bare command line's
    bare = cli.run(cli.config_from_args(cli.build_parser().parse_args([verb, target])))
    omitted = cli.run(RunConfig(command=f"{verb} {target}"))
    assert _strip_clock(omitted.to_json()) == _strip_clock(bare.to_json())


@pytest.mark.parametrize("flag", ["--q", "--null-budget"])
def test_a_fraction_past_the_digit_limit_is_a_usage_error_naming_the_limit(flag, capsys):
    # 1e-5000 is 1/10**5000, whose denominator str() cannot write
    with pytest.raises(SystemExit) as stop:
        cli.main(["nogo", "pbr", flag, "1e-5000"])
    assert stop.value.code == 2
    assert (f"argument {flag}: '1e-5000' is not a fraction within the int-to-string limit "
            f"of {sys.get_int_max_str_digits()} digits") in capsys.readouterr().err


@pytest.mark.parametrize("key", ["q", "null_budget"])
def test_a_fraction_past_the_digit_limit_fails_the_run_naming_the_limit(key):
    (row,) = cli.run(RunConfig("nogo pbr", args={key: "1e-5000"})).checks
    assert not row.passed
    assert row.observed == (f"ValueError: 'nogo pbr' takes {key} as a fraction within the "
                            f"int-to-string limit of {sys.get_int_max_str_digits()} digits, "
                            f"not '1e-5000'")
    assert row.detail["origin"] == "omlab/cli.py:_dispatch"


@pytest.mark.parametrize("flag, value", [("--q", "abc"), ("--q", "1/0"),
                                         ("--null-budget", "x"), ("--q", "None"),
                                         ("--null-budget", "None")])
def test_malformed_fraction_is_a_usage_error(flag, value, capsys):
    # rejected as --lambda-size abc is: argparse names the flag, exit 2
    with pytest.raises(SystemExit) as stop:
        cli.main(["nogo", "pbr", flag, value])
    assert stop.value.code == 2
    assert f"argument {flag}: invalid fraction value: '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--q="], ["--q", ""], ["--null-budget="],
                                  ["--null-budget", ""]], ids=repr)
def test_a_blank_fraction_is_a_usage_error_not_none(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["nogo", "pbr", *argv])
    assert stop.value.code == 2
    flag = argv[0].rstrip("=")
    assert (capsys.readouterr().err.splitlines()[-1]
            == f"omlab nogo: error: argument {flag}: invalid fraction value: ''")
