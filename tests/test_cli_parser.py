"""The command-line parser: ``cli.build_parser`` reads the one form the lab
issues without argparse, and parses, helps and fails exactly as an argparse
parser built for every verb up front does; a command takes only its own
options."""

import argparse
import contextlib
import io
import os
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lab_argvs import reach_argvs, usage_argvs

from omlab import cli


def targets(verb: str) -> dict:
    """target -> declared options, for each command of ``verb`` in ``cli.COMMANDS``."""
    return {command.split(" ")[1]: options for command, (options, _) in cli.COMMANDS.items()
            if command.split(" ")[0] == verb}


# The language reference's float grammar, after a minus sign: digits with
# single underscores between them, a point and an exponent, or inf, infinity
# or nan in any case.
DIGITS = r"\d(?:_?\d)*"
NEGATIVE_FLOAT = re.compile(rf"-(?:(?:(?:{DIGITS})?\.{DIGITS}|{DIGITS}\.?)(?:[eE][+-]?{DIGITS})?"
                            r"|(?i:inf(?:inity)?|nan))\Z")


class BeforeTheVerb(argparse.Action):
    """A command's option, seen by the top-level parser, which parses only
    what comes before the verb: a usage error naming the commands that take it."""

    def __call__(self, parser, namespace, values, option_string=None):
        takers = " and ".join(f"'{command}'" for command, (options, _) in cli.COMMANDS.items()
                              if option_string in [opt.flag for opt in options])
        parser.error(f"argument {option_string}: an option of {takers}, "
                     "which goes after the command")


def path(text):
    """The type of ``--output``: a blank path is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError(f"invalid path value: {text!r}")
    return text


class EagerParser:
    """The reference: one parser per verb of ``cli.VERBS``, all built up front
    with ``add_parser``, as argparse documents subcommands.  The top-level
    parser takes each command's option, unlisted, as a usage error.  A verb's
    parser takes every negative number of the float grammar as a value, and
    declares every option of its targets, absent unless given; after parsing,
    the first of them in declaration order that the named target does not
    take is a usage error of the verb's parser, and then any unrecognized
    argument is one of the top-level parser.  Before both, so is the first
    option, common ones first, to which argparse gave no string value.  A
    blank ``--output`` is a usage error too."""

    def __init__(self):
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
        common.add_argument("--output", type=path, default=argparse.SUPPRESS,
                            help="write report here (default: $OMLAB_OUTPUT_DIR/<cmd>.<fmt>)")
        self.parser = argparse.ArgumentParser(
            prog="omlab", parents=[common], allow_abbrev=False,
            description="desk-scale checks for ontological models of quantum theory")
        for flag in dict.fromkeys(opt.flag for options, _ in cli.COMMANDS.values()
                                  for opt in options):
            self.parser.add_argument(flag, nargs="?", action=BeforeTheVerb,
                                     default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        sub = self.parser.add_subparsers(dest="verb", required=True)
        self.verbs = {}
        for verb, help_text in cli.VERBS.items():
            # the help's epilog: one line per target, naming its options
            epilog = "options by target:\n" + "\n".join(
                f"  {target}: {' '.join(opt.flag for opt in options) or 'none'}"
                for target, options in targets(verb).items())
            p = sub.add_parser(verb, parents=[common], help=help_text, allow_abbrev=False,
                               epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
            p._negative_number_matcher = NEGATIVE_FLOAT
            p.add_argument("target", choices=list(targets(verb)))
            declared = []
            for options in targets(verb).values():
                declared += [opt for opt in options if opt not in declared]
            for opt in declared:
                p.add_argument(opt.flag, dest=opt.key, default=argparse.SUPPRESS, **opt.spec)
            self.verbs[verb] = (p, declared)

    def parse_args(self, argv) -> argparse.Namespace:
        ns, unrecognized = self.parser.parse_known_args(argv)
        verb_parser, declared = self.verbs[ns.verb]
        own = targets(ns.verb)[ns.target]
        given = vars(ns)
        for opt in [*cli.COMMON, *declared]:  # argparse stores [] for "--opt=--"
            if isinstance(given.get(opt.key), list):
                verb_parser.error(f"argument {opt.flag}: expected one argument")
        foreign = [opt for opt in declared if opt.key in given and opt not in own]
        if foreign:
            takes = ", ".join(opt.flag for opt in own) or "none"
            verb_parser.error(f"argument {foreign[0].flag}: not an option of "
                              f"'{ns.verb} {ns.target}' (its options: {takes})")
        if unrecognized:
            self.parser.error(f"unrecognized arguments: {' '.join(unrecognized)}")
        return ns


# prefixes of --lambda-size and --lambda, which must not stand for them
ABBREVIATED = [["nogo", "pbr", "--lambda", "3"], ["gaussian", "epr", "--lam", "2"],
               ["nogo", "pbr", "--l", "3"], ["gaussian", "epr", "--l", "2"]]

# "--" as an "=" value, which argparse parses to []
EMPTY_VALUE = [["--output=--", "nogo", "chsh"], ["--format=--", "nogo", "chsh"],
               ["verify", "noncomm", "--seed=--"], ["nogo", "pbr", "--lambda-size=--"]]

MALFORMED = [
    ["-h"], *([verb, "-h"] for verb in cli.VERBS), ["nogo", "pbr", "-h"],
    [], ["frobnicate"], ["nogo"], ["nogo", "bell"],
    ["simulate", "mz", "--squeeze", "3"],
    *ABBREVIATED, ["--format", "xml", "nogo", "chsh"], ["nogo", "chsh", "--format", "xml"],
    ["--format", "json", "verify", "noncomm", "--format", "text"],
    ["verify", "noncomm", "--seed", "x"],
    # --seed is an option of two commands, not a common one
    ["--seed", "1", "verify", "noncomm"], ["nogo", "pbr", "--seed", "3"],
    # a command's option before the verb, with a value, none, or a common flag first
    ["--lambda-size=3", "nogo", "pbr"], ["--relax-product", "nogo", "pbr"],
    ["--output", "o.json", "--q", "nogo", "pbr"], ["--theta", "-1", "simulate", "mz"],
    ["nogo", "chsh", "--bogus"], ["nogo", "pbr", "--lambda-size", "four"],
    # a value missing at the end of the line
    ["nogo", "pbr", "--lambda-size"],
    # options of the verb that the named target does not take
    ["gaussian", "suite", "--squeeze", "9"], ["nogo", "--q", "1/2", "chsh"],
    ["nogo", "hardy", "--drop-invar", "--null-budget", "1/2", "--q", "1/2"],
    ["gaussian", "suite", "--value", "nan", "--measure", "p"],
    ["nogo", "chsh", "--q", "1/2", "--bogus"], ["nogo", "chsh", "--bogus", "--q", "1/2"],
    # a negative value before the verb, which the top-level parser reads as a value
    ["--output", "-5", "nogo", "chsh"],
    # a blank path, in "=" form after the verb and in space form before it
    ["simulate", "mz", "--output=", "--phase=0"], ["--output", "", "nogo", "chsh"],
    *EMPTY_VALUE,
]

# "=" forms, which argparse reads: a value that starts with a minus sign is
# taken as it stands, before the verb too
EQUALS = [["--output=o.json", "nogo", "chsh"], ["--output=-3", "nogo", "pbr", "--q=-1/2"],
          ["verify", "all", "--seed=-3"],
          ["gaussian", "epr", "--value=-1e3", "--measure=p"]]

# the other forms that argparse reads and the reader leaves to it: a common
# flag after the target, an option between the verb and the target, and so
# the target after an option
COMMON_AFTER = [["nogo", "chsh", "--format", "json"],
                ["verify", "noncomm", "--seed", "3", "--output", "o.json"]]
BEFORE_TARGET = [["nogo", "--format", "json", "chsh"], ["simulate", "--output", "o.json", "mz"]]
TARGET_AFTER = [["nogo", "--q", "1/2", "pbr"], ["simulate", "--theta", "-1", "mz"],
                ["nogo", "--relax-product", "pbr", "--q", "none"]]
ARGPARSE_FORMS = EQUALS + COMMON_AFTER + BEFORE_TARGET + TARGET_AFTER

# negative numbers in the forms float() reads, and three that it does not read
NEGATIVE = [["simulate", "mz", "--theta", value] for value in (
    "-1e-3", "-.5E+2", "-1_000.5", "-inf", "-Infinity", "-nan", "-e3", "-1e")] + [
    ["gaussian", "epr", "--value", "-1e3", "--squeeze", "-2."],
    ["nogo", "pbr", "--lambda-size", "-1e3"], ["nogo", "pbr", "--q", "-1/2"]]


def outcome(parser, argv) -> tuple:
    """The namespace ``argv`` parses to, as its repr so that nan equals nan,
    or the exit code and the text argparse printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("parsed", repr(vars(parser.parse_args(argv))))
        except SystemExit as stop:
            return ("exit", stop.code, out.getvalue(), err.getvalue())


@pytest.fixture(scope="module")
def eager():
    """The reference parser, built once: a parse leaves it as it was."""
    return EagerParser()


def test_on_demand_parser_matches_the_eager_one(monkeypatch, eager):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    results = [(argv, outcome(cli.build_parser(), argv), outcome(eager, argv))
               for argv in reach_argvs() + MALFORMED + NEGATIVE + ARGPARSE_FORMS]
    assert [argv for argv, new, old in results if new != old] == []
    # the malformed cases reach help (exit 0), usage errors (exit 2, among
    # them every abbreviated flag) and a repeated flag that parses
    kinds = {new[1] if new[0] == "exit" else "parsed"
             for argv, new, _ in results if argv in MALFORMED}
    assert kinds == {0, 2, "parsed"}
    # a negative number float() reads is a value; "-e3", "-1e" and "-1/2" are
    # taken for options (though --q's type reads "-1/2"), and "-1e3" is no int
    parsed = [argv[-1] for argv, new, _ in results if argv in NEGATIVE and new[0] == "parsed"]
    assert parsed == ["-1e-3", "-.5E+2", "-1_000.5", "-inf", "-Infinity", "-nan", "-2."]


def test_a_verbs_help_names_each_targets_options(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["nogo", "-h"])
    assert stop.value.code == 0
    epilog = capsys.readouterr().out.split("options by target:\n")[1]
    lines = dict(line.strip().split(": ", 1) for line in epilog.splitlines())
    assert lines == {"pbr": "--q --lambda-size --grid-denominator --null-budget --relax-product",
                     "hardy": "--lambda-size --drop-invar", "chsh": "none"}
    assert [t for t, flags in lines.items() if "--drop-invar" in flags.split()] == ["hardy"]


ALL_OPTIONS = list(dict.fromkeys(
    [*cli.COMMON, *(opt for options, _ in cli.COMMANDS.values() for opt in options)]))


def valid_values(opt, after_verb: bool):
    """Values of ``opt`` that its type or choices read; a value that starts
    with a minus sign only after the verb, and only a negative number there."""
    if "choices" in opt.spec:
        return st.sampled_from(opt.spec["choices"])
    if opt.spec.get("type") is int:
        return st.integers(-10**6 if after_verb else 0, 10**6).map(str)
    if opt.spec.get("type") is float:
        numbers = st.floats() if after_verb else st.floats(min_value=0)
        return st.one_of(numbers.map(repr), numbers.map("{:e}".format))
    if opt.spec.get("type") is cli._fraction_or_none:
        return st.one_of(st.fractions(min_value=0).map(str), st.sampled_from(["none", "0.25"]))
    return st.sampled_from(["o.json", "out/r.txt", "x=y"])


# tokens that are wrong for some option or place: help and unknown flags, "-"
# and "--", values no type reads or that start with a minus sign without being
# a negative number, and words and numbers that fit elsewhere
JUNK = ["x", "", "-", "--", "-h", "-x", "--bogus", "-1/2", "-e3", "-1e", "1/0", "a b", "4.5",
        "-1e3", "-inf", "nan", "1e-5000", "--seed", "--q", "pbr", "nogo", "none", "json"]


@st.composite
def well_formed(draw):
    """(argv, canonical): a command line of one command.  ``canonical`` is
    true where it has the form the reader reads itself: common flags only
    before the verb, the target right after it, every value in space form,
    and no junk value or token in place of or beside a well-formed one.

    One time in two the line is drawn in that form directly.  Otherwise its
    common flags come before or after the verb, its own options after it, in
    space or "=" form, with the target at any option boundary; or, one time
    in four for a command with options, one of them, with a valid value in
    space or "=" form, is among its common flags before the verb, and
    nothing follows its target: a usage error."""
    verb, target = draw(st.sampled_from(list(cli.COMMANDS))).split(" ")
    own = list(cli.COMMANDS[f"{verb} {target}"][0])
    canonical = True

    def given(options, after_verb, junk=True, spaced=False):
        nonlocal canonical
        groups = []
        for opt in options:
            if opt.spec.get("action") == "store_true":
                groups.append([opt.flag])
                continue
            value = draw(valid_values(opt, after_verb))
            if junk and draw(st.integers(0, 7)) == 0:
                value, canonical = draw(st.sampled_from(JUNK)), False
            forms = [[opt.flag, value]] + ([] if spaced else [[f"{opt.flag}={value}"]])
            groups.append(draw(st.sampled_from(forms)))
            canonical &= len(groups[-1]) == 2
        return groups

    def some(options):
        return draw(st.lists(st.sampled_from(options), max_size=3)) if options else []

    if draw(st.booleans()):
        groups = (given(some(list(cli.COMMON)), after_verb=False, junk=False, spaced=True)
                  + [[verb, target]]
                  + given(some(own), after_verb=True, junk=False, spaced=True))
        return [token for group in groups for token in group], True
    before = given(some(list(cli.COMMON)), after_verb=False)
    if own and draw(st.integers(0, 3)) == 0:
        stray = given([draw(st.sampled_from(own))], after_verb=False, junk=False)[0]
        before.insert(draw(st.integers(0, len(before))), stray)
        return [token for group in before for token in group] + [verb, target], False
    used = {group[0].partition("=")[0] for group in before}  # given once, on one side
    common_after = [opt for opt in cli.COMMON if opt.flag not in used]
    after = given(some(common_after + own), after_verb=True)
    at = draw(st.integers(0, len(after)))
    after.insert(at, [target])
    canonical &= at == 0 and not {group[0].partition("=")[0] for group in after} & {
        opt.flag for opt in common_after}
    argv = [token for group in before + [[verb]] + after for token in group]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
        canonical = False
    return argv, canonical


def tokens():
    """Verbs, targets, every declared flag, help, "--", "-", "=" forms and
    values of every type, well-formed or not."""
    values = ["3", "0", "-5", "1_000", "1.5", "-1e3", "-inf", "nan", "1/2", "-1/2", "none",
              "json", "text", "pi", "q", "both", "upper_arm", "o.json"] + JUNK
    words = [*cli.VERBS, *(c.split(" ")[1] for c in cli.COMMANDS), "-h", "--help"]
    flags = [opt.flag for opt in ALL_OPTIONS]
    return st.one_of(st.sampled_from(words + flags + values),
                     st.builds("{}={}".format, st.sampled_from(flags), st.sampled_from(values)))


@settings(max_examples=300, deadline=None)
@given(st.lists(tokens(), max_size=7))
def test_the_reader_matches_the_eager_parser_on_any_tokens(eager, argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert outcome(cli.build_parser(), argv) == outcome(eager, argv)


@settings(max_examples=300, deadline=None)
@given(well_formed())
def test_the_reader_reads_a_well_formed_command_line_as_the_eager_parser_does(eager, case):
    argv, canonical = case
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with parsers_built() as built:
            read = outcome(cli.build_parser(), argv)
        assert read == outcome(eager, argv)
    if canonical:  # the reader itself read it
        assert (read[0], built) == ("parsed", [])


@given(st.text(alphabet="0123456789._eE+-infatyINFATY\u0661", max_size=12))
def test_a_verb_parser_takes_as_values_the_negative_numbers_of_the_float_grammar(tail):
    assert cli.NegativeNumber.match("-" + tail) == bool(NEGATIVE_FLOAT.match("-" + tail))


@pytest.mark.parametrize("argv", ABBREVIATED, ids=" ".join)
def test_an_abbreviated_flag_is_an_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv)
    assert stop.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@contextlib.contextmanager
def parsers_built():
    """A list of every ``ArgumentParser`` constructed inside the block."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, "__init__", counted_init):
        yield built


def readme_argvs() -> list:
    """The argv of each ``omlab`` example in the README's CLI block."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("omlab ") and "`" not in line]


def test_only_argvs_the_reader_declines_construct_an_argparse_parser():
    def constructs(argv) -> bool:
        with parsers_built() as built:
            outcome(cli.build_parser(), argv)
        return bool(built)

    # the lab's own command lines and the README's examples are read without argparse
    assert len(readme_argvs()) == 17
    assert [argv for argv in reach_argvs() + readme_argvs() if constructs(argv)] == []
    assert [argv for argv in MALFORMED + ARGPARSE_FORMS if not constructs(argv)] == []


@pytest.mark.parametrize("argv", ARGPARSE_FORMS, ids=" ".join)
def test_argparse_parses_the_forms_the_reader_declines_as_the_eager_parser_does(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with parsers_built() as built:
            read = outcome(cli.build_parser(), argv)
        assert read == outcome(EagerParser(), argv)
    assert read[0] == "parsed" and built


def foreign_options() -> list:
    """(command, option) for each option of a command's verb that the command
    does not take."""
    pairs = []
    for command in cli.COMMANDS:
        verb, target = command.split(" ")
        siblings = [opt for options in targets(verb).values() for opt in options]
        own = targets(verb)[target]
        pairs += [(command, opt) for opt in dict.fromkeys(siblings) if opt not in own]
    return pairs


@pytest.mark.parametrize("command, opt", foreign_options(),
                         ids=lambda x: x if isinstance(x, str) else x.flag)
def test_a_foreign_option_is_a_usage_error(command, opt, capsys):
    # the default as a command line spells it: "none" for a None default
    value = ([] if opt.spec.get("action") == "store_true"
             else ["none" if opt.default is None else str(opt.default)])
    with pytest.raises(SystemExit) as stop:
        cli.main(command.split(" ") + [opt.flag] + value)
    assert stop.value.code == 2
    own = cli.COMMANDS[command][0]
    takes = ", ".join(o.flag for o in own) or "none"
    assert (f"error: argument {opt.flag}: not an option of '{command}' (its options: {takes})"
            in capsys.readouterr().err)


# the commands that sample nothing, and so take no --seed
UNSEEDED = [command for command, (options, _) in cli.COMMANDS.items()
            if cli.SEED not in options]


def test_only_the_two_sampled_commands_take_a_seed():
    assert [c for c in cli.COMMANDS if c not in UNSEEDED] == ["verify noncomm", "verify all"]
    assert cli.SEED not in cli.COMMON and len(UNSEEDED) == 10


@pytest.mark.parametrize("command", UNSEEDED)
def test_a_seed_is_a_usage_error_of_every_other_command(command, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(command.split(" ") + ["--seed", "3"])
    assert stop.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]  # the usage lines above may list --seed
    verify = command.startswith("verify ")  # a verb with a command that takes --seed
    assert (f"argument --seed: not an option of '{command}'" if verify
            else "unrecognized arguments: --seed 3") in error


def takers(flag) -> list:
    """The commands of ``cli.COMMANDS`` that take ``flag``, in table order."""
    return [command for command, (options, _) in cli.COMMANDS.items()
            if flag in [opt.flag for opt in options]]


@pytest.mark.parametrize("flag", dict.fromkeys(opt.flag for opt in ALL_OPTIONS
                                               if opt not in cli.COMMON))
def test_a_commands_option_before_the_verb_names_the_commands_that_take_it(flag, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main([flag, "3", *takers(flag)[0].split(" ")])
    assert stop.value.code == 2
    named = " and ".join(f"'{c}'" for c in takers(flag))
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"omlab: error: argument {flag}: an option of {named}, which goes after the command")


def test_every_command_records_exactly_its_declared_options():
    for argv in reach_argvs():
        config = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv))).config
        declared = {opt.key for opt in cli.COMMANDS[config.command][0]}
        assert set(config.args) == declared, argv


def test_a_command_lines_config_records_only_the_options_it_gave():
    ns = cli.build_parser().parse_args(["nogo", "pbr", "--lambda-size", "5", "--relax-product"])
    assert cli.config_from_args(ns).args == {"lambda_size": 5, "relax_product": True}


def test_every_recorded_arg_has_the_form_run_accepts():
    for argv in reach_argvs():
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        options = {opt.key: opt for opt in cli.COMMANDS[config.command][0]}
        assert [key for key, value in config.args.items()
                if options[key].misfit(value) is not None] == [], argv


@pytest.mark.parametrize("argv", EMPTY_VALUE, ids=" ".join)
def test_a_dashes_value_is_a_usage_error(argv, capsys):
    # before, argparse's [] reached the run: a TypeError from os.path.dirname
    # for --output, a ReportError from emit for --format, a failed row for the rest
    flag = next(arg for arg in argv if arg.endswith("=--")).partition("=")[0]
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 2
    assert f"error: argument {flag}: expected one argument" in capsys.readouterr().err


def test_reach_runs_one_foreign_option_per_verb_outside_the_lab_argvs(capsys):
    argvs, lab = [argv for argv in usage_argvs() if argv[0] in cli.VERBS], reach_argvs()
    assert [argv for argv in usage_argvs() if argv not in argvs] == [
        EMPTY_VALUE[0], ["--seed", "3", "verify", "noncomm"]]
    assert sorted(argv[0] for argv in argvs) == sorted(
        {command.split(" ")[0] for command, _ in foreign_options()})
    for argv in argvs:
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        assert f"argument {argv[2]}: not an option of" in capsys.readouterr().err
        assert argv not in lab
