"""The command-line parser: ``cli.build_parser`` builds only the parser of the
verb a command line names, and parses, helps and fails exactly as a parser
built for every verb up front does; a command takes only its own options."""

import argparse
import contextlib
import io
import re

import pytest
from hypothesis import given
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


class EagerParser:
    """The reference: one parser per verb of ``cli.VERBS``, all built up front
    with ``add_parser``, as argparse documents subcommands.  A verb's parser
    takes every negative number of the float grammar as a value, and declares
    every option of its targets, absent unless given; after parsing, the first
    of them in declaration order that the named target does not take is a
    usage error of the verb's parser, and then any unrecognized argument is
    one of the top-level parser."""

    def __init__(self):
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
        common.add_argument("--output", default=argparse.SUPPRESS,
                            help="write report here (default: $OMLAB_OUTPUT_DIR/<cmd>.<fmt>)")
        self.parser = argparse.ArgumentParser(
            prog="omlab", parents=[common], allow_abbrev=False,
            description="desk-scale checks for ontological models of quantum theory")
        sub = self.parser.add_subparsers(dest="verb", required=True)
        self.verbs = {}
        for verb, help_text in cli.VERBS.items():
            p = sub.add_parser(verb, parents=[common], help=help_text, allow_abbrev=False)
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

MALFORMED = [
    ["-h"], *([verb, "-h"] for verb in cli.VERBS), ["nogo", "pbr", "-h"],
    [], ["frobnicate"], ["nogo"], ["nogo", "bell"],
    ["simulate", "mz", "--squeeze", "3"],
    *ABBREVIATED, ["--format", "xml", "nogo", "chsh"], ["nogo", "chsh", "--format", "xml"],
    ["--seed", "1", "verify", "noncomm", "--seed", "2"], ["--seed", "x", "verify", "all"],
    ["nogo", "chsh", "--bogus"], ["nogo", "pbr", "--lambda-size", "four"],
    # options of the verb that the named target does not take
    ["gaussian", "suite", "--squeeze", "9"], ["nogo", "--q", "1/2", "chsh"],
    ["nogo", "hardy", "--drop-invar", "--null-budget", "1/2", "--q", "1/2"],
    ["gaussian", "suite", "--value", "nan", "--measure", "p"],
    ["nogo", "chsh", "--q", "1/2", "--bogus"], ["nogo", "chsh", "--bogus", "--q", "1/2"],
]

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


def test_on_demand_parser_matches_the_eager_one(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at the terminal width
    results = [(argv, outcome(cli.build_parser(), argv), outcome(EagerParser(), argv))
               for argv in reach_argvs() + MALFORMED + NEGATIVE]
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


@given(st.text(alphabet="0123456789._eE+-infatyINFATY\u0661", max_size=12))
def test_a_verb_parser_takes_as_values_the_negative_numbers_of_the_float_grammar(tail):
    assert cli.NegativeNumber.match("-" + tail) == bool(NEGATIVE_FLOAT.match("-" + tail))


@pytest.mark.parametrize("argv", ABBREVIATED, ids=" ".join)
def test_an_abbreviated_flag_is_an_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.build_parser().parse_args(argv)
    assert stop.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class Counter:
    """Counts the parsers and arguments argparse builds, keeping each parser."""

    def __init__(self, monkeypatch):
        self.parsers, self.arguments = [], 0
        init, add_argument = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

        def counted_init(parser, *args, **kwargs):
            self.parsers.append(parser)
            init(parser, *args, **kwargs)

        def counted_add_argument(parser, *args, **kwargs):
            self.arguments += 1
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add_argument)

    def op(self, argv) -> tuple:
        """(parsers built, add_argument calls, the top-level and verb parsers
        used) of one build and parse."""
        first, arguments = len(self.parsers), self.arguments
        parser = cli.build_parser()
        parser.parse_args(argv)
        (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return (len(self.parsers) - first, self.arguments - arguments,
                [parser, verbs.choices[argv[0]]])


@pytest.mark.parametrize("verb", list(cli.VERBS))
def test_an_op_builds_only_the_named_verbs_parser(verb, monkeypatch):
    counter = Counter(monkeypatch)
    argv = [verb, next(iter(targets(verb)))]
    ops = [counter.op(argv) for _ in range(2)]
    for parsers, arguments, _ in ops:
        # the common flags' parent, the top-level parser and the verb's parser
        assert parsers == 3
        assert arguments <= 12
    # nothing is kept across ops: the second op uses none of the first's parsers
    (_, _, used), (_, _, used_again) = ops
    assert not any(a is b for a in used for b in used_again)


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
    value = [] if opt.spec.get("action") == "store_true" else [str(opt.default)]
    with pytest.raises(SystemExit) as stop:
        cli.main(command.split(" ") + [opt.flag] + value)
    assert stop.value.code == 2
    own = cli.COMMANDS[command][0]
    takes = ", ".join(o.flag for o in own) or "none"
    assert (f"error: argument {opt.flag}: not an option of '{command}' (its options: {takes})"
            in capsys.readouterr().err)


def test_every_command_records_exactly_its_declared_options():
    for argv in reach_argvs():
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        declared = {opt.key for opt in cli.COMMANDS[config.command][0]}
        if config.command == "simulate mz" and "--theta" not in argv:
            declared.remove("theta")  # recorded only when given
        assert set(config.args) == declared, argv


def test_every_recorded_arg_has_the_form_run_accepts():
    for argv in reach_argvs():
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        options = {opt.key: opt for opt in cli.COMMANDS[config.command][0]}
        assert [key for key, value in config.args.items()
                if options[key].misfit(value) is not None] == [], argv


def test_reach_runs_one_foreign_option_per_verb_outside_the_lab_argvs(capsys):
    argvs, lab = usage_argvs(), reach_argvs()
    assert sorted(argv[0] for argv in argvs) == sorted(
        {command.split(" ")[0] for command, _ in foreign_options()})
    for argv in argvs:
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 2
        assert f"argument {argv[2]}: not an option of" in capsys.readouterr().err
        assert argv not in lab
