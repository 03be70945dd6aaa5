"""The command-line parser: ``cli.build_parser`` builds only the parser of the
verb a command line names, and parses, helps and fails exactly as a parser
built for every verb up front does."""

import argparse
import contextlib
import io

import pytest
from lab_argvs import reach_argvs

from omlab import cli


def eager_parser() -> argparse.ArgumentParser:
    """The reference: one parser per verb of ``cli.VERBS``, all built up front
    with ``add_parser``, as argparse documents subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write report here (default: $OMLAB_OUTPUT_DIR/<cmd>.<fmt>)")
    parser = argparse.ArgumentParser(
        prog="omlab", parents=[common], allow_abbrev=False,
        description="desk-scale checks for ontological models of quantum theory")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, targets, options) in cli.VERBS.items():
        p = sub.add_parser(verb, parents=[common], help=help_text, allow_abbrev=False)
        p.add_argument("target", choices=targets)
        for opt in options:
            p.add_argument(opt.flag, dest=opt.key, default=opt.default, **opt.spec)
    return parser


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
]


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
    results = [(argv, outcome(cli.build_parser(), argv), outcome(eager_parser(), argv))
               for argv in reach_argvs() + MALFORMED]
    assert [argv for argv, new, old in results if new != old] == []
    # the malformed cases reach help (exit 0), usage errors (exit 2, among
    # them every abbreviated flag) and a repeated flag that parses
    kinds = {new[1] if new[0] == "exit" else "parsed"
             for argv, new, _ in results if argv in MALFORMED}
    assert kinds == {0, 2, "parsed"}


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
    argv = [verb, cli.VERBS[verb][1][0]]
    ops = [counter.op(argv) for _ in range(2)]
    for parsers, arguments, _ in ops:
        # the common flags' parent, the top-level parser and the verb's parser
        assert parsers == 3
        assert arguments <= 12
    # nothing is kept across ops: the second op uses none of the first's parsers
    (_, _, used), (_, _, used_again) = ops
    assert not any(a is b for a in used for b in used_again)
