"""Command-line entry point: named verification runs with JSON/text reports.

Verbs mirror the library surface: ``verify`` replays the toy-theory
demonstrations against exact expectations, ``simulate mz`` runs the
interferometer in either formalism, ``nogo`` drives the constraint
searches (expected-infeasible verdicts count as passes), and ``gaussian``
exercises the restricted Liouville suite.  Exit status is 0 iff the
emitted report has checks and every one passed.

A command's rows are built in the sector module whose claim they check:
``toy`` for ``verify`` and ``simulate mz``, ``pbr`` for ``nogo pbr`` and
``nogo chsh``, ``hardy`` for ``nogo hardy``, ``gaussian`` for the
``gaussian`` verb.  ``COMMANDS`` names each row function as
``"module:function"``, and ``_rows`` imports its module only when the
command runs, so a process loads its own command's sector and no other:
``nogo pbr`` loads no toy-theory, Hardy or Gaussian module.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .reports import ReportDocument, ReportError, RunConfig, emit, row


# --------------------------------------------------------------------------
# options and dispatch

def _fraction_misfit(text) -> str | None:
    """None if ``text`` is a string that ``Fraction`` reads and ``str`` can
    write in lowest terms, else the form it misses."""
    if not (isinstance(text, str) and _reads(Fraction, text)):
        return "a fraction string or None"
    if not _reads(str, Fraction(text)):  # a term longer than the int-to-string digit limit
        return f"a fraction within the int-to-string limit of {sys.get_int_max_str_digits()} digits"
    return None


def _fraction_or_none(text):
    """An argparse type: a fraction in lowest terms, or None for 'none'."""
    if text == "none":
        return None
    try:
        return str(Fraction(text))
    except (ValueError, ZeroDivisionError):
        import argparse  # argparse reports every value this rejects

        raise argparse.ArgumentTypeError(f"{text!r} is not {_fraction_misfit(text)}"
                                         if _reads(Fraction, text)
                                         else f"invalid fraction value: {text!r}") from None


def _path(text):
    """An argparse type: a path, which a blank string is not."""
    if not text:
        import argparse  # argparse reports the blank value

        raise argparse.ArgumentTypeError(f"invalid path value: {text!r}")
    return text


def _reads(parse, text) -> bool:
    """Whether ``parse`` (``float``, ``Fraction`` or ``str``) takes ``text``
    without a ValueError or ZeroDivisionError."""
    try:
        parse(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


class Option:
    """One CLI option, declared once: its flag, the ``RunConfig.args`` key it
    fills, its default as an args value, and the rest of its argparse spec."""

    def __init__(self, flag: str, key: str, default, **spec):
        self.flag = flag
        self.key = key
        self.default = default
        self.spec = spec

    def misfit(self, value) -> str | None:
        """None if ``value`` has the form ``config_from_args`` gives this
        option's args value, else that form in words."""
        spec = self.spec
        if value is None and (self.default is None or spec.get("type") is _fraction_or_none):
            return None  # the option's absence, or a fraction option's 'none'
        if "choices" in spec:
            fits = isinstance(value, str) and value in spec["choices"]
            return None if fits else "one of " + ", ".join(map(repr, spec["choices"]))
        if spec.get("action") == "store_true":
            return None if isinstance(value, bool) else "a bool"
        if spec["type"] is _fraction_or_none:
            return _fraction_misfit(value)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if spec["type"] is int:
            return None if number and isinstance(value, int) else "an int"
        return None if number else "a real number"


# the flags every command takes, before or after its verb
COMMON = (Option("--format", "format", "text", choices=("json", "text")),
          Option("--output", "output", None, type=_path,
                 help="write report here (default: $OMLAB_OUTPUT_DIR/<cmd>.<fmt>)"))
SEED = Option("--seed", "seed", 0, type=int)
LAMBDA_SIZE = Option("--lambda-size", "lambda_size", 4, type=int)
LAMBDA = Option("--lambda", "hbar_like", 1.0, type=float,
                help="uncertainty parameter, in [1e-300, 1e+280]")

# "verb target" -> (options in --help order, "module:function" of its rows,
# called with their args).  A verb's targets are its commands here, in
# order; its options, theirs.
COMMANDS = {
    "verify toy-born": ((), "toy:toy_born_checks"),
    "verify noncomm": ((SEED,), "toy:noncomm_checks"),
    "verify combine-table": ((), "toy:combine_checks"),
    "verify steering": ((), "toy:steering_checks"),
    "verify no-signaling": ((), "toy:no_signaling_checks"),
    "simulate mz": ((
        Option("--phase", "phase", "pi", choices=("0", "pi")),
        Option("--model", "model", "both", choices=("quantum", "toy", "both")),
        Option("--source", "source", "first_splitter", choices=("first_splitter", "upper_arm")),
        Option("--theta", "theta", None, type=float,
               help="extra float-mode run at an arbitrary phase"),
    ), "toy:mz_checks"),
    "nogo pbr": ((
        Option("--q", "q", "1/4", type=_fraction_or_none,
               help="forced overlap floor as a fraction; 'none' disables"),
        LAMBDA_SIZE,
        Option("--grid-denominator", "grid_denominator", 4, type=int),
        Option("--null-budget", "null_budget", None, type=_fraction_or_none,
               help="no-show budget as a fraction; enables the escape"),
        Option("--relax-product", "relax_product", False, action="store_true"),
    ), "pbr:pbr_checks"),
    "nogo hardy": ((
        LAMBDA_SIZE,
        Option("--drop-invar", "drop_invar", False, action="store_true"),
    ), "hardy:hardy_checks"),
    "nogo chsh": ((), "pbr:chsh_checks"),
    # its EPR rows are fixed at r = 3 and a q reading of 1
    "gaussian suite": ((LAMBDA,), "gaussian:gaussian_suite_checks"),
    "gaussian epr": ((
        Option("--squeeze", "squeeze", 3.0, type=float, help="EPR squeezing r, in [0, 13]"),
        LAMBDA,
        Option("--measure", "measure", "q", choices=("q", "p")),
        Option("--value", "value", 1.0, type=float, help="the quadrature reading, finite"),
    ), "gaussian:gaussian_epr_checks"),
}
_DEMONSTRATIONS = [entry for name, entry in COMMANDS.items() if name.startswith("verify ")]


def _rows(name: str):
    """The function ``name``, ``"module:function"``, names in ``omlab.<module>``."""
    module, function = name.split(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), function)


def verify_all_checks(**args) -> list:
    """The demonstrations in table order, each given the args it declares."""
    return [c for options, rows in _DEMONSTRATIONS
            for c in _rows(rows)(**{opt.key: args[opt.key] for opt in options})]


COMMANDS["verify all"] = (tuple(dict.fromkeys(opt for options, _ in _DEMONSTRATIONS
                                              for opt in options)), "cli:verify_all_checks")

# verb -> help, in usage order
VERBS = {"verify": "replay exact demonstrations", "simulate": "run the interferometer",
         "nogo": "constraint-based no-go analyses", "gaussian": "restricted Liouville suite"}


def run(config: RunConfig) -> ReportDocument:
    """Execute the configured command and assemble the report document, whose
    config is ``config`` with its args resolved by ``_dispatch``, or as given
    if they do not resolve."""
    start = time.perf_counter()
    try:
        args = _dispatch(config)
        config = replace(config, args=args)
        checks = _rows(COMMANDS[config.command][1])(**args)
    except Exception as exc:  # surface module errors as failed checks
        checks = [row("run completed without errors", "no exception",
                      f"{type(exc).__name__}: {exc}", "TRIVIAL", passed=False,
                      detail={"type": type(exc).__name__, "origin": _origin(exc)})]
    return ReportDocument(config, tuple(checks), time.perf_counter() - start)


def _origin(exc: Exception) -> str:
    """Package-relative ``file:function`` of the innermost omlab frame of
    ``exc``: the function, not the line, so that an edit above the raise
    leaves the report's bytes alone."""
    import traceback  # only failed runs get here

    package = Path(__file__).resolve().parent
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if Path(f.filename).resolve().is_relative_to(package)][-1]
    return f"{Path(frame.filename).resolve().relative_to(package.parent).as_posix()}:{frame.name}"


def _dispatch(config: RunConfig) -> dict:
    """The args ``config``'s command is run with: each given one, checked
    against the command's declared options, and each omitted one at its
    default.  A command or arg that ``COMMANDS`` does not declare, or a value
    of the wrong form, raises ValueError."""
    if config.command not in COMMANDS:
        raise ValueError(f"unknown command {config.command!r}")
    options = COMMANDS[config.command][0]
    declared = {opt.key: opt for opt in options}
    for key, value in config.args.items():
        if key not in declared:
            raise ValueError(f"{key!r} is not an arg of {config.command!r} "
                             f"(its args: {', '.join(declared) or 'none'})")
        form = declared[key].misfit(value)
        if form is not None:
            raise ValueError(f"{config.command!r} takes {key} as {form}, not {value!r}")
    return {opt.key: config.args.get(opt.key, opt.default) for opt in options}


class NegativeNumber:
    """After the verb, a minus sign and then anything ``float`` reads is a
    value, so that ``--value -1e3`` and ``--theta -inf`` give the option its
    value.  argparse's own negative-number pattern, which each verb parser
    replaces by this, takes only -N and -N.N."""

    @staticmethod
    def match(text: str) -> bool:
        return text.startswith("-") and _reads(float, text)


def _options(verb: str) -> dict:
    """flag -> option, for the options of ``verb``'s commands in ``COMMANDS`` order."""
    return {opt.flag: opt for command, (options, _) in COMMANDS.items()
            if command.startswith(verb + " ") for opt in options}


class _Reader:
    """What ``build_parser`` gives: ``parse_args`` reads the one form the lab
    issues, ``[--format F | --output PATH]... VERB TARGET [OPTION [VALUE]]...``
    with each value the token after its flag, into argparse's namespace
    (``verb``, the options before it, ``target``, the rest; a repeated flag keeps
    its first place and last value), and hands every other command line, help
    and usage errors included, to ``_argparse``, which parses it the same way."""

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else list(argv)
        return self._read(argv) or _argparse(argv)

    @staticmethod
    def _read(argv):
        ns, flags = {"verb": None}, {opt.flag: opt for opt in COMMON}
        args = iter(argv)
        for arg in args:
            opt = flags.get(arg)
            if ns["verb"] is None and arg in VERBS:
                command = f"{arg} {next(args, '')}"
                if command not in COMMANDS:
                    return None
                ns["verb"], ns["target"] = command.split(" ")
                flags = {opt.flag: opt for opt in COMMANDS[command][0]}
            elif opt is None:
                return None
            elif "action" in opt.spec:  # store_true
                ns[opt.key] = True
            else:
                text = next(args, "-")  # a missing value reads as "-", which is declined
                if text.startswith("-") and not (ns["verb"] and NegativeNumber.match(text)):
                    return None
                try:
                    ns[opt.key] = opt.spec.get("type", str)(text)
                except Exception:  # argparse reruns the type, and reports or raises as it does
                    return None
                if "choices" in opt.spec and text not in opt.spec["choices"]:
                    return None
        return SimpleNamespace(**ns) if ns["verb"] else None


def _argparse(argv):
    """Parse ``argv`` with argparse, every verb's parser built by ``add_parser``.  A
    command's option given before the verb, an option given no string value (argparse
    stores ``[]`` for ``--opt=--``) and an option of the verb that the named target
    does not take are usage errors."""
    import argparse

    def declare(parser, options):
        for opt in options:
            parser.add_argument(opt.flag, dest=opt.key, default=argparse.SUPPRESS, **opt.spec)
        return parser

    class AfterTheCommand(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            takers = [repr(c) for c, (options, _) in COMMANDS.items()
                      if any(opt.flag == option_string for opt in options)]
            raise argparse.ArgumentError(
                self, f"an option of {' and '.join(takers)}, which goes after the command")

    # Common flags live in a parent so they parse both before and after the
    # verb; SUPPRESS keeps subparser defaults from clobbering values.
    common = declare(argparse.ArgumentParser(add_help=False), COMMON)
    # No prefix matching: --lambda must not silently mean --lambda-size.
    parser = argparse.ArgumentParser(
        prog="omlab", parents=[common], allow_abbrev=False,
        description="desk-scale checks for ontological models of quantum theory")
    # the top-level parser reads only what comes before the verb, where a
    # command's option is a usage error that says where the option goes
    for flag in dict.fromkeys(opt.flag for options, _ in COMMANDS.values() for opt in options):
        parser.add_argument(flag, nargs="?", action=AfterTheCommand,
                            default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in VERBS.items():
        targets = [(c.partition(" ")[2], options) for c, (options, _) in COMMANDS.items()
                   if c.startswith(verb + " ")]
        epilog = "options by target:\n" + "\n".join(
            f"  {target}: {' '.join(opt.flag for opt in options) or 'none'}"
            for target, options in targets)
        p = verbs.add_parser(verb, parents=[common], help=help_text, allow_abbrev=False,
                             epilog=epilog, formatter_class=argparse.RawDescriptionHelpFormatter)
        p._negative_number_matcher = NegativeNumber
        p.add_argument("target", choices=[target for target, _ in targets])
        declare(p, _options(verb).values())
    ns, unrecognized = parser.parse_known_args(argv)
    for opt in (*COMMON, *_options(ns.verb).values()):
        if isinstance(getattr(ns, opt.key, ""), list):
            verbs.choices[ns.verb].error(f"argument {opt.flag}: expected one argument")
    command = f"{ns.verb} {ns.target}"
    own = COMMANDS[command][0]
    for opt in _options(ns.verb).values():
        if opt not in own and hasattr(ns, opt.key):
            verbs.choices[ns.verb].error(
                f"argument {opt.flag}: not an option of {command!r} "
                f"(its options: {', '.join(o.flag for o in own) or 'none'})")
    if unrecognized:
        parser.error(f"unrecognized arguments: {' '.join(unrecognized)}")
    return ns


def build_parser() -> _Reader:
    return _Reader()


def config_from_args(ns) -> RunConfig:
    """The command line's config: its command and the options it gave;
    ``cli.run`` gives the others their defaults."""
    command = f"{ns.verb} {ns.target}"
    args = {opt.key: getattr(ns, opt.key) for opt in COMMANDS[command][0] if hasattr(ns, opt.key)}
    return RunConfig(command, args, output=getattr(ns, "output", None))


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    fmt = getattr(ns, "format", "text")
    config = config_from_args(ns)
    report = run(config)
    try:
        rendered = emit(report, fmt)
    except ReportError as exc:
        print(f"omlab: error: cannot emit the report: {exc}", file=sys.stderr)
        return 1
    print(rendered)
    out_path = config.output
    if out_path is None and os.environ.get("OMLAB_OUTPUT_DIR"):
        slug = config.command.replace(" ", "-")
        out_path = os.path.join(os.environ["OMLAB_OUTPUT_DIR"], f"{slug}.{fmt}")
    if out_path is not None:
        try:
            if not os.path.basename(out_path) or os.path.isdir(out_path):
                raise IsADirectoryError("Is a directory")  # and so no file to create
            os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
            with open(out_path, "w") as fh:
                fh.write(rendered + "\n")
        except OSError as exc:
            print(f"omlab: error: cannot write the report to {out_path!r}: {exc}",
                  file=sys.stderr)
            return 1
    return 0 if report.all_passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
