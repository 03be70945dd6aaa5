"""Seeded argv generators for the three benchmark workloads.

Each workload is one *pass*: a list of ``omlab`` argv lists that ``run.py``
repeats until the run's time is up.  The shape of every op (which verb, which
grid, which budget) is fixed per workload, because op cost depends on it by
up to 30x and a seed that changed the shapes would change the measured
throughput more than any bound could tolerate.  The seed picks everything
that leaves the amount of work unchanged: the order of the ops and of their
options, the overlap floor ``q`` among the values that give the same weight
grid, and every continuous parameter (phases, squeezing inside its stratum,
lambda, measured values, sampling seeds).  Known failures are part of the
shapes and are never filtered out.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("pbr-lp", "pbr-grid", "lab-mix")

# The overlap floors the pbr-lp ops draw from.  Within one grid denominator
# D the search depends on q only through ceil(q * D), the smallest grid
# weight allowed on the shared ontic state.
PBR_LP_QS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))

# (grid_denominator, lambda_size, null_budget, floor units ceil(q * D)).
# Four shapes run 18 exact LPs each and spend 75-80% of their time in the
# simplex.  Heavier verdicts (30 LPs at q=1/4, D=4, L=4; 87 LPs at budget
# 1/8, 8.5 s alone) are left out so that a pass takes about 7 s and a run
# repeats every op several times.
PBR_LP_SHAPES = (
    (3, 4, "3/8", 1),  # 18 LPs
    (3, 4, "1/8", 1),  # 18 LPs
    (4, 4, "1/2", 2),  # 18 LPs
    (4, 4, "1/4", 2),  # 18 LPs
    (4, 3, "1/8", 1),  # 15 LPs
    (2, 4, "1/8", 1),  # 6 LPs; ends infeasible where feasible is expected (known)
)

# Forced-overlap verdicts decided by presolve alone:
# (lambda_size, grid_denominator, floor units, relax_product).  Six ops test
# 400-441 grid points and three (lambda_size 5) test 1,225, so the median and
# the 90th percentile each fall inside a group of similar ops; a pass takes
# about 6 s.
PBR_GRID_SHAPES = (
    (4, 4, 1, False), (4, 5, 2, True), (4, 6, 3, False),
    (5, 4, 1, True), (5, 5, 2, False), (5, 6, 3, True),
    (6, 4, 2, False), (6, 5, 3, True), (6, 6, 4, False),
)

# Warm-up ops run before timing, in the probe that measures set-up and in
# the measuring process; each touches the layers its workload measures.
WARMUP = {
    "pbr-lp": [["--format", "json", "nogo", "pbr", "--q", "1/2", "--lambda-size", "3",
                "--grid-denominator", "2", "--null-budget", "1/2"]],
    "pbr-grid": [["--format", "json", "nogo", "pbr", "--q", "1/2", "--lambda-size", "4",
                  "--grid-denominator", "4"]],
    "lab-mix": [["--format", "json", "verify", "toy-born"],
                ["--format", "json", "nogo", "hardy", "--lambda-size", "2"],
                ["--format", "json", "gaussian", "epr", "--squeeze", "1"]],
}


def _op(rng: random.Random, head: list, options: list) -> list:
    """``--format json`` + verb/target + options in a seeded order."""
    options = list(options)
    rng.shuffle(options)
    argv = ["--format", "json"] + head
    for opt in options:
        argv.extend(opt)
    return argv


def _floor_units(q: Fraction, d: int) -> int:
    return math.ceil(q * d)


def _q_with_floor(rng: random.Random, d: int, units: int, max_den: int = 12) -> str:
    """A fraction q with ceil(q * d) == units and denominator <= max_den."""
    lo, hi = Fraction(units - 1, d), Fraction(units, d)
    choices = sorted({Fraction(a, b) for b in range(2, max_den + 1)
                      for a in range(1, b + 1) if lo < Fraction(a, b) <= hi})
    return str(rng.choice(choices))


def pbr_lp(rng: random.Random) -> list:
    ops = []
    for d, size, budget, units in PBR_LP_SHAPES:
        qs = [q for q in PBR_LP_QS if _floor_units(q, d) == units]
        ops.append(_op(rng, ["nogo", "pbr"], [
            ["--q", str(rng.choice(qs))], ["--grid-denominator", str(d)],
            ["--lambda-size", str(size)], ["--null-budget", budget]]))
    return ops


def pbr_grid(rng: random.Random) -> list:
    ops = []
    for size, d, units, relax in PBR_GRID_SHAPES:
        options = [["--q", _q_with_floor(rng, d, units)],
                   ["--lambda-size", str(size)], ["--grid-denominator", str(d)]]
        if relax:
            options.append(["--relax-product"])
        ops.append(_op(rng, ["nogo", "pbr"], options))
    return ops


def lab_mix(rng: random.Random) -> list:
    ops = []
    for target in ("toy-born", "combine-table", "steering", "no-signaling"):
        ops.append(_op(rng, ["verify", target], []))
    for target in ("noncomm", "all"):
        ops.append(_op(rng, ["verify", target], [["--seed", str(rng.randrange(10**6))]]))
    for phase in ("0", "pi"):
        for model in ("quantum", "toy", "both"):
            for source in ("first_splitter", "upper_arm"):
                options = [["--phase", phase], ["--model", model], ["--source", source]]
                ops.append(_op(rng, ["simulate", "mz"], options))
                theta = ["--theta", repr(rng.uniform(0.0, 2 * math.pi))]
                ops.append(_op(rng, ["simulate", "mz"], options + [theta]))
    for size in range(2, 9):
        ops.append(_op(rng, ["nogo", "hardy"], [["--lambda-size", str(size)]]))
        ops.append(_op(rng, ["nogo", "hardy"],
                       [["--lambda-size", str(size)], ["--drop-invar"]]))
    ops.append(_op(rng, ["nogo", "chsh"], []))
    for _ in range(2):
        ops.append(_op(rng, ["gaussian", "suite"], [["--lambda", _lam(rng)]]))
    # one squeezing per unit stratum of [0, 12): r >= ~9.2 fails today
    for k in range(12):
        ops.append(_op(rng, ["gaussian", "epr"], [
            ["--squeeze", repr(rng.uniform(k, k + 1))], ["--lambda", _lam(rng)],
            ["--measure", rng.choice("qp")], ["--value", repr(rng.uniform(-3.0, 3.0))]]))
    # small PBR verdicts: every kind of overlap floor, two with a budget
    for q in PBR_LP_QS + ("none",):
        ops.append(_op(rng, ["nogo", "pbr"], [
            ["--q", str(q)], ["--lambda-size", str(rng.choice((2, 3)))],
            ["--grid-denominator", "2"]]))
    for budget in ("1/2", "1/4"):
        ops.append(_op(rng, ["nogo", "pbr"], [
            ["--q", str(rng.choice(PBR_LP_QS))], ["--lambda-size", "2"],
            ["--grid-denominator", "2"], ["--null-budget", budget]]))
    return ops


def _lam(rng: random.Random) -> str:
    return repr(math.exp(rng.uniform(math.log(0.25), math.log(4.0))))


GENERATORS = {"pbr-lp": pbr_lp, "pbr-grid": pbr_grid, "lab-mix": lab_mix}


def generate(workload: str, seed: int) -> list:
    """The seeded pass of ``workload``: a shuffled list of argv lists."""
    rng = random.Random(f"{workload}/{seed}")
    ops = GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
