"""The tests' exact LP oracle (`tests/simplex.py`): known instances, random
cross-checks, monotonicity."""

import hashlib
import random
from fractions import Fraction

import pytest

from simplex import check_solution, find_feasible

F = Fraction


def test_simple_feasible_equality():
    # x0 + x1 = 1, x0 - x1 = 0  ->  x = (1/2, 1/2)
    res = find_feasible(2, [({0: F(1), 1: F(1)}, F(1)),
                            ({0: F(1), 1: F(-1)}, F(0))])
    assert res.feasible
    assert res.solution == (F(1, 2), F(1, 2))


def test_simple_infeasible_equality():
    # x0 + x1 = 1 and x0 + x1 = 2 cannot both hold
    res = find_feasible(2, [({0: F(1), 1: F(1)}, F(1)),
                            ({0: F(1), 1: F(1)}, F(2))])
    assert not res.feasible
    assert res.phase1_value > 0


def test_nonnegativity_bites():
    # x0 - x1 = 1 with x <= 1/2 each is infeasible over x >= 0
    res = find_feasible(2, [({0: F(1), 1: F(-1)}, F(1))],
                        [({0: F(1)}, F(1, 2))])
    assert not res.feasible


def test_inequalities_and_solution_check():
    # x0 + 2 x1 <= 4, x0 >= 0, x1 >= 0, x0 + x1 = 2
    eqs = [({0: F(1), 1: F(1)}, F(2))]
    ineqs = [({0: F(1), 1: F(2)}, F(4))]
    res = find_feasible(2, eqs, ineqs)
    assert res.feasible
    assert check_solution(2, res.solution, eqs, ineqs)


def test_negative_rhs_normalization():
    # -x0 = -3  ->  x0 = 3
    res = find_feasible(1, [({0: F(-1)}, F(-3))])
    assert res.feasible and res.solution[0] == 3


def test_empty_system_is_feasible():
    res = find_feasible(3)
    assert res.feasible and res.solution == (F(0), F(0), F(0))


def _random_instance(rng: random.Random, n: int, m: int):
    eqs = []
    for _ in range(m):
        coeffs = {j: F(rng.randint(-3, 3)) for j in range(n)}
        eqs.append((coeffs, F(rng.randint(-4, 4))))
    return eqs


def test_random_instances_agree_with_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(2024)
    agreements = 0
    for _ in range(60):
        n, m, k = rng.randint(2, 6), rng.randint(1, 4), rng.randint(0, 3)
        eqs = _random_instance(rng, n, m)
        ineqs = _random_instance(rng, n, k)
        res = find_feasible(n, eqs, ineqs)
        a_eq = [[float(c.get(j, 0)) for j in range(n)] for c, _ in eqs]
        b_eq = [float(b) for _, b in eqs]
        a_ub = [[float(c.get(j, 0)) for j in range(n)] for c, _ in ineqs]
        b_ub = [float(b) for _, b in ineqs]
        lp = scipy_opt.linprog(c=[0.0] * n, A_eq=a_eq, b_eq=b_eq,
                               A_ub=a_ub or None, b_ub=b_ub or None,
                               bounds=[(0, None)] * n, method="highs")
        assert res.feasible == lp.success
        if res.feasible:
            assert check_solution(n, res.solution, eqs, ineqs)
        agreements += 1
    assert agreements == 60


def test_degenerate_rows():
    # 0 = 0 rows are harmless; 0 = 1 rows are flatly infeasible
    res = find_feasible(2, [({0: F(0)}, F(0)), ({0: F(1), 1: F(1)}, F(1))])
    assert res.feasible
    res = find_feasible(2, [({0: F(0), 1: F(0)}, F(1))])
    assert not res.feasible


def test_duplicate_rows_are_redundant_not_fatal():
    eqs = [({0: F(1), 1: F(1)}, F(1))] * 3
    res = find_feasible(2, eqs)
    assert res.feasible
    assert sum(res.solution) == 1


def test_adding_constraints_preserves_infeasibility():
    rng = random.Random(7)
    found = 0
    while found < 10:
        eqs = _random_instance(rng, 3, 3)
        if find_feasible(3, eqs).feasible:
            continue
        found += 1
        extra = eqs + _random_instance(rng, 3, 1)
        assert not find_feasible(3, extra).feasible


# --------------------------------------------------------------------------
# results pinned from the Fraction-tableau simplex; the integer tableau must
# take the same pivots and so return the same points and residuals

def _digest(results) -> str:
    return hashlib.sha256(repr([
        (r.feasible, None if r.solution is None else tuple(map(str, r.solution)),
         str(r.phase1_value)) for r in results]).encode()).hexdigest()


def _rational_instance(rng: random.Random):
    """Non-integer coefficients and right-hand sides of both signs, so that
    rows are sign-flipped and scaled by different denominators."""
    n, m, k = rng.randint(2, 6), rng.randint(1, 4), rng.randint(0, 3)

    def rows(count):
        return [({j: F(rng.randint(-9, 9), rng.randint(1, 7)) for j in range(n)},
                 F(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(count)]

    return n, rows(m), rows(k)


def test_rational_instances_match_pinned_results():
    rng = random.Random(1968)
    lps = [_rational_instance(rng) for _ in range(20)]
    assert sum(1 for _, eqs, ineqs in lps for _, b in eqs + ineqs if b < 0) == 43
    results = [find_feasible(*lp) for lp in lps]
    assert [(r.feasible, str(r.phase1_value)) for r in results] == [
        (False, "32/3"), (True, "0"), (False, "83/12"), (True, "0"), (False, "59/16"),
        (False, "1481/270"), (True, "0"), (True, "0"), (False, "113/20"),
        (False, "2632/345"), (False, "25"), (False, "141/14"), (True, "0"),
        (False, "88603/24490"), (False, "221/60"), (True, "0"), (False, "968/315"),
        (False, "19/4"), (False, "7363/699"), (False, "2704/865")]
    assert _digest(results) == \
        "3757bb59c6775b6998b949b327a3e393bebac82a660b0cf7d6f32c159b6b9d6b"
    for (n, eqs, ineqs), r in zip(lps, results):
        if r.feasible:
            assert check_solution(n, r.solution, eqs, ineqs)


def test_pbr_null_budget_lps_match_pinned_results(monkeypatch):
    import pbr_oracle

    from omlab import pbr

    solved = []

    def record(*args):
        solved.append(find_feasible(*args))
        return solved[-1]

    monkeypatch.setattr(pbr_oracle, "find_feasible", record)
    # the enumeration oracle's LPs; the verdict itself is decided at the
    # support level with no LP
    status, tested, _ = pbr_oracle.grid_search(pbr.FeasibilityProblem(
        lambda_size=4, grid_denominator=3, q=F(1, 4), null_budget=F(3, 8)),
        pbr.build_pbr_scenario().born_table())
    assert (status, tested, len(solved)) == ("feasible", 48, 18)
    assert [str(r.phase1_value) for r in solved] == (
        ["5/18"] * 2 + ["5/72"] * 3 + ["5/18"] * 2 + ["5/72"] * 3 + ["5/18"] * 2
        + ["5/72"] * 5 + ["0"])
    assert _digest(solved) == \
        "152c462ad089e9af71943b5a9e246bb17a590fbbde05df5b5e6cdef509d118b8"


# Beale's LP (1955), the classic example on which the largest-coefficient
# rule cycles: min -3/4 x0 + 20 x1 - 1/2 x2 + 6 x3 under three inequalities,
# two of them with a zero right-hand side, so the start is degenerate.  The
# optimum is -5/4 at x = (1, 0, 1, 0); capping the objective there turns it
# into a feasibility question.
BEALE = [({0: F(1, 4), 1: F(-8), 2: F(-1), 3: F(9)}, F(0)),
         ({0: F(1, 2), 1: F(-12), 2: F(-1, 2), 3: F(3)}, F(0)),
         ({2: F(1)}, F(1))]
BEALE_OBJECTIVE = {0: F(-3, 4), 1: F(20), 2: F(-1, 2), 3: F(6)}


def test_bland_terminates_on_beales_cycling_lp():
    at_optimum = BEALE + [(BEALE_OBJECTIVE, F(-5, 4))]
    res = find_feasible(4, (), at_optimum)
    assert res.feasible and res.solution == (F(1), F(0), F(1), F(0))
    assert check_solution(4, res.solution, (), at_optimum)
    assert res.pivots == 6
    below = find_feasible(4, (), BEALE + [(BEALE_OBJECTIVE, F(-5, 4) - F(1, 100))])
    assert not below.feasible
    assert below.phase1_value == F(1, 100)


def test_pivots_are_counted():
    assert find_feasible(3).pivots == 0
    res = find_feasible(2, [({0: F(1), 1: F(1)}, F(1)),
                            ({0: F(1), 1: F(-1)}, F(0))])
    assert res.pivots == 2
