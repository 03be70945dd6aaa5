"""``scripts/ab.py``'s accept/reject arithmetic, on synthetic paired runs,
and its byte-compiling of each tree."""

import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from ab import compile_tree, summarize  # noqa: E402

SPEC = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                       {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]}


def result(ops_per_s=100.0, op_p50_ms=2.0, correct=True, failed=0) -> dict:
    """A ``perfbench/run.py --trace 0`` result object with two metrics."""
    return {"correct": correct, "attempted": 50, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}}}


def one_workload(base: list, change: list) -> dict:
    return summarize(SPEC, {"w": {"base": base, "change": change}})["w"]


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    base = [result(100.0, 2.0) for _ in range(10)]
    # 6 pairs where the change is faster, 3 ties, 1 where it is slower
    change = ([result(110.0, 1.5)] * 6 + [result(100.0, 2.0)] * 3
              + [result(90.0, 2.5)])
    block = one_workload(base, change)
    for name in ("ops_per_s", "op_p50_ms"):
        assert (block[name]["change_wins"], block[name]["base_wins"]) == (6, 1)
    # reversing the sides swaps the wins
    flipped = one_workload(change, base)
    assert (flipped["ops_per_s"]["change_wins"], flipped["ops_per_s"]["base_wins"]) == (1, 6)
    assert (flipped["op_p50_ms"]["change_wins"], flipped["op_p50_ms"]["base_wins"]) == (1, 6)


def spread_base() -> list:
    """Ten base runs whose ops_per_s quartiles are 97.75 and 102.25 (IQR 4.5)."""
    return [result(v) for v in (95.0, 97.0, 98.0, 99.0, 100.0,
                                100.0, 101.0, 102.0, 103.0, 105.0)]


@pytest.mark.parametrize("shift, winners, gain", [
    (5.0, 10, True),    # every pair won, median gap 5 > IQR 4.5
    (5.0, 9, True),     # 9 of 10 pairs is enough
    (6.0, 8, False),    # 8 of 10 is not, though the gap (4.75) is beyond the IQR
    (4.0, 10, False),   # every pair won, but gap 4 < IQR 4.5
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_base_iqr(
        shift, winners, gain):
    base = spread_base()
    base_values = [r["metrics"]["ops_per_s"]["value"] for r in base]
    # the change wins the first `winners` pairs by `shift`; the rest it
    # loses by 0.5
    change = [result(v + shift if i < winners else v - 0.5)
              for i, v in enumerate(base_values)]
    block = one_workload(base, change)["ops_per_s"]
    assert block["change_wins"] == winners
    assert block["gain"] is gain
    assert block["worse_beyond_bound"] is False


@pytest.mark.parametrize("name, at_bound, past_bound", [
    ("ops_per_s", 75.0, 74.0),   # higher is better: 25% below 100 is the bound
    ("op_p50_ms", 2.5, 2.5078125),  # lower is better: 25% above 2.0 is the bound
])
def test_worse_beyond_bound_trips_just_past_the_bound_and_not_at_it(
        name, at_bound, past_bound):
    base = [result() for _ in range(10)]
    for value, tripped in ((at_bound, False), (past_bound, True)):
        change = [result(**{name: value}) for _ in range(10)]
        block = one_workload(base, change)[name]
        assert block["base_wins"] == 10 and block["gain"] is False
        assert block["worse_beyond_bound"] is tripped


def test_correct_and_failed_ops_cover_every_run():
    base = [result() for _ in range(10)]
    change = [result() for _ in range(9)] + [result(correct=False, failed=3)]
    block = one_workload(base, change)
    assert block["correct"] is False
    assert block["failed_ops"] == {"base": 0, "change": 3}
    assert one_workload(base, base)["correct"] is True


def test_each_tree_is_byte_compiled_even_where_the_environment_forbids_writing_it(
        tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    sources = [tmp_path / "src" / "pkg" / "__init__.py", tmp_path / "src" / "pkg" / "mod.py",
               tmp_path / "perfbench" / "run.py"]
    for source in sources:
        source.parent.mkdir(parents=True, exist_ok=True)
        source.write_text("X = 1\n")
    assert compile_tree(tmp_path) == tmp_path
    # the bytecode is where this interpreter's imports look for it
    assert all(Path(importlib.util.cache_from_source(str(s))).is_file() for s in sources)
