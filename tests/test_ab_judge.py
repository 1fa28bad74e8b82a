"""The verdict rule of ``benchmarks/ab.py``, on synthetic paired runs
(no subprocess, no git): a gain needs the change better in at least 9
of 10 pairs *and* its median ahead by more than the parent's IQR."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks"))

from ab import judge, section  # noqa: E402

# Parent runs with quartiles 29.5 / 30.0 / 30.5 (IQR 1.0).
PARENT = [29.0, 29.5, 29.5, 30.0, 30.0, 30.0, 30.0, 30.5, 30.5, 31.0]


def test_nine_wins_and_a_gap_beyond_the_iqr_is_a_gain():
    change = [p - 3.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    judged = judge(PARENT, change, "lower", bound=0.25)
    assert judged["wins"] == "9/10"
    assert judged["gap_over_parent_iqr"] > 1.0
    assert judged["gain"] and not judged["regress"]


def test_eight_wins_is_no_gain_however_large_the_gap():
    change = [p - 3.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    judged = judge(PARENT, change, "lower")
    assert judged["wins"] == "8/10"
    assert judged["gap_over_parent_iqr"] > 1.0
    assert not judged["gain"]


def test_a_gap_inside_the_parent_iqr_is_no_gain_even_winning_every_pair():
    change = [p - 0.5 for p in PARENT]
    judged = judge(PARENT, change, "lower")
    assert judged["wins"] == "10/10"
    assert judged["gap_over_parent_iqr"] == 0.5
    assert not judged["gain"]


def test_higher_is_better_metrics_and_the_regression_bound():
    faster = [p * 2.0 for p in PARENT]
    assert judge(PARENT, faster, "higher")["gain"]
    assert judge(PARENT, faster, "lower", bound=0.25)["regress"]
    assert not judge(PARENT, list(PARENT), "lower", bound=0.25)["regress"]


def test_a_spread_wider_than_the_bound_is_unresolved_unless_separated():
    noisy = [20.0, 25.0, 30.0, 35.0, 40.0, 20.0, 25.0, 30.0, 35.0, 40.0]
    assert judge(PARENT, noisy, "lower", bound=0.1)["unresolved"]
    assert not judge(PARENT, PARENT, "lower", bound=0.1)["unresolved"]
    below = [v / 4.0 for v in noisy]  # as spread out, but every run beats every parent run
    assert not judge(PARENT, below, "lower", bound=0.1)["unresolved"]


def test_the_claimed_metric_decides_the_gain():
    """``--metric`` moves the claim: runs whose simulated p99 drops while
    the wall time stays put gain on ``sim_op_p99_us`` and not on the
    default ``wall_us_per_rpc``."""
    contract = {"end_to_end": [
        {"name": "wall_us_per_rpc", "better": "lower", "bound": 0.25},
        {"name": "sim_op_p99_us", "better": "lower", "bound": 0.25},
    ]}

    def runs(p99s):
        return [{"metrics": {"wall_us_per_rpc": 30.0, "sim_op_p99_us": p99},
                 "exact": {"n": 1}, "attempted": 10, "failed": 0} for p99 in p99s]

    sides = {"1": {"parent": runs(PARENT), "change": runs([p - 3.0 for p in PARENT])}}
    default = section(sides, contract, {})
    assert default["verdict"]["metric"] == "wall_us_per_rpc"
    assert not default["verdict"]["gain"] and not default["verdict"]["pass"]
    claimed = section(sides, contract, {}, metric="sim_op_p99_us")
    assert claimed["verdict"]["metric"] == "sim_op_p99_us"
    assert claimed["verdict"]["gain"] and claimed["verdict"]["pass"]


def test_moved_counts_are_evidence_and_differing_exact_tables_fail():
    """A traced ledger whose only moved counts are fewer calls does not
    fail a section that gains; ``exact`` tables that differ still do."""
    contract = {"end_to_end": [{"name": "wall_us_per_rpc", "better": "lower", "bound": 0.25}]}

    def runs(walls, exact):
        return [{"metrics": {"wall_us_per_rpc": wall}, "exact": exact,
                 "attempted": 10, "failed": 0} for wall in walls]

    faster = [p - 3.0 for p in PARENT]
    traced = {"seed": 1, "counts_equal": False,
              "counts_moved": {"python.calls_per_rpc": -16.0}}
    shrank = section({"1": {"parent": runs(PARENT, {"n": 1}), "change": runs(faster, {"n": 1})}},
                     contract, {}, traced)
    assert not shrank["verdict"]["counts_equal"] and shrank["verdict"]["pass"]
    moved = section({"1": {"parent": runs(PARENT, {"n": 1}), "change": runs(faster, {"n": 2})}},
                    contract, {}, traced)
    assert moved["verdict"]["exact_equal"] is False and not moved["verdict"]["pass"]
