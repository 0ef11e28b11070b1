"""The pair summary of tools/bench_pairs.py on canned results."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import summarize  # noqa: E402


def test_lower_is_better_gain_holds():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [8.0, 8.1, 7.9, 8.2, 8.0, 8.1, 8.0, 7.8, 8.3, 10.4]
    s = summarize(parent, change, "lower")
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["gain"]
    assert s["percent"] == pytest.approx(100.0 * (8.05 - 10.05) / 10.05)
    assert s["parent"][1] == 10.05 and s["change"][1] == 8.05


def test_higher_is_better_and_ties_count_for_neither():
    parent = [100.0] * 10
    change = [120.0] * 8 + [100.0, 100.0]   # two ties
    s = summarize(parent, change, "higher")
    assert s["wins"] == 8
    assert not s["gain"]                    # 8 of 10 is below nine tenths
    assert s["percent"] == pytest.approx(20.0)
    change[8] = 120.0
    assert summarize(parent, change, "higher")["gain"]


def test_even_pair_count_uses_the_middle_pair_mean_and_the_parents_iqr():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [2.5, 3.5, 4.5, 5.5]
    s = summarize(parent, change, "higher")
    assert s["parent"][1] == 2.5 and s["change"][1] == 4.0
    assert s["wins"] == 4
    # the medians differ by 1.5, the parent's quartiles by 2.5
    assert s["parent"][2] - s["parent"][0] == 2.5
    assert not s["gain"]
    assert summarize(parent, [6.0, 7.0, 8.0, 9.0], "higher")["gain"]


def test_a_worse_change_wins_nothing():
    s = summarize([1.0, 1.0], [2.0, 2.0], "lower")
    assert s["wins"] == 0 and not s["gain"]
    assert s["percent"] == pytest.approx(100.0)
    with pytest.raises(ValueError):
        summarize([1.0], [1.0, 2.0], "lower")
