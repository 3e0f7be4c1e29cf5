import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_pair_summary_on_fixed_numbers():
    parent = [{"rate": v, "time": t} for v, t in zip([5.0, 6.0, 7.0, 5.5, 6.5], [0.30, 0.34, 0.32, 0.36, 0.28])]
    change = [{"rate": v, "time": t} for v, t in zip([6.0, 6.5, 6.8, 7.5, 7.0], [0.26, 0.29, 0.33, 0.27, 0.25])]
    rate, time = pairs.summarize(parent, change, [("rate", "higher"), ("time", "lower")])
    # exclusive quartiles of 5 values: the means of the 1st/2nd and 4th/5th
    name, pq, cq, wins, n, ratio = rate
    assert (name, pq, cq, n) == ("rate", (5.25, 6.0, 6.75), (6.25, 6.8, 7.25), 5)
    assert wins == 4  # the third pair: 6.8 < 7.0
    assert ratio == pytest.approx(0.8 / 1.5)
    name, pq, cq, wins, n, ratio = time
    assert pq == pytest.approx((0.29, 0.32, 0.35)) and cq[1] == 0.27
    assert wins == 4  # the third pair: 0.33 > 0.32
    assert ratio == pytest.approx(0.05 / 0.06)


def test_pair_summary_of_equal_or_single_runs():
    (_, pq, cq, wins, n, ratio), = pairs.summarize([{"m": 1.0}] * 3, [{"m": 1.0}] * 3, [("m", "lower")])
    assert pq == cq == (1.0, 1.0, 1.0) and (wins, n, ratio) == (0, 3, 0.0)
    (_, pq, _, wins, n, ratio), = pairs.summarize([{"m": 2.0}], [{"m": 1.0}], [("m", "lower")])
    assert pq == (2.0, 2.0, 2.0) and (wins, n, ratio) == (1, 1, float("inf"))
