"""The summary of ``tools/ab.py`` on synthetic run records; no benchmark runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "ab.py")
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def _run(seed, run_s, tok_s, correct=True, failed=0):
    return {"seed": seed, "host": f"pipeline seed {seed}: ...", "correct": correct,
            "attempted": 5, "failed": failed,
            "metrics": {"run_s": run_s, "tokens_per_s": tok_s}}


def _pairs(parent_run_s, change_run_s, **change):
    return [
        {"parent": _run(i, p, 100.0 * p), "change": _run(i, c, 100.0 * c, **change)}
        for i, (p, c) in enumerate(zip(parent_run_s, change_run_s))
    ]


BETTER = {"run_s": "lower", "tokens_per_s": "higher"}


def test_quartiles_interpolate():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_medians_iqr_and_wins():
    parent = [3.0, 3.2, 3.4, 3.1, 3.3]
    change = [2.8, 3.3, 2.9, 2.7, 3.0]
    s = ab.summarize(_pairs(parent, change), BETTER)
    assert s["pairs"] == 5
    run_s = s["metrics"]["run_s"]
    assert (run_s["parent"]["median"], run_s["change"]["median"]) == (3.2, 2.9)
    assert run_s["parent"]["q1"] == 3.1 and run_s["parent"]["q3"] == 3.3
    assert run_s["parent_iqr"] == pytest.approx(0.2)
    assert run_s["median_change"] == pytest.approx(-0.3)
    assert run_s["beyond_parent_iqr"]
    assert run_s["wins"] == 4  # lower is better: every pair but the second
    # higher is better, and tokens/s here rise with run_s: the change loses four
    assert s["metrics"]["tokens_per_s"]["wins"] == 1


def test_ties_are_not_wins_and_unknown_metrics_are_lower_better():
    s = ab.summarize(_pairs([1.0, 2.0], [1.0, 1.5]), {})
    run_s = s["metrics"]["run_s"]
    assert run_s["wins"] == 1 and s["metrics"]["tokens_per_s"]["wins"] == 1
    assert run_s["parent_iqr"] == 0.5 and run_s["median_change"] == -0.25
    assert not run_s["beyond_parent_iqr"]


def test_a_run_that_is_not_correct_is_refused():
    pairs = _pairs([3.0, 3.1], [2.9, 3.0])
    pairs[1]["change"]["correct"] = False
    with pytest.raises(ab.ABError, match="pair 2: the change run .* correct: false"):
        ab.summarize(pairs, BETTER)

