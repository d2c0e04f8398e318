"""The scans' escalation branch, reached by forcing bound violations."""

from dataclasses import replace

import pytest

from locnorms import SeeSawConfig, verify

CONFIG = SeeSawConfig(restarts=4, seed=160)


def violating(monkeypatch, name, fail_budgets):
    """Wrap verify.<name> so that its report violates the cap whenever the
    call runs at a budget in fail_budgets; return the list of budgets the
    scan called it with."""
    real = getattr(verify, name)
    budgets = []

    def forced(obj, config):
        budgets.append(config.restarts)
        report = real(obj, config)
        if config.restarts in fail_budgets:
            report = replace(report, ratio=2.0 * report.bound, satisfied=False)
        return report

    monkeypatch.setattr(verify, name, forced)
    return budgets


# scan -> (the evaluator it calls per instance, the labels of its two
# instances, a run of it on those two instances)
SCANS = {
    "main_bound_scan": (
        "hiding_ratio",
        ("(2,2) gue[0]", "(2,2) induced[1]"),
        lambda: verify.main_bound_scan([(2, 2)], 2, 161, CONFIG),
    ),
    "game_bound_scan": (
        "evaluate_game",
        ("game[0] at (2,2)", "game[1] at (2,2)"),
        lambda: verify.game_bound_scan(2, 2, 2, 4, 162, CONFIG),
    ),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("persists", [False, True])
def test_scan_escalates_unsatisfied_rows(monkeypatch, scan, persists):
    evaluator, labels, run = SCANS[scan]
    budgets = violating(monkeypatch, evaluator, {4, 500} if persists else {4})
    result = run()
    assert budgets == [4, 500, 4, 500]
    assert [row["escalated"] for row in result["rows"]] == [True, True]
    assert [row["satisfied"] for row in result["rows"]] == [not persists] * 2
    if persists:
        assert result["failures"] == [
            f"{label}: ratio {row['ratio']!r} exceeds bound {row['bound']!r} "
            "after escalation to 500 restarts"
            for label, row in zip(labels, result["rows"])
        ]
        assert result["worst_ratio_over_bound"] == 2.0
    else:
        assert result["failures"] == []
        assert result["worst_ratio_over_bound"] < 1.0


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_satisfied_rows_do_not_escalate(monkeypatch, scan):
    evaluator, _, run = SCANS[scan]
    budgets = violating(monkeypatch, evaluator, set())
    result = run()
    assert budgets == [4, 4]
    assert [row["escalated"] for row in result["rows"]] == [False, False]
    assert result["failures"] == []
