"""The verify suites' escalation and failure branches, reached by forcing
bound violations and broken invariants."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from locnorms import (
    BipartiteOperator,
    DegenerateOperatorError,
    QuantumXorGame,
    SeeSawConfig,
    epsilon_norm,
    gue_operator,
    hiding_ratio,
    norms,
    random_game,
    verify,
)
from locnorms.cli import EXIT_SUITE_FAILURE, SCALING_COLUMNS, XOR_COLUMNS, main
from locnorms.states import induced_difference, stream

CONFIG = SeeSawConfig(restarts=4)


def violating(monkeypatch, fail_budgets):
    """Wrap verify._estimate and verify._report, which a scan runs for each
    of its cases, so that a report violates the cap whenever its estimate
    ran at a budget in fail_budgets; return the list of those budgets in
    the order the scan reported the cases and the list of reports."""
    real_estimate, real_report = verify._estimate, verify._report
    budget_of = {}  # estimate -> the restart budget it ran at
    budgets = []
    reports = []

    def tagged(z, config, hermitian=True):
        est = yield from real_estimate(z, config, hermitian)
        budget_of[est] = config.restarts
        return est

    def forced(z, est):
        budgets.append(budget_of[est])
        report = real_report(z, est)
        if budget_of[est] in fail_budgets:
            report = replace(report, ratio=2.0 * report.bound, satisfied=False)
        reports.append(report)
        return report

    monkeypatch.setattr(verify, "_estimate", tagged)
    monkeypatch.setattr(verify, "_report", forced)
    return budgets, reports


def payload(report):
    """The estimate payload a row carries for report."""
    est = report.eps_estimate
    return {
        "value": est.value,
        "is_lower_bound": True,
        "iterations_used": est.iterations_used,
        "converged": est.converged,
        "restart_index": est.restart_index,
    }


# scan -> (the labels of its two instances, a run of it on those two
# instances). A scan runs every estimate, an escalation's too, as an
# _estimate step and makes every report with _report.
SCANS = {
    "main_bound_scan": (
        ("(2,2) gue[0]", "(2,2) induced[1]"),
        lambda: verify.main_bound_scan([(2, 2)], 2, replace(CONFIG, seed=161)),
    ),
    "game_bound_scan": (
        ("game[0] at (2,2)", "game[1] at (2,2)"),
        lambda: verify.game_bound_scan(2, 2, 2, replace(CONFIG, seed=162)),
    ),
}


# scan -> its two cases drawn again from the scan's stream keys in SCANS,
# and the row key of a case's trace norm
SCAN_DRAWS = {
    "main_bound_scan": (
        lambda: [
            verify.draw(kind, 2, 2, 161, index, verify._SCAN_LABEL, verify.GENERATOR_CODE[kind])
            for index, kind in enumerate(("gue", "induced"))
        ],
        "trace_norm",
    ),
    "game_bound_scan": (
        lambda: [verify.draw("game", 2, 2, 162, index, verify._GAME_LABEL) for index in (0, 1)],
        "beta_all",
    ),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("persists", [False, True])
def test_scan_escalates_unsatisfied_rows(monkeypatch, scan, persists):
    labels, run = SCANS[scan]
    budgets, reports = violating(monkeypatch, {4, 500} if persists else {4})
    result = run()
    # every working-budget report comes before the first escalation
    assert budgets == [4, 4, 500, 500]
    assert [row["escalated"] for row in result["rows"]] == [True, True]
    # each row reports the escalated run, not the working one
    assert [row["estimate"] for row in result["rows"]] == [payload(r) for r in reports[2:]]
    # and that run is the public report of its case at the escalation budget
    draws, norm = SCAN_DRAWS[scan]
    escalation = replace(CONFIG, restarts=verify.ESCALATE_RESTARTS)
    refs = [hiding_ratio(instance, replace(escalation, seed=seed)) for instance, seed in draws()]
    assert [(row["estimate"], row[norm]) for row in result["rows"]] == [(payload(r), r.trace_norm) for r in refs]
    assert [row["satisfied"] for row in result["rows"]] == [not persists] * 2
    if persists:
        assert result["failures"] == [
            f"{label}: ratio {row['ratio']!r} exceeds bound {row['bound']!r} "
            "after escalation to 500 restarts"
            for label, row in zip(labels, result["rows"])
        ]
        assert result["stats"] == {"worst_ratio_over_bound": 2.0}
    else:
        assert result["failures"] == []
        assert result["stats"]["worst_ratio_over_bound"] < 1.0


# scan -> the columns of the CLI command that reports the same cases, and
# those of its keys that only the command sets
CLI_COLUMNS = {
    "main_bound_scan": (SCALING_COLUMNS, {"seed", "generator", "restarts"}),
    "game_bound_scan": (XOR_COLUMNS, {"sample", "num_states"}),
}


@pytest.mark.parametrize("scan", sorted(SCANS))
def test_satisfied_rows_do_not_escalate(monkeypatch, scan):
    _, run = SCANS[scan]
    budgets, _ = violating(monkeypatch, set())
    result = run()
    assert budgets == [4, 4]
    assert [row["escalated"] for row in result["rows"]] == [False, False]
    assert result["failures"] == []
    columns, cli_only = CLI_COLUMNS[scan]
    assert all(set(columns) - cli_only <= row.keys() for row in result["rows"])


# scan -> a run of it on instances drawn from the root seed of config
SEEDED_SCANS = {
    "main_bound_scan": lambda config: verify.main_bound_scan([(2, 2)], 2, config),
    "game_bound_scan": lambda config: verify.game_bound_scan(2, 2, 2, config),
    "field_ratio_scan": lambda config: verify.field_ratio_scan(2, config),
}


@pytest.mark.parametrize("scan", sorted(SEEDED_SCANS))
def test_scans_draw_from_the_config_seed(scan):
    run = SEEDED_SCANS[scan]
    first = run(replace(CONFIG, seed=163))
    assert run(replace(CONFIG, seed=163)) == first
    other = run(replace(CONFIG, seed=164))
    assert len(other["rows"]) == len(first["rows"])
    assert other["rows"] != first["rows"]


@pytest.mark.parametrize("scan", sorted(SCANS))
@pytest.mark.parametrize("restarts", [500, 600])
def test_violations_from_the_escalation_budget_up_are_final(monkeypatch, scan, restarts):
    # escalation only raises the budget, so from ESCALATE_RESTARTS up a
    # violating row reports its one run and the failure names its budget
    labels, _ = SCANS[scan]
    budgets, reports = violating(monkeypatch, {restarts})
    result = SEEDED_SCANS[scan](replace(CONFIG, restarts=restarts))
    assert budgets == [restarts, restarts]
    assert [row["escalated"] for row in result["rows"]] == [False, False]
    assert [row["estimate"] for row in result["rows"]] == [payload(r) for r in reports]
    assert result["failures"] == [
        f"{label}: ratio {row['ratio']!r} exceeds bound {row['bound']!r} at {restarts} restarts"
        for label, row in zip(labels, result["rows"])
    ]


# scan -> a run of it at config on one case with n_a passed as True, and
# the label of that case once its checks store n_a as 1
TRUE_DIM_SCANS = {
    "main_bound_scan": (lambda config: verify.main_bound_scan([(True, 2)], 1, config), "(1,2) gue[0]"),
    "game_bound_scan": (lambda config: verify.game_bound_scan(1, True, 2, config), "game[0] at (1,2)"),
}


@pytest.mark.parametrize("scan", sorted(TRUE_DIM_SCANS))
def test_scan_labels_name_the_checked_dimensions(monkeypatch, scan):
    # a failure label prints the dimensions the checks return, as its row does
    run, label = TRUE_DIM_SCANS[scan]
    violating(monkeypatch, {500})
    result = run(replace(CONFIG, restarts=500))
    (row,) = result["rows"]
    assert row["n_a"] == 1
    assert result["failures"] == [f"{label}: ratio {row['ratio']!r} exceeds bound {row['bound']!r} at 500 restarts"]


def test_run_verification_echoes_and_seeds_from_its_config():
    config = SeeSawConfig(restarts=3, max_iters=40, rel_tol=1e-6, seed=165)
    summary = verify.run_verification(config, samples=1)
    echoed = {key: summary[key] for key in ("seed", "samples", "restarts", "max_iters", "rel_tol")}
    assert echoed == {"seed": 165, "samples": 1, "restarts": 3, "max_iters": 40, "rel_tol": 1e-6}
    assert verify.run_verification(config, samples=1) == summary
    assert verify.run_verification(replace(config, seed=166), samples=1)["suites"] != summary["suites"]


def one_kernel_call_per_job(jobs, config):
    # each multistart stack built on its own, so the batched stacks are pinned too
    def stack(z, starts, side):
        if isinstance(starts, SeeSawConfig):
            return norms._start_stacks(z.n_b if side == "B" else z.n_a, [starts])[0]
        return starts

    return [
        read(norms._seesaw([z], [stack(z, starts, side)], config, [side], field)[0])
        for z, starts, side, field, read in jobs
    ]


@pytest.mark.parametrize("samples", [1, 4, 8])
@pytest.mark.parametrize("restarts", [1, 3, 16])
def test_batched_pass_equals_one_kernel_call_per_job(monkeypatch, samples, restarts):
    # One kernel call per half-step shape (other side, start side, field)
    # over every suite's jobs, with the multistart stacks of a call built
    # together, gives the summary and the scan rows of separate calls and
    # separately built stacks, exactly.
    config = SeeSawConfig(restarts=restarts, seed=168)
    calls, builds = [], []
    real, real_stacks = norms._seesaw, norms._start_stacks

    def counted(zs, *args):
        calls.append(len(zs))
        return real(zs, *args)

    def counted_stacks(dim, configs):
        builds.append(len(configs))
        return real_stacks(dim, configs)

    def run():
        calls.clear()
        builds.clear()
        summary = verify.run_verification(config, samples)
        passes, stack_builds = len(calls), builds[:]
        scans = (
            verify.main_bound_scan(verify.DEFAULT_PAIRS, samples, config),
            verify.game_bound_scan(samples, 2, 2, config),
            verify.field_ratio_scan(samples, config),
        )
        return summary, scans, passes, stack_builds

    monkeypatch.setattr(norms, "_seesaw", counted)
    monkeypatch.setattr(norms, "_start_stacks", counted_stacks)
    summary, scans, batched_calls, batched_builds = run()
    monkeypatch.setattr(norms, "_run_jobs", one_kernel_call_per_job)
    separate = run()
    assert separate[:2] == (summary, scans)
    if samples == 1:
        # one property multistart, three covariance runs and one scan
        # estimate per dimension pair, a game and two field estimates; the
        # swapped covariance runs started on A ride with the B-side calls
        # of their dimension pair, and the complex field estimate has a
        # call of its own
        assert (batched_calls, separate[2]) == (4, 18)
        # each call builds the stacks of its multistart jobs in one go:
        # (2,2) property, scan and game, (2,3) property and scan, (3,3)
        # property, scan and Hermitian field, and the complex field
        assert batched_builds == [3, 2, 3, 1]


def test_scan_summaries_are_their_suites():
    config = replace(CONFIG, seed=167)
    suites = verify.run_verification(config, samples=2)["suites"]
    scans = {
        "main_bound_scan": verify.main_bound_scan(verify.DEFAULT_PAIRS, 2, config),
        "game_bound_scan": verify.game_bound_scan(2, 2, 2, config),
        "field_ratio_scan": verify.field_ratio_scan(1, config),
    }
    for name, scan in scans.items():
        rows = scan.pop("rows")
        assert suites[name] == scan
        assert scan["checks"] == len(rows)


# a scan run on a negative count or dimension -> the error it raises
NEGATIVE_SCANS = {
    "main-samples": (lambda: verify.main_bound_scan([(2, 2)], -5, CONFIG), "samples must be >= 0, got -5"),
    "game-samples": (lambda: verify.game_bound_scan(-3, 2, 2, CONFIG), "samples must be >= 0, got -3"),
    "field-samples": (lambda: verify.field_ratio_scan(-1, CONFIG), "samples must be >= 0, got -1"),
    "main-dims": (
        lambda: verify.main_bound_scan([(-1, 2)], 1, CONFIG),
        "local dimensions must be >= 1, got (-1, 2)",
    ),
    "game-dims": (lambda: verify.game_bound_scan(1, -1, 2, CONFIG), "local dimensions must be >= 1, got (-1, 2)"),
    "main-dims-no-samples": (
        lambda: verify.main_bound_scan([(-1, 2)], 0, CONFIG),
        "local dimensions must be >= 1, got (-1, 2)",
    ),
    "game-dims-no-samples": (
        lambda: verify.game_bound_scan(0, -1, 2, CONFIG),
        "local dimensions must be >= 1, got (-1, 2)",
    ),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SCANS))
def test_scans_reject_negative_counts_and_dimensions(case):
    run, message = NEGATIVE_SCANS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify.main_bound_scan([(2, 2)], 1.5, CONFIG),
        lambda: verify.game_bound_scan(1.5, 2, 2, CONFIG),
        lambda: verify.field_ratio_scan(1.5, CONFIG),
        lambda: verify.run_verification(CONFIG, 1.5),
    ],
    ids=["main", "game", "field", "run_verification"],
)
def test_a_fractional_sample_count_is_rejected_before_any_draw(run):
    with pytest.raises(ValueError, match=r"^samples must be an integer, got 1\.5$"):
        run()


def test_a_scan_stops_at_its_first_zero_operator(monkeypatch):
    # each case is checked as it is drawn: the zero operator at index 1
    # raises before the draw at index 2 runs out of memory, and no search runs
    real_gue = verify.gue_operator
    draws, searches = [], []

    def gue(n_a, n_b, rng):
        draws.append("gue")
        if draws.count("gue") == 2:
            raise MemoryError("Unable to allocate 7.45 TiB for an array")
        return real_gue(n_a, n_b, rng)

    def induced(n_a, n_b, rng):
        draws.append("induced")
        return BipartiteOperator(n_a, n_b, np.zeros((n_a * n_b, n_a * n_b)))

    monkeypatch.setattr(verify, "gue_operator", gue)
    monkeypatch.setattr(verify, "induced_difference", induced)
    monkeypatch.setattr(norms, "_seesaw", lambda *args: searches.append(args))
    with pytest.raises(DegenerateOperatorError, match=r"^hiding ratio is undefined for the zero operator$"):
        verify.main_bound_scan([(2, 2)], 3, SeeSawConfig(restarts=2))
    assert draws == ["gue", "induced"]
    assert searches == []


@pytest.mark.parametrize("samples", [0, -5])
def test_run_verification_needs_a_sample(samples):
    with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
        verify.run_verification(CONFIG, samples=samples)


# ----------------------------------------------------------- stream keys
#
# Each drawn case's substream, spelled out here apart from verify.draw:
# the key (seed, *labels, n_a, n_b, index) decides the bits of every
# instance and of its see-saw seed, so a row must equal the report of the
# instance built by hand from its key.

KEY_SEED = 17
KEY_CONFIG = SeeSawConfig(restarts=2, seed=KEY_SEED)


def keyed(build, *key):
    """(instance, see-saw seed) of build on stream(KEY_SEED, *key)."""
    rng = stream(KEY_SEED, *key)
    return build(rng), verify.run_seed(rng)


def cli_rows(tmp_path, *argv):
    out = tmp_path / "rows.json"
    assert main([*argv, "--seed", str(KEY_SEED), "--restarts", "2", "--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


BUILDERS = {"gue": gue_operator, "induced": induced_difference}


def scaling_case(generator):
    code = verify.GENERATOR_CODE[generator]
    return (
        lambda tmp_path: cli_rows(tmp_path, "scaling", "--generator", generator, "--dmax", "3", "--samples", "2"),
        [keyed(lambda rng: BUILDERS[generator](d, d, rng), code, d, d, k) for d in (2, 3) for k in (0, 1)],
    )


# source -> (its rows given a scratch directory, the (instance, see-saw
# seed) cases its rows report, built by hand from their keys)
KEYED_SOURCES = {
    "scaling-gue": scaling_case("gue"),
    "scaling-induced": scaling_case("induced"),
    "xor": (
        lambda tmp_path: cli_rows(tmp_path, "xor", "--na", "2", "--nb", "3", "--states", "3", "--samples", "2"),
        [keyed(lambda rng: random_game(2, 3, num_states=3, seed=rng), verify.XOR_LABEL, 2, 3, k) for k in (0, 1)],
    ),
    "main_bound_scan": (
        lambda tmp_path: verify.main_bound_scan([(2, 3), (3, 2)], 2, KEY_CONFIG)["rows"],
        [
            keyed(
                lambda rng: BUILDERS[kind](n_a, n_b, rng),
                *(verify._SCAN_LABEL, verify.GENERATOR_CODE[kind], n_a, n_b, i),
            )
            for n_a, n_b in ((2, 3), (3, 2))
            for i, kind in enumerate(("gue", "induced"))
        ],
    ),
    "game_bound_scan": (
        lambda tmp_path: verify.game_bound_scan(2, 3, 2, KEY_CONFIG)["rows"],
        [keyed(lambda rng: random_game(3, 2, seed=rng), verify._GAME_LABEL, 3, 2, i) for i in (0, 1)],
    ),
    "field_ratio_scan": (
        lambda tmp_path: verify.field_ratio_scan(2, KEY_CONFIG)["rows"],
        [keyed(lambda rng: gue_operator(3, 3, rng), verify._FIELD_LABEL, 3, 3, i) for i in (0, 1)],
    ),
}


def keyed_values(row, instance, seesaw_seed):
    """What row reports of its case, and the same values computed from the
    hand-built instance at the row's budget and see-saw seed."""
    config = replace(KEY_CONFIG, seed=seesaw_seed)
    if "complex" in row:
        complex_, hermitian = (epsilon_norm(instance, config, hermitian=h).value for h in (False, True))
        return (row["complex"], row["hermitian"]), (complex_, hermitian)
    game = isinstance(instance, QuantumXorGame)
    report = hiding_ratio(instance, config)
    names = ("beta_all", "beta_product") if game else ("trace_norm", "eps_estimate")
    return (row[names[0]], row[names[1]]), (report.trace_norm, report.eps_estimate.value)


@pytest.mark.parametrize("source", sorted(KEYED_SOURCES))
def test_every_case_is_drawn_from_its_stream_key(tmp_path, source):
    run, cases = KEYED_SOURCES[source]
    rows = run(tmp_path)
    assert len(rows) == len(cases)
    for row, (instance, seesaw_seed) in zip(rows, cases):
        assert row.get("escalated", False) is False
        observed, expected = keyed_values(row, instance, seesaw_seed)
        assert observed == expected


@pytest.mark.parametrize("source", sorted(set(KEYED_SOURCES) - {"field_ratio_scan"}))
def test_rows_report_their_instances_dimensions(tmp_path, source):
    run, cases = KEYED_SOURCES[source]
    rows = run(tmp_path)
    assert [(row["n_a"], row["n_b"]) for row in rows] == [(instance.n_a, instance.n_b) for instance, _ in cases]


# ------------------------------------------------------- failure branches
#
# Each test forces one invariant to break by patching a name the suites
# look up in verify, runs the whole verification, and pins the failure
# strings of the suite that owns the invariant.

SEED = 5
RESTARTS = 2


def verification():
    return verify.run_verification(SeeSawConfig(restarts=RESTARTS, seed=SEED), samples=1)


def failed_suite(summary, name):
    suite = summary["suites"][name]
    assert suite["passed"] is False
    assert summary["passed"] is False
    return suite


def property_estimates():
    """(label, estimate) of the ordering suite's instances, computed here
    with the suite's own budget."""
    config = SeeSawConfig(restarts=RESTARTS, seed=SEED)
    for z, restart_seed, label, _ in verify._instances(SEED, verify._PROPERTY_LABEL, verify.DEFAULT_PAIRS, 1):
        yield label, verify.epsilon_norm(z, replace(config, seed=restart_seed))


def test_decreasing_history_fails_monotonicity(monkeypatch):
    # the suite reads each start's history from its multistart's runs
    real = norms._Runs.estimate

    def decreasing(*args, **kwargs):
        return replace(real(*args, **kwargs), value_history=(1.0, 0.5))

    monkeypatch.setattr(norms._Runs, "estimate", decreasing)
    suite = failed_suite(verification(), "seesaw_monotonicity")
    assert suite["failures"] == [
        f"({n_a},{n_b}) gue[0] start {start}: value decreased by 0.5"
        for n_a, n_b in verify.DEFAULT_PAIRS
        for start in range(RESTARTS + 1)
    ]
    assert suite["checks"] == 3 * (RESTARTS + 1)
    assert suite["stats"] == {"max_decrease": 0.5}


def property_suites_reference(samples, config):
    """_property_suites as separate runs: seesaw_run from initial_contractions
    at 2 restarts for the histories, then epsilon_norm at config."""
    monotone = verify._Tally(max_decrease=0.0)
    ordering = verify._Tally(max_excess_over_trace_norm=-math.inf, max_witness_gap=0.0)
    for z, seesaw_seed, label, _ in verify._instances(config.seed, verify._PROPERTY_LABEL, verify.DEFAULT_PAIRS, samples):
        run_config = replace(config, seed=seesaw_seed, restarts=2)
        for start_index, g0 in norms.initial_contractions(z.n_b, run_config):
            diffs = np.diff(norms.seesaw_run(z, g0, run_config).value_history)
            step = -float(diffs.min()) if diffs.size else 0.0
            monotone.check(
                (step > verify.MONOTONE_STEP_TOL, f"{label} start {start_index}: value decreased by {step!r}"),
                max_decrease=step,
            )
        est = norms.epsilon_norm(z, replace(config, seed=seesaw_seed))
        tn = norms.trace_norm(z.matrix)
        gap = abs(norms.witness_value(z, est) - est.value)
        ordering.check(
            (est.value - tn > verify.ORDERING_TOL, f"{label}: estimate {est.value!r} exceeds trace norm {tn!r}"),
            (gap > verify.WITNESS_TOL, f"{label}: witness reproduces {est.value!r} only to {gap!r}"),
            max_excess_over_trace_norm=est.value - tn,
            max_witness_gap=gap,
        )
    return monotone.suite(), ordering.suite()


@pytest.mark.parametrize("restarts", [1, 2, 16])
def test_property_suites_equal_separate_runs(restarts):
    # One multistart per instance gives the single-start histories and the
    # estimate of separate seesaw_run and epsilon_norm calls, bit for bit.
    config = SeeSawConfig(restarts=restarts, seed=SEED)
    assert verify._drive(verify._property_suites(1, config), config) == property_suites_reference(1, config)
    for z, seesaw_seed, _, _ in verify._instances(SEED, verify._PROPERTY_LABEL, verify.DEFAULT_PAIRS, 1):
        budget = replace(config, seed=seesaw_seed, restarts=max(restarts, 2))
        (runs,) = norms._seesaw([z], norms._start_stacks(z.n_b, [budget]), budget, ["B"], True)
        run_config = replace(config, seed=seesaw_seed, restarts=2)
        for start_index, g0 in norms.initial_contractions(z.n_b, run_config):
            ref = norms.seesaw_run(z, g0, run_config)
            assert runs.estimate(start_index).value_history == ref.value_history
        est = runs.best(restarts + 1)
        ref = norms.epsilon_norm(z, replace(config, seed=seesaw_seed))
        assert (est.value, est.restart_index, est.iterations_used, est.converged) == (
            ref.value,
            ref.restart_index,
            ref.iterations_used,
            ref.converged,
        )
        assert est.value_history == ref.value_history
        assert np.array_equal(est.best_f, ref.best_f) and np.array_equal(est.best_g, ref.best_g)


def test_estimate_above_trace_norm_fails_ordering(monkeypatch):
    monkeypatch.setattr(verify, "trace_norm", lambda matrix: 0.0)
    suite = failed_suite(verification(), "ordering")
    estimates = list(property_estimates())
    assert suite["failures"] == [
        f"{label}: estimate {est.value!r} exceeds trace norm 0.0" for label, est in estimates
    ]
    assert suite["stats"]["max_excess_over_trace_norm"] == max(est.value for _, est in estimates)


def test_witness_gap_fails_ordering(monkeypatch):
    monkeypatch.setattr(verify, "witness_value", lambda z, est: 0.0)
    suite = failed_suite(verification(), "ordering")
    estimates = list(property_estimates())
    assert suite["failures"] == [
        f"{label}: witness reproduces {est.value!r} only to {est.value!r}" for label, est in estimates
    ]
    assert suite["stats"]["max_witness_gap"] == max(est.value for _, est in estimates)


# role of a covariance run -> its forced value history, for each case,
# with the swap and rotation gaps those histories give
COVARIANCE_CASES = {
    "swap": ({"swapped": (0.0, 0.75)}, 0.25, 0.0),
    "swap-length": ({"swapped": (0.0, 0.5, 0.5)}, math.inf, 0.0),
    "rotation": ({"rotated": (0.0, 1.0)}, 0.0, 0.5),
    "rotation-length": ({"rotated": (0.5,)}, 0.0, math.inf),
}


@pytest.mark.parametrize("case", sorted(COVARIANCE_CASES))
def test_history_gaps_fail_covariance(monkeypatch, case):
    forced, swap_gap, rotation_gap = COVARIANCE_CASES[case]
    real = verify._covariance_jobs

    def jobs(*args):
        # the instance's direct, swapped and rotated runs, each read as its forced history
        return [
            (*job[:-1], lambda runs, history=forced.get(role, (0.0, 0.5)): history)
            for role, job in zip(("direct", "swapped", "rotated"), real(*args))
        ]

    monkeypatch.setattr(verify, "_covariance_jobs", jobs)
    summary = verification()
    for name, kind, gap in (
        ("swap_covariance", "swap", swap_gap),
        ("local_unitary_covariance", "local-unitary", rotation_gap),
    ):
        suite = summary["suites"][name]
        assert suite["checks"] == 3
        assert suite["stats"] == {"max_history_gap": gap}
        if gap:
            suite = failed_suite(summary, name)
            assert suite["failures"] == [
                f"({n_a},{n_b})[0]: {kind} history gap {gap!r}" for n_a, n_b in verify.DEFAULT_PAIRS
            ]
        else:
            assert suite["passed"] is True


def test_block_residual_fails_block_identities(monkeypatch):
    monkeypatch.setattr(verify, "block_frame_sums", lambda u, n_a, n_b: (np.zeros((n_b, n_b)),) * 2)
    suite = failed_suite(verification(), "block_identities")
    assert suite["failures"] == [
        f"unitary blocks ({n_a},{n_b})[0]: residual {float(n_a)!r} > 1e-10"
        for n_a, n_b in verify.DEFAULT_PAIRS
    ]
    assert suite["stats"] == {"max_unitary_residual": 3.0, "max_unit_residual": 0.0}


def test_field_quotient_above_cap_fails_field_scan(monkeypatch):
    real = verify._estimate

    def inflated(z, config, hermitian=True):
        # the scan's batched estimate of z, doubled in the complex field
        est = yield from real(z, config, hermitian)
        return est if hermitian else replace(est, value=2.0 * est.value)

    monkeypatch.setattr(verify, "_estimate", inflated)
    summary = verification()
    suite = failed_suite(summary, "field_ratio_scan")
    config = SeeSawConfig(restarts=RESTARTS, seed=SEED)
    rows = verify.field_ratio_scan(1, config)["rows"]
    assert suite["failures"] == [
        f"field[0] at (3,3): complex {row['complex']!r} exceeds sqrt(2) * {row['hermitian']!r} + 0.02"
        for row in rows
    ]
    assert suite["stats"] == {"worst_ratio": rows[0]["ratio"]}
    assert rows[0]["ratio"] > math.sqrt(2.0)


def test_cli_verify_exits_four_on_a_suite_failure(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(verify, "block_frame_sums", lambda u, n_a, n_b: (np.zeros((n_b, n_b)),) * 2)
    out = tmp_path / "verify.json"
    code = main(["verify", "--samples", "1", "--restarts", str(RESTARTS), "--out", str(out)])
    summary = json.loads(out.read_text())
    err = capsys.readouterr().err
    assert code == EXIT_SUITE_FAILURE == 4
    assert summary["passed"] is False
    assert "[FAIL] block_identities (6 checks)" in err
    assert err.count("[PASS]") == len(summary["suites"]) - 1
