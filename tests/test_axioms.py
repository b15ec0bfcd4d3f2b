import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qta import axioms
from qta.axioms import (
    EXPECTED_FAIL,
    LAW_GROUPS,
    LAWS,
    CheckConfig,
    LawReport,
    conway_counterexample,
    instance_seed,
    report_line,
    run_checks,
    serialize_reports,
    suite_passed,
)
from qta.linalg import Operator, sum_swap
from qta.trace import ConvergenceReport, kleene_feedback, scalar_star


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        CheckConfig(instances=-1)
    with pytest.raises(ValueError):
        CheckConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        CheckConfig(tolerance=float("nan"))
    with pytest.raises(ValueError, match="max_dim must be at least 2, got 1"):
        CheckConfig(max_dim=1)
    with pytest.raises(ValueError):
        CheckConfig(law_set=("no-such-group",))


def test_config_defaults_cover_all_groups():
    assert CheckConfig().law_set == LAW_GROUPS


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10_000))
def test_instance_seed_deterministic(seed, index):
    assert instance_seed(seed, index) == instance_seed(seed, index)


def test_instance_seeds_distinct_across_indices():
    seeds = [instance_seed(0, i) for i in range(200)]
    assert len(set(seeds)) == 200


def test_trace_axiom_reports_pass():
    cfg = CheckConfig(seed=3, instances=15, law_set=("trace-axioms",))
    reports = run_checks(cfg)
    assert len(reports) == 15
    assert all(r.passed for r in reports)
    assert all(r.instances_run == 15 for r in reports)
    names = {r.law for r in reports}
    assert "trace-vanishing-kernel" in names
    assert "dqt-yanking" in names


def test_equivalence_reports_pass():
    cfg = CheckConfig(seed=11, instances=12,
                      law_set=("kleene-equivalence", "kit-equivalence",
                               "tensor-compat", "dagger"))
    reports = run_checks(cfg)
    assert {r.law for r in reports} == {
        "kleene-vs-closed-form",
        "kit-vs-closed-form",
        "feedback-tensor-compat",
        "dagger-vs-feedback-operators",
        "dagger-vs-feedback-automata",
    }
    assert all(r.passed for r in reports)


def test_int0_reports_pass():
    cfg = CheckConfig(seed=5, instances=10, law_set=("int0-laws", "functor-F"))
    reports = run_checks(cfg)
    assert len(reports) == 14
    assert all(r.passed for r in reports)


REPORT_ORDER = [
    "trace-naturality-input",
    "trace-naturality-output",
    "trace-sliding",
    "trace-vanishing-unit",
    "trace-vanishing-pair",
    "trace-vanishing-kernel",
    "trace-superposing",
    "trace-yanking",
    "dqt-naturality-input",
    "dqt-naturality-output",
    "dqt-sliding",
    "dqt-vanishing-unit",
    "dqt-vanishing-pair",
    "dqt-superposing",
    "dqt-yanking",
    "kleene-vs-closed-form",
    "kit-vs-closed-form",
    "feedback-tensor-compat",
    "dagger-vs-feedback-operators",
    "dagger-vs-feedback-automata",
    "int0-unit-laws",
    "int0-associativity",
    "int0-triangles",
    "int0-symmetry-coherence",
    "int0-compound-unit",
    "int0-dual-of-counit-is-unit",
    "int0-dagger-involution",
    "int0-dagger-contravariance",
    "int0-bifunctoriality",
    "int0-yanking",
    "functor-preserves-identity",
    "functor-preserves-composition",
    "functor-preserves-dagger",
    "functor-preserves-feedback",
    "conway-star-identities",
]


def test_report_order_is_pinned():
    reports = run_checks(CheckConfig(instances=0))
    assert [r.law for r in reports] == REPORT_ORDER


def test_each_group_selects_its_rows_in_table_order():
    for group in LAW_GROUPS:
        names = [r.law for r in run_checks(CheckConfig(instances=0,
                                                        law_set=(group,)))]
        if group == "conway-counterexample":
            assert names == ["conway-star-identities"]
        else:
            assert names == [law for g, law, _ in LAWS if g == group]
            assert names


def test_table_groups_are_the_law_groups():
    assert {g for g, _, _ in LAWS} | {"conway-counterexample"} == set(LAW_GROUPS)


def test_law_set_filters_groups():
    cfg = CheckConfig(seed=1, instances=5, law_set=("kit-equivalence",))
    reports = run_checks(cfg)
    assert [r.law for r in reports] == ["kit-vs-closed-form"]


def test_zero_instances_pass_vacuously():
    cfg = CheckConfig(seed=1, instances=0, law_set=("trace-axioms", "dagger"))
    reports = run_checks(cfg)
    assert reports
    for r in reports:
        assert r.passed
        assert r.instances_run == 0
        assert r.max_violation == 0.0


def test_runs_are_deterministic_for_a_seed():
    cfg = CheckConfig(seed=42, instances=8)
    first = serialize_reports(run_checks(cfg))
    second = serialize_reports(run_checks(cfg))
    assert first == second


def test_worst_seed_identifies_an_instance():
    cfg = CheckConfig(seed=9, instances=25, law_set=("int0-laws",))
    reports = run_checks(cfg)
    instance_seeds = {instance_seed(9, i) for i in range(25)}
    for r in reports:
        if r.max_violation > 0.0:
            assert r.worst_seed in instance_seeds


@pytest.mark.parametrize("residual", [0.25, 3.0])
def test_kleene_that_does_not_converge_fails_by_one_plus_its_residual(
        monkeypatch, residual):
    def stalled(m, max_n=100_000):
        return None, ConvergenceReport(max_n, residual, converged=False)

    monkeypatch.setattr(axioms, "kleene_feedback", stalled)
    [report] = run_checks(CheckConfig(instances=3,
                                      law_set=("kleene-equivalence",)))
    assert report.max_violation == 1.0 + residual
    assert not report.passed


def test_kleene_falls_back_to_a_zero_loop_when_no_draw_contracts(monkeypatch):
    # every draw has loop block I (radius 1), so each instance after the
    # first gives up after 100 draws and closes sum_swap(k, k) instead
    seen = []

    def spy(m):
        seen.append(m)
        return kleene_feedback(m)

    monkeypatch.setattr(axioms, "random_isometry",
                        lambda rows, cols, rng: Operator(np.eye(rows, cols)))
    monkeypatch.setattr(axioms, "kleene_feedback", spy)
    [report] = run_checks(CheckConfig(instances=4,
                                      law_set=("kleene-equivalence",)))
    assert report.passed and report.max_violation <= 1e-13
    assert len(seen) == 4
    for m in seen[1:]:
        assert m.u == m.k == m.l
        assert np.array_equal(m.op.mat, sum_swap(m.k, m.k).mat)


def test_counterexample_fails_by_exactly_one():
    report = conway_counterexample()
    assert not report.passed
    assert report.max_violation == 1.0
    assert report.law in EXPECTED_FAIL
    assert report.instances_run > 0


def test_counterexample_is_judged_at_the_configured_tolerance():
    assert conway_counterexample(CheckConfig(tolerance=2.0)).passed
    assert not conway_counterexample(CheckConfig(tolerance=0.5)).passed
    [report] = run_checks(CheckConfig(tolerance=2.0,
                                      law_set=("conway-counterexample",)))
    assert report.passed and report.max_violation == 1.0


def test_star_identities_hold_away_from_the_pole():
    a, b = 0.0, 0.7
    assert scalar_star(a + b) == pytest.approx(
        scalar_star(scalar_star(a) * b) * scalar_star(a))
    assert scalar_star(a * b) == pytest.approx(
        a * scalar_star(b * a) * b + 1.0)
    a = b = 0.5
    assert scalar_star(a * b) == pytest.approx(
        a * scalar_star(b * a) * b + 1.0)


def test_star_identities_break_at_one():
    a = b = 1.0
    assert scalar_star(a + b) == -1.0
    assert scalar_star(scalar_star(a) * b) * scalar_star(a) == 0.0
    assert scalar_star(a * b) == 0.0
    assert a * scalar_star(b * a) * b + 1.0 == 1.0


def test_suite_passed_semantics():
    good = LawReport("trace-yanking", 5, 0.0, True, 0)
    bad = LawReport("trace-yanking", 5, 1.0, False, 0)
    expected_bad = LawReport("conway-star-identities", 3, 1.0, False, 0)
    unexpected_good = LawReport("conway-star-identities", 3, 0.0, True, 0)
    assert suite_passed([good, expected_bad])
    assert not suite_passed([bad, expected_bad])
    assert not suite_passed([good, unexpected_good])
    assert suite_passed([])


def test_report_lines_are_json_records():
    cfg = CheckConfig(seed=2, instances=4, law_set=("tensor-compat",))
    reports = run_checks(cfg) + [conway_counterexample()]
    text = serialize_reports(reports)
    lines = text.splitlines()
    assert len(lines) == len(reports)
    for line, r in zip(lines, reports):
        record = json.loads(line)
        assert set(record) == {"law", "instances", "max_violation", "pass",
                               "worst_seed"}
        assert record["law"] == r.law
        assert record["instances"] == r.instances_run
        assert record["pass"] is r.passed
        assert record["worst_seed"] == r.worst_seed
        assert record["max_violation"] == r.max_violation


def test_report_line_keeps_full_float_precision():
    value = 5.525982762272497e-11
    r = LawReport("trace-sliding", 1, value, True, 123)
    assert json.loads(report_line(r))["max_violation"] == value


def test_full_suite_passes_quickly():
    cfg = CheckConfig(seed=0, instances=10)
    reports = run_checks(cfg)
    assert suite_passed(reports)
    assert len(reports) == 35
    genuine = [r for r in reports if r.law not in EXPECTED_FAIL]
    assert max(r.max_violation for r in genuine) <= 1e-8
