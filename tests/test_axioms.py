import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qta import axioms, dqta, trace
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
from qta.dqta import Dqta, witnessed_distance
from qta.linalg import (Operator, gather, monomial, mp_inverse, op_distance,
                        owned, random_isometry, sum_swap, summand_index,
                        tensor_swap)
from qta.trace import (BlockMap, ConvergenceReport, _blocks, kleene_feedback,
                       schur_feedback)
from test_linalg import random_monomial


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


def star_by_pseudoinverse(c):
    """c* = (1 - c)^+ straight from mp_inverse."""
    return complex(mp_inverse(owned(np.full((1, 1), 1 - c, dtype=complex))).mat[0, 0])


@pytest.mark.parametrize("c", [2, 1, 0.7, 0.5, 0, 0.25 + 0.5j])
def test_star_is_the_feedback_of_its_loop(c):
    # exactly equal, c = 1 (an exactly zero loop) included; a zero
    # imaginary part may differ in sign only, -0.0 against 0.0, which
    # complex equality takes as one value
    got, want = axioms._star(c), star_by_pseudoinverse(c)
    assert type(got) is complex
    assert got == want
    assert got.real.hex() == want.real.hex()


def test_star_identities_hold_away_from_the_pole():
    star = axioms._star
    a, b = 0.0, 0.7
    assert star(a + b) == pytest.approx(star(star(a) * b) * star(a))
    assert star(a * b) == pytest.approx(a * star(b * a) * b + 1.0)
    a = b = 0.5
    assert star(a * b) == pytest.approx(a * star(b * a) * b + 1.0)


def test_star_identities_break_at_one():
    # the pseudoinverse star of 1 - 1 = 0 is exactly 0, so both Conway
    # gaps are exactly 1
    star = axioms._star
    a = b = 1.0
    assert star(a + b) == -1.0
    assert star(star(a) * b) * star(a) == 0.0
    assert star(a * b) == 0.0
    assert a * star(b * a) * b + 1.0 == 1.0
    assert abs(star(a + b) - star(star(a) * b) * star(a)) == 1.0
    assert abs(star(a * b) - (a * star(b * a) * b + 1.0)) == 1.0


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_violation_fails_its_law_at_its_first_instance(
        monkeypatch, bad):
    values = {1: 5.0, 2: bad, 3: 7.0, 4: bad}

    def stub(cfg, rng, idx):
        return values.get(idx, 1e-12 * idx)

    monkeypatch.setattr(axioms, "LAWS", (("dagger", "stub", stub),))
    [report] = run_checks(CheckConfig(instances=6, law_set=("dagger",)))
    assert not report.passed
    assert report.worst_seed == instance_seed(0, 2)
    record = json.loads(report_line(report))
    assert record["pass"] is False
    if math.isnan(bad):
        assert math.isnan(report.max_violation)
        assert math.isnan(record["max_violation"])
    else:
        assert report.max_violation == record["max_violation"] == bad


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


def test_the_gate_free_groups_call_no_gate(monkeypatch):
    # the suite builds its draws and closes its loops unchecked, as every
    # operation does: only kleene_feedback and kernel_image_trace, the API
    # that kleene- and kit-equivalence compare, run the gate
    def gate(defect, what):
        raise AssertionError(f"gate called: {what}")

    for module in (dqta, trace):
        monkeypatch.setattr(module, "check_defect", gate)
    groups = ("trace-axioms", "tensor-compat", "dagger", "int0-laws",
              "functor-F", "conway-counterexample")
    assert suite_passed(run_checks(CheckConfig(instances=20, law_set=groups)))


# ------------------------------------------- the shared axioms, carried

def injection(rng, rows, cols, signed):
    """random_monomial's partial injection, with phases +-1 when signed and
    uniform unit phases otherwise."""
    f = random_monomial(rng, rows, cols)
    if signed:
        return monomial(rows, f.form[0], rng.choice([1.0, -1.0], cols))
    return f


def loop_walks(f, h, u):
    """(whether a loop cycle exists, most loop steps of an input's path)
    for a carried f: H (x) (U (+) K) -> H (x) (U (+) L) over H (x) U."""
    rows, cols = (np.concatenate([summand_index(h, [u, n], [0]),
                                  summand_index(h, [u, n], [1])])
                  for n in (f.rows // h - u, f.cols // h - u))
    target, n = gather(f, rows, cols).form[0], h * u
    cycle = False
    for j in range(n):
        r = target[j]
        for _ in range(n):
            if r >= n or r == j:
                break
            r = target[r]
        cycle = cycle or r == j
    longest = 0
    for c in range(n, len(target)):
        r, steps = target[c], 0
        while r < n:
            r, steps = target[r], steps + 1
        longest = max(longest, steps)
    return cycle, longest


def carried_axioms(C, rng, signed, auto):
    """({axiom: violation} of every shared axiom in C on carried inputs,
    [(transition, h, u)] of the draws that close a loop).  Automata take
    h <= 3; sliding's s is stateless, since the two sides of sliding tensor
    their state factors in different orders (a stateful s is checked up to
    that swap below)."""
    def m(k, l, stateless=False):
        if not auto:
            return injection(rng, l, k, signed)
        h = 1 if stateless else int(rng.integers(1, 4))
        return Dqta(h, k, l, injection(rng, h * l, h * k, signed))

    cap = 3 if auto else 5
    u, v = (int(x) for x in rng.integers(1, cap, 2))
    k = int(rng.integers(0, 3))
    l = k + int(rng.integers(0, 3))
    k0 = int(rng.integers(0, k + 1))
    l2 = l + int(rng.integers(0, 2))
    f, pair, square = m(u + k, u + l), m(u + v + k, u + v + l), m(u + k, u + k)
    violations = {
        "naturality-input": axioms._axiom_naturality_input(C, f, m(k0, k), u),
        "naturality-output":
            axioms._axiom_naturality_output(C, f, m(l, l2), u),
        "sliding": axioms._axiom_sliding(C, f, m(u, u, True), u, k, l),
        "vanishing-unit": axioms._axiom_vanishing_unit(C, f),
        "vanishing-pair": axioms._axiom_vanishing_pair(C, pair, u, v),
        "superposing": axioms._axiom_superposing(C, f, m(k0, l2), u),
        "yanking": axioms._axiom_yanking(C, u),
        "dagger": axioms._axiom_dagger(C, square, u),
    }
    tau = (lambda t: (t.tau, t.h)) if auto else (lambda t: (t, 1))
    return violations, [(*tau(f), u), (*tau(pair), u + v), (*tau(square), u)]


# no composite: the trace, tensor, units and dagger keep carried forms
CARRIED_ONLY = {"vanishing-unit", "vanishing-pair", "superposing", "yanking",
                "dagger"}
# and of these, the ones that multiply no two phases
NO_PHASE_PRODUCT = {"vanishing-unit", "superposing", "yanking"}


@pytest.mark.parametrize("signed", [True, False])
@pytest.mark.parametrize("category", ["operators", "automata"])
def test_shared_axioms_hold_on_carried_inputs(category, signed):
    C = {"operators": axioms._OPERATORS, "automata": axioms._AUTOMATA}[category]
    rng = np.random.default_rng(17)
    worst, cycles, multi_step = {}, 0, 0
    for _ in range(150):
        violations, loops = carried_axioms(C, rng, signed,
                                           category == "automata")
        for name, v in violations.items():
            worst[name] = max(worst.get(name, 0.0), v)
        for tau, h, u in loops:
            assert tau.form is not None
            cycle, steps = loop_walks(tau, h, u)
            cycles, multi_step = cycles + cycle, multi_step + (steps >= 2)
    assert cycles >= 50 and multi_step >= 50
    assert max(worst.values()) <= 1e-14, worst
    exact = CARRIED_ONLY if signed else NO_PHASE_PRODUCT
    assert all(worst[name] == 0.0 for name in exact), worst


@pytest.mark.parametrize("category", ["operators", "automata"])
def test_shared_axioms_see_a_negated_trace(category):
    # -Tr is natural, slides and commutes with the dagger, but it fixes no
    # unit, yanks to -1 and does not nest: the four statements that compare
    # a trace with a constant or with another trace must see it
    C = {"operators": axioms._OPERATORS, "automata": axioms._AUTOMATA}[category]

    def negated(f, u):
        out = C.tr(f, u)
        if category == "operators":
            return owned(-out.mat)
        return Dqta(out.h, out.k, out.l, owned(-out.tau.mat))

    rng = np.random.default_rng(5)
    worst = {}
    for _ in range(20):
        violations, _ = carried_axioms(C._replace(tr=negated), rng, True,
                                       category == "automata")
        for name, v in violations.items():
            worst[name] = max(worst.get(name, 0.0), v)
    assert worst["vanishing-unit"] == worst["yanking"] == 2.0
    assert worst["vanishing-pair"] == worst["superposing"] == 2.0
    for name in ("naturality-input", "naturality-output", "sliding", "dagger"):
        assert worst[name] <= 1e-14, (name, worst[name])


@pytest.mark.parametrize("carried", [False, True])
def test_sliding_a_stateful_automaton_holds_up_to_the_state_swap(carried):
    # the left side of sliding has state H_f (x) H_s, the right H_s (x) H_f,
    # so they agree up to tensor_swap(h_f, h_s), not as plain transitions
    rng = np.random.default_rng(29)
    witnessed, plain = 0.0, 0.0
    for _ in range(150):
        u, k = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        l = k + int(rng.integers(0, 2))
        hf, hs = (int(x) for x in rng.integers(1, 4, 2))
        draw = ((lambda r, c: injection(rng, r, c, False)) if carried
                else (lambda r, c: random_isometry(r, c, rng)))
        f = Dqta(hf, u + k, u + l, draw(hf * (u + l), hf * (u + k)))
        s = Dqta(hs, u, u, draw(hs * u, hs * u))
        swap = tensor_swap(hf, hs)
        C = axioms._AUTOMATA._replace(
            dist=lambda a, b: witnessed_distance(a, b, swap))
        witnessed = max(witnessed, axioms._axiom_sliding(C, f, s, u, k, l))
        plain = max(plain,
                    axioms._axiom_sliding(axioms._AUTOMATA, f, s, u, k, l))
    assert witnessed <= (1e-14 if carried else 1e-12), witnessed
    # about 2 where two unit phases meet with opposite signs
    assert plain >= (1.9 if carried else 0.5), plain


@pytest.mark.parametrize("signed", [True, False])
def test_kleene_matches_schur_on_carried_blockmaps(signed):
    # paths through several loop steps give increments B A^n C that are
    # exactly 0 before a later one is not; the stop must outlast them
    rng = np.random.default_rng(23)
    late = 0
    for _ in range(300):
        u = int(rng.integers(1, 6))
        k = int(rng.integers(1, 4))
        l = k + int(rng.integers(0, 3))
        m = BlockMap(injection(rng, u + l, u + k, signed), u, k, l)
        out, report = kleene_feedback(m)
        assert report.converged
        gap = op_distance(out, schur_feedback(m))
        assert gap == 0.0 if signed else gap <= 1e-14
        a, b, c, _ = _blocks(m.op.mat, 1, u, k, l)
        zero = [not np.any(b @ np.linalg.matrix_power(a, n) @ c)
                for n in range(u + 1)]
        late += any(zero[n] and not zero[n + 1] for n in range(u))
    assert late >= 50
