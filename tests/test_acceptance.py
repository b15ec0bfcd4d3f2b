"""End-to-end acceptance checks.

One test per acceptance property; each prints a single PASS/FAIL line
with the measured numbers so the run log doubles as a certificate.
"""

import time

import numpy as np
import pytest

from qta import axioms
from qta.axioms import (
    EXPECTED_FAIL,
    CheckConfig,
    conway_counterexample,
    run_checks,
    serialize_reports,
    suite_passed,
)
from qta.cli import build_cell, chain_cells
from qta.intcat import as_int0, name_of
from qta.linalg import (
    Operator,
    dsum,
    identity,
    isometry_defect,
    op_distance,
    random_isometry,
    unitary_defect,
)
from qta.trace import (
    BlockMap,
    kernel_image_trace,
    kleene_feedback,
    schur_feedback,
)

CENSUS_SIZE = 500
CENSUS_SEED = 47

OPERATOR_AXIOM_LAWS = (
    "trace-naturality-input",
    "trace-naturality-output",
    "trace-sliding",
    "trace-vanishing-unit",
    "trace-vanishing-pair",
    "trace-vanishing-kernel",
    "trace-superposing",
    "trace-yanking",
)
AUTOMATON_AXIOM_LAWS = (
    "dqt-naturality-input",
    "dqt-naturality-output",
    "dqt-sliding",
    "dqt-vanishing-unit",
    "dqt-vanishing-pair",
    "dqt-superposing",
    "dqt-yanking",
)
BIDIRECTIONAL_LAWS = (
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
)


@pytest.fixture
def announce(capfd):
    """One PASS/FAIL line per criterion, written through the capture."""
    def _announce(description, passed, detail):
        line = f"{'PASS' if passed else 'FAIL'} {description} ({detail})"
        with capfd.disabled():
            print(f"\n  {line}", flush=True)
        assert passed, line
    return _announce


def _census_maps():
    for i in range(CENSUS_SIZE):
        rng = np.random.default_rng(np.random.SeedSequence([CENSUS_SEED, i]))
        u = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        l = k + int(rng.integers(0, 3))
        op = random_isometry(u + l, u + k, int(rng.integers(2 ** 63)))
        yield BlockMap(op, u, k, l)


def _kernel_maps(count, stream):
    """Isometries whose loop block has eigenvalue exactly 1."""
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([stream, i]))
        r = int(rng.integers(1, 3))
        u2 = int(rng.integers(0, 3))
        k = int(rng.integers(1, 7))
        l = k + int(rng.integers(0, 3))
        inner = random_isometry(u2 + l, u2 + k, int(rng.integers(2 ** 63)))
        yield BlockMap(dsum(identity(r), inner), r + u2, k, l)


@pytest.fixture(scope="module")
def trace_suite():
    cfg = CheckConfig(seed=101, instances=100, max_dim=6, tolerance=1e-8,
                      law_set=("trace-axioms", "tensor-compat"))
    return {r.law: r for r in run_checks(cfg)}


@pytest.fixture(scope="module")
def default_suite():
    start = time.perf_counter()
    reports = run_checks(CheckConfig())
    return reports, time.perf_counter() - start


def test_closed_form_feedback_is_isometric_across_the_census(announce):
    start = time.perf_counter()
    worst = 0.0
    for bm in _census_maps():
        worst = max(worst, isometry_defect(schur_feedback(bm)))
    elapsed = time.perf_counter() - start
    announce(
        f"closed-form feedback stays isometric on {CENSUS_SIZE} block maps",
        worst <= 1e-8 and elapsed <= 10.0,
        f"max defect {worst:.3g}, {elapsed:.2f} s")


def test_operator_axioms_and_degenerate_permutation_witness(trace_suite, announce):
    bad = [n for n in OPERATOR_AXIOM_LAWS
           if not trace_suite[n].passed or trace_suite[n].max_violation > 1e-8]
    worst = max(trace_suite[n].max_violation for n in OPERATOR_AXIOM_LAWS)
    kernel_runs = trace_suite["trace-vanishing-kernel"].instances_run

    perm = Operator(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex))
    inner = schur_feedback(BlockMap(perm, 1, 2, 2))
    nested = schur_feedback(BlockMap(inner, 1, 1, 1))
    joint = schur_feedback(BlockMap(perm, 2, 1, 1))
    witness_gap = max(abs(nested.mat[0, 0] - 1.0), abs(joint.mat[0, 0] - 1.0))

    announce(
        "operator feedback axioms hold and the degenerate witness closes to [[1]]",
        not bad and kernel_runs >= 50
        and nested.mat.shape == (1, 1) and joint.mat.shape == (1, 1)
        and witness_gap <= 1e-8,
        f"max violation {worst:.3g}, {kernel_runs} forced-kernel instances, "
        f"witness gap {witness_gap:.3g}")


def test_partial_sum_feedback_converges_and_matches_closed_form(announce):
    worst_gap = 0.0
    all_converged = True
    count = 0
    draw = 0
    while count < 200:
        assert draw < 5000, "could not sample enough contraction instances"
        rng = np.random.default_rng(
            np.random.SeedSequence([CENSUS_SEED + 1, draw]))
        draw += 1
        u = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        l = k + int(rng.integers(0, 3))
        bm = BlockMap(random_isometry(u + l, u + k, int(rng.integers(2 ** 63))),
                      u, k, l)
        radius = float(np.max(np.abs(np.linalg.eigvals(bm.op.mat[:u, :u]))))
        if radius > 0.999:
            continue
        out, report = kleene_feedback(bm)
        all_converged = all_converged and report.converged
        worst_gap = max(worst_gap, op_distance(out, schur_feedback(bm)))
        count += 1

    worst_kernel = max(
        op_distance(kernel_image_trace(bm)[0], schur_feedback(bm))
        for bm in _kernel_maps(100, CENSUS_SEED + 2))

    announce(
        "partial-sum feedback converges and matches the closed form",
        all_converged and worst_gap <= 1e-6 and worst_kernel <= 1e-8,
        f"200 contraction instances, max gap {worst_gap:.3g}; "
        f"100 kernel instances, max gap {worst_kernel:.3g}")


def test_kernel_image_form_matches_closed_form_on_the_census(announce):
    worst = max(op_distance(kernel_image_trace(bm)[0], schur_feedback(bm))
                for bm in _census_maps())
    announce(
        f"kernel-image feedback equals the closed form on all {CENSUS_SIZE} maps",
        worst <= 1e-8, f"max gap {worst:.3g}")


def test_automaton_axioms_and_tensor_compatibility(trace_suite, announce):
    bad = [n for n in AUTOMATON_AXIOM_LAWS
           if not trace_suite[n].passed or trace_suite[n].max_violation > 1e-8
           or trace_suite[n].instances_run != 100]
    worst = max(trace_suite[n].max_violation for n in AUTOMATON_AXIOM_LAWS)
    compat = trace_suite["feedback-tensor-compat"]
    announce(
        "automaton feedback axioms hold at 100 instances per axiom",
        not bad and compat.passed and compat.max_violation <= 1e-8,
        f"max violation {worst:.3g}, tensor-compat {compat.max_violation:.3g}")


def test_bidirectional_category_laws_and_default_suite_runtime(default_suite, announce):
    reports, elapsed = default_suite
    by_law = {r.law: r for r in reports}
    bad = [n for n in BIDIRECTIONAL_LAWS
           if not by_law[n].passed or by_law[n].max_violation > 1e-8]
    worst = max(by_law[n].max_violation for n in BIDIRECTIONAL_LAWS)
    announce(
        "bidirectional category and functor laws hold; default suite is fast",
        not bad and suite_passed(reports) and elapsed <= 60.0,
        f"max violation {worst:.3g}, suite ran in {elapsed:.1f} s")


def test_cell_dimensions_bidirectionalization_and_chain_of_three(announce):
    big = build_cell(2, 3)
    dims_ok = (big.h, big.k, big.l) == (8, 4, 4)

    small = build_cell(2, 1)
    named = name_of(as_int0(small, 2))
    defect = unitary_defect(named.tau)
    bidir_ok = named.tau.mat.shape == (8, 8) and defect <= 1e-9

    segment = chain_cells(big, 3)
    chain_ok = (segment.h, segment.k, segment.l) == (512, 4, 4)

    announce(
        "tape cell is 8x(4+4), bidirectionalizes to an 8x8 unitary, chains to 8^3",
        dims_ok and bidir_ok and chain_ok,
        f"cell ({big.h},{big.k},{big.l}), unitary defect {defect:.3g}, "
        f"segment ({segment.h},{segment.k},{segment.l})")


def test_star_identity_counterexample_is_exact(announce):
    star = axioms._star
    lhs = star(1 + 1)
    rhs = star(star(1) * 1) * star(1)
    report = conway_counterexample()
    announce(
        "star identity fails at a = b = 1 with both sides exact",
        lhs == -1.0 and rhs == 0.0 and not report.passed
        and report.law in EXPECTED_FAIL and report.max_violation == 1.0,
        f"sum side {lhs.real:g}, product side {rhs.real:g}")


def test_recorded_seeds_reproduce_every_violation(announce):
    cfg = CheckConfig(seed=13, instances=50)
    first = run_checks(cfg)
    second = run_checks(cfg)
    same = ([(r.law, r.max_violation, r.worst_seed) for r in first]
            == [(r.law, r.max_violation, r.worst_seed) for r in second])
    announce(
        "re-running a suite with its seed reproduces every violation",
        same and serialize_reports(first) == serialize_reports(second),
        f"{len(first)} laws bit-identical across runs")
