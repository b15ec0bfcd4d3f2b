"""The library's feedback against the exact oracle in exact.py.

A comparison passes within 16 eps kappa, kappa the condition number of
the part of I - A that the feedback inverts: the library sees the float
rounding of a rational isometry, and that rounding is amplified by kappa
(see exact.py).  kleene_feedback rounds at every one of its steps as
well, and is allowed that on top (kleene_allowance).
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import exact
from qta.dqta import feedback_dqta, make_dqta
from qta.linalg import RANK_TOL, Operator
from qta.trace import (
    BlockMap,
    _blocks,
    kernel_image_trace,
    kleene_feedback,
    schur_feedback,
)

EPS = np.finfo(float).eps

# every (side, u) with side = u + l up to 12, u from 0 to side - 1
SPLITS = [(side, u) for side in range(2, 13) for u in range(side)]
DRAWS = 200
COMPLEX_DRAWS = 60
# kleene_feedback is checked where its steps are few enough to finish:
# loop spectral radius at most 1 - KLEENE_GAP
KLEENE_GAP = 1e-3


def tolerance(f, u, k, l, h=1):
    """16 eps kappa, kappa of I - A over the singular values above the
    library's rank cutoff, for f: H (x) (U (+) K) -> H (x) (U (+) L)."""
    if u == 0:
        return 16 * EPS
    loop = _blocks(f, h, u, k, l)[0]
    s = np.linalg.svd(np.eye(h * u) - loop, compute_uv=False)
    kept = s[s > RANK_TOL * s[0]]
    return 16 * EPS * (kept[0] / kept[-1] if kept.size else 1.0)


def kleene_allowance(f, u, k, l, steps):
    """What kleene_feedback's own rounding adds after steps + 1 steps, to
    first order: (steps + 1) eps (1 + 2 |X|), X = (I - A)^-1 C.

    The partial sums are D + B (I - A^(n+1)) X, with B and A blocks of an
    isometry, so their entries have modulus at most 1 + 2 |X|; each step
    adds a rounded increment to them, at most eps/2 of that.  Each step
    also rounds the walk B A^n, of norm at most 1, by about eps/2 of it,
    and that error reaches the sum through the later partial sums of
    A^m C, of norm at most 2 |X|.
    """
    if u == 0:
        return 0.0
    a, _, c, _ = _blocks(f, 1, u, k, l)
    x = np.linalg.norm(np.linalg.solve(np.eye(u) - a, c), 2)
    return (steps + 1) * EPS * (1 + 2 * x)


def cayley_draw(index, max_side=12, h=1):
    """(f, u, k, l): the leading columns of a seeded Cayley draw of side
    h (u + l), cycling through every split of SPLITS up to max_side."""
    splits = [(side, u) for side, u in SPLITS if side <= max_side]
    side, u = splits[index % len(splits)]
    rng = random.Random(index)
    l = side - u
    k = rng.randint(1, l)
    q = exact.cayley(h * side, rng)
    keep = [a * side + p for a in range(h) for p in range(u + k)]
    return [[row[c] for c in keep] for row in q], u, k, l


def complex_draw(index):
    """(re, im, u, k, l): cayley_draw(index) with its rows and columns
    turned by seeded Gaussian-rational unit phases, a complex isometry."""
    f, u, k, l = cayley_draw(index)
    rng = random.Random(f"phases {index}")
    rows = [exact.unit_phase(rng) for _ in range(u + l)]
    re, im = exact.phased(f, rows, [exact.unit_phase(rng) for _ in range(u + k)])
    return re, im, u, k, l


def as_array(a):
    return np.array(exact.to_float(a))


# --------------------------------------------------------- the oracle alone

@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_cayley_draws_are_exactly_orthogonal(n):
    for seed in range(5):
        q = exact.cayley(n, random.Random(seed), spread=3)
        assert exact.matmul(exact.transpose(q, n), q, n) == exact.eye(n)
        assert exact.matmul(q, exact.transpose(q, n), n) == exact.eye(n)


@pytest.mark.parametrize("theta", [1e-3, 1e-5, 1e-8])
def test_theta_family_feedback_is_exactly_minus_one(theta):
    f = exact.theta_map(Fraction(str(theta)) / 2)
    assert exact.matmul(exact.transpose(f, 4), f, 4) == exact.eye(4)
    assert exact.feedback(f, 2, 2, 2) == [[-1, 0], [0, -1]]


def test_planted_kernel_stays_consistent():
    for seed in range(10):
        rng = random.Random(seed)
        r, u2, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        l = k + rng.randint(0, 2)
        w = [row[:u2 + k] for row in exact.cayley(u2 + l, rng)]
        f = exact.planted_kernel(r, w, u2, k, l)
        u = r + u2
        # the kernel direction rotation(1/2) e_0 of I - A, on no basis vector
        (c, _), (s, _) = exact.rotation(Fraction(1, 2))
        x = [[c if i == 0 else s if i == r else Fraction(0)] for i in range(u)]
        i_minus_a = [[int(i == j) - f[i][j] for j in range(u)] for i in range(u)]
        assert exact.matmul(i_minus_a, x, 1) == exact.zeros(u, 1)
        want = exact.feedback(w, u2, k, l)
        assert exact.feedback(f, u, k, l) == want
        op = as_array(f)
        out = schur_feedback(BlockMap(Operator(op), u, k, l)).mat
        assert np.max(np.abs(out - as_array(want))) <= tolerance(op, u, k, l)


def test_phased_draws_realify_to_exact_isometries():
    for index in range(0, COMPLEX_DRAWS, 7):
        re, im, u, k, l = complex_draw(index)
        r = exact.realify(re, im)
        assert exact.derealify(r) == (re, im)
        assert exact.matmul(exact.transpose(r, 2 * (u + k)), r, 2 * (u + k)) \
            == exact.eye(2 * (u + k))


def test_an_inconsistent_system_is_refused():
    # A = 1 with C != 0 is no isometry: C is not in ran(I - A) = 0
    with pytest.raises(AssertionError, match="not in ran"):
        exact.feedback([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
                       1, 1, 1)


# ------------------------------------------------- the library against it

def test_closed_form_and_kit_match_the_oracle_on_cayley_draws():
    # and kleene_feedback, where the loop's spectral radius leaves room
    seen, singular, kleene = set(), 0, 0
    for index in range(DRAWS):
        f, u, k, l = cayley_draw(index)
        seen.add((u + l, u))
        want, op = as_array(exact.feedback(f, u, k, l)), as_array(f)
        tol = tolerance(op, u, k, l)
        m = BlockMap(Operator(op), u, k, l)
        assert np.max(np.abs(schur_feedback(m).mat - want)) <= tol, index
        kit, _ = kernel_image_trace(m)
        assert np.max(np.abs(kit.mat - want)) <= tol, index
        if u and np.linalg.matrix_rank(np.eye(u) - op[:u, :u], tol=RANK_TOL) < u:
            singular += 1
        if max(np.abs(np.linalg.eigvals(op[:u, :u])), default=0.0) <= 1 - KLEENE_GAP:
            out, report = kleene_feedback(m)
            assert report.converged, index
            assert np.max(np.abs(out.mat - want)) <= tol + kleene_allowance(
                op, u, k, l, report.steps), index
            kleene += 1
    assert seen == set(SPLITS)
    assert singular >= 5  # exact loop kernels: the rank decision is exercised
    assert kleene >= 0.9 * DRAWS


def test_closed_form_matches_the_oracle_on_complex_draws():
    for index in range(COMPLEX_DRAWS):
        re, im, u, k, l = complex_draw(index)
        fb = exact.feedback(exact.realify(re, im), 2 * u, 2 * k, 2 * l)
        want_re, want_im = exact.derealify(fb)
        assert exact.realify(want_re, want_im) == fb  # a complex answer
        op = as_array(re) + 1j * as_array(im)
        out = schur_feedback(BlockMap(Operator(op), u, k, l)).mat
        want = as_array(want_re) + 1j * as_array(want_im)
        assert np.max(np.abs(out - want)) <= tolerance(op, u, k, l), index


def test_automaton_feedback_matches_the_oracle_at_two_states():
    for index in range(40):
        f, u, k, l = cayley_draw(index, max_side=6, h=2)
        op = as_array(f)
        out = feedback_dqta(make_dqta(2, u + k, u + l, Operator(op)), u)
        want = as_array(exact.feedback(f, u, k, l, h=2))
        assert np.max(np.abs(out.tau.mat - want)) <= tolerance(op, u, k, l, h=2), index


FLIPPED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 10: the rank cutoff drops the loop "
    "direction that B and C see, and the answer is +1 where it is -1")


@pytest.mark.parametrize("theta", [
    1e-3, 1e-4, 2e-5,
    pytest.param(1.5e-5, marks=FLIPPED),
    pytest.param(1e-5, marks=FLIPPED),
    pytest.param(1e-6, marks=FLIPPED),
])
def test_theta_table_against_the_oracle(theta):
    # I - A has singular values 1 - cos and 8/5 exactly, so kappa is
    # exact here; below theta = 1e-6, 16 eps kappa nears 1 and says nothing
    t = Fraction(str(theta)) / 2
    kappa = Fraction(8, 5) / (1 - exact.rotation(t)[0][0])
    out = schur_feedback(BlockMap(Operator(as_array(exact.theta_map(t))), 2, 2, 2))
    assert np.max(np.abs(out.mat + np.eye(2))) <= 16 * EPS * float(kappa)
