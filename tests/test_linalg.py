import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qta.cli import build_cell
from qta.dqta import Dqta, cascade, feedback_dqta, turing_tensor
from qta.linalg import (
    GRAM_BLOCK,
    RANK_TOL,
    Operator,
    ShapeError,
    adjoint,
    carried,
    dsum,
    gather,
    identity,
    isometry_defect,
    kron,
    monomial,
    mp_inverse,
    op_distance,
    owned,
    random_isometry,
    sum_swap,
    summand_index,
    tensor_swap,
    unitary_defect,
    zeros,
)
from qta.trace import (
    BlockMap,
    kernel_image_trace,
    kleene_feedback,
    schur_feedback,
)


def rand_op(rng, rows, cols):
    return Operator((rng.standard_normal((rows, cols))
                     + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2))


# ---------------------------------------------------------------- Operator

def test_operator_validation():
    with pytest.raises(ShapeError):
        Operator([1, 2, 3])
    with pytest.raises(ValueError):
        Operator([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        Operator([[np.inf]])
    op = Operator([[1, 2], [3, 4], [5, 6]])
    assert op.rows == 3 and op.cols == 2


def test_operator_is_read_only():
    op = Operator([[1.0]])
    with pytest.raises(ValueError):
        op.mat[0, 0] = 2.0


def _dense_dqta(seed):
    return Dqta(2, 2, 2, random_isometry(4, 4, seed))


# every internal construction site on dense operands
INTERNAL_RESULTS = {
    "adjoint": lambda: adjoint(random_isometry(3, 2, 1)),
    "kron": lambda: kron(random_isometry(2, 2, 1), random_isometry(3, 2, 2)),
    "dsum": lambda: dsum(random_isometry(2, 2, 1), random_isometry(3, 2, 2)),
    "gather": lambda: gather(random_isometry(3, 2, 1), [2, 0, 1], [1, 0]),
    "mp_inverse-lu": lambda: mp_inverse(random_isometry(3, 3, 1)),
    "mp_inverse-svd": lambda: mp_inverse(random_isometry(3, 2, 1)),
    "schur_feedback": lambda: schur_feedback(
        BlockMap(random_isometry(4, 3, 1), 1, 2, 3)),
    "kernel_image_trace": lambda: kernel_image_trace(
        BlockMap(random_isometry(4, 3, 1), 1, 2, 3))[0],
    "kleene_feedback": lambda: kleene_feedback(
        BlockMap(random_isometry(4, 3, 1), 1, 2, 3))[0],
    "cascade": lambda: cascade(_dense_dqta(1), _dense_dqta(2)).tau,
    "turing_tensor": lambda: turing_tensor(_dense_dqta(1), _dense_dqta(2)).tau,
    "feedback_dqta": lambda: feedback_dqta(_dense_dqta(1), 1).tau,
    "random_isometry": lambda: random_isometry(3, 2, 1),
}


@pytest.mark.parametrize("site", sorted(INTERNAL_RESULTS))
def test_internal_results_are_read_only(site):
    out = INTERNAL_RESULTS[site]()
    assert out.form is None
    assert not out.mat.flags.writeable


def test_user_input_is_copied_and_left_writable():
    arr = random_isometry(8, 8, 3).mat.copy()
    before = arr.copy()
    op = Operator(arr)
    cell = build_cell(2, 1, rule=arr)
    assert arr.flags.writeable and np.array_equal(arr, before)
    assert not np.shares_memory(op.mat, arr)
    assert not np.shares_memory(cell.tau.mat, arr)


# ----------------------------------------------------------------- adjoint

def test_adjoint_examples():
    assert adjoint(Operator([[1j]])).mat[0, 0] == -1j
    p = sum_swap(2, 3)
    assert np.allclose(adjoint(p).mat, p.mat.T)
    rng = np.random.default_rng(2)
    f = rand_op(rng, 3, 4)
    assert op_distance(adjoint(adjoint(f)), f) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjoint_reverses_composition(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(1, 5, size=3)
    f = rand_op(rng, b, a)
    g = rand_op(rng, c, b)
    lhs = adjoint(Operator(g.mat @ f.mat))
    rhs = Operator(adjoint(f).mat @ adjoint(g).mat)
    assert op_distance(lhs, rhs) <= 1e-12



def test_op_distance_rejects_operators_of_different_shapes():
    with pytest.raises(ShapeError) as err:
        op_distance(identity(2), identity(3))
    assert str(err.value) == "cannot compare 2x2 with 3x3"

# ------------------------------------------------------------- kron / dsum

def test_kron_identities():
    assert op_distance(kron(identity(2), identity(3)), identity(6)) == 0.0
    rng = np.random.default_rng(3)
    g = rand_op(rng, 2, 2)
    assert op_distance(kron(Operator([[2]]), g), Operator(2 * g.mat)) == 0.0


def test_kron_of_isometries_is_isometry():
    for seed in range(5):
        f = random_isometry(4, 2, seed)
        g = random_isometry(3, 3, seed + 100)
        assert isometry_defect(kron(f, g)) <= 1e-12


def test_dsum_identities():
    assert op_distance(dsum(Operator([[1]]), Operator([[1]])), identity(2)) == 0.0
    rng = np.random.default_rng(4)
    f = rand_op(rng, 2, 3)
    assert op_distance(dsum(f, zeros(0, 0)), f) == 0.0
    assert op_distance(dsum(zeros(0, 0), f), f) == 0.0


def test_dsum_of_isometries_is_isometry():
    f = random_isometry(4, 2, 0)
    g = random_isometry(3, 1, 1)
    assert isometry_defect(dsum(f, g)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kron_and_dsum_functorial(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d, e, f6 = rng.integers(1, 4, size=6)
    f = rand_op(rng, b, a)
    f2 = rand_op(rng, c, b)
    g = rand_op(rng, e, d)
    g2 = rand_op(rng, f6, e)
    lhs = Operator(kron(f2, g2).mat @ kron(f, g).mat)
    rhs = kron(Operator(f2.mat @ f.mat), Operator(g2.mat @ g.mat))
    assert op_distance(lhs, rhs) <= 1e-12
    lhs = Operator(dsum(f2, g2).mat @ dsum(f, g).mat)
    rhs = dsum(Operator(f2.mat @ f.mat), Operator(g2.mat @ g.mat))
    assert op_distance(lhs, rhs) <= 1e-12


# ---------------------------------------------------------------- symmetry

def test_tensor_swap_examples():
    assert op_distance(tensor_swap(1, 5), identity(5)) == 0.0
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1
    expected[2, 1] = expected[1, 2] = 1  # standard 2-qubit SWAP
    assert np.allclose(tensor_swap(2, 2).mat, expected)


def test_tensor_swap_involution():
    for m, n in [(2, 3), (4, 1), (3, 3), (0, 2)]:
        p = Operator(tensor_swap(n, m).mat @ tensor_swap(m, n).mat)
        assert op_distance(p, identity(m * n)) == 0.0


def test_tensor_swap_acts_on_kron():
    # swap o (f kron g) o swap = g kron f for unitary swaps
    rng = np.random.default_rng(5)
    f = rand_op(rng, 2, 2)
    g = rand_op(rng, 3, 3)
    p = tensor_swap(2, 3)
    conj = p.mat @ kron(f, g).mat @ tensor_swap(3, 2).mat
    assert np.allclose(conj, kron(g, f).mat)


def test_sum_swap_examples():
    assert np.allclose(sum_swap(1, 1).mat, [[0, 1], [1, 0]])
    assert op_distance(sum_swap(3, 0), identity(3)) == 0.0
    assert op_distance(sum_swap(0, 3), identity(3)) == 0.0
    p = Operator(sum_swap(3, 2).mat @ sum_swap(2, 3).mat)
    assert op_distance(p, identity(5)) == 0.0


def test_sum_swap_block_layout():
    p = sum_swap(2, 1).mat
    assert np.allclose(p, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])


# ----------------------------------------------------------- summand_index

@pytest.mark.parametrize("h, dims, orders, expected", [
    # one state: the distributivity layout is the identity
    (1, [2, 3], [[0], [1]], np.eye(5)),
    # blocks [a | b0 b1 | c] listed as [b, c, a]
    (1, [1, 2, 1], [[1, 2, 0]],
     [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]),
    # distributivity, h=2 over [1, 1]:
    # (0,a),(0,b),(1,a),(1,b) -> (0,a),(1,a),(0,b),(1,b)
    (2, [1, 1], [[0], [1]],
     [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
], ids=["trivial", "block-reorder", "distribute"])
def test_summand_index_layout(h, dims, orders, expected):
    index = np.concatenate([summand_index(h, dims, o) for o in orders])
    assert np.array_equal(np.sort(index), np.arange(len(index)))
    assert np.array_equal(np.eye(len(index))[index], expected)


# ------------------------------------------------------------- mp_inverse

def penrose_residuals(f, plus):
    a, p = f.mat, plus.mat
    return max(
        float(np.max(np.abs(a @ p @ a - a))) if a.size else 0.0,
        float(np.max(np.abs(p @ a @ p - p))) if a.size else 0.0,
        float(np.max(np.abs((a @ p).conj().T - a @ p))) if a.size else 0.0,
        float(np.max(np.abs((p @ a).conj().T - p @ a))) if a.size else 0.0,
    )


def test_mp_inverse_diagonal():
    out = mp_inverse(Operator([[0, 0], [0, 2]]))
    assert np.allclose(out.mat, [[0, 0], [0, 0.5]])


def test_mp_inverse_identity():
    assert op_distance(mp_inverse(identity(4)), identity(4)) <= 1e-14


def test_mp_inverse_column_vector():
    f = Operator([[1], [1]])
    plus = mp_inverse(f)
    assert np.allclose(plus.mat, [[0.5, 0.5]])
    assert penrose_residuals(f, plus) <= 1e-12


def test_mp_inverse_zero_and_empty():
    assert op_distance(mp_inverse(zeros(3, 2)), zeros(2, 3)) == 0.0
    assert mp_inverse(zeros(0, 4)).mat.shape == (4, 0)


def test_mp_inverse_penrose_conditions_200_instances():
    rng = np.random.default_rng(7)
    for i in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        if i % 3 == 0:
            # force rank deficiency through a thin factorization
            r = int(rng.integers(1, min(rows, cols) + 1))
            a = rand_op(rng, rows, r)
            b = rand_op(rng, r, cols)
            f = Operator(a.mat @ b.mat)
        else:
            f = rand_op(rng, rows, cols)
        assert penrose_residuals(f, mp_inverse(f)) <= 1e-9


def test_mp_inverse_commutes_with_unitary_conjugation():
    rng = np.random.default_rng(8)
    for i in range(20):
        n = int(rng.integers(1, 7))
        m = rand_op(rng, n, n)
        s = random_isometry(n, n, int(rng.integers(0, 2**31)))
        lhs = mp_inverse(Operator(s.mat @ m.mat @ s.mat.conj().T))
        rhs = Operator(s.mat @ mp_inverse(m).mat @ s.mat.conj().T)
        assert op_distance(lhs, rhs) <= 1e-9


def test_mp_inverse_respects_kron_with_identity():
    rng = np.random.default_rng(9)
    for i in range(20):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, rows + 1))
        m = int(rng.integers(1, 4))
        sigma = random_isometry(rows, cols, int(rng.integers(0, 2**31)))
        lhs = mp_inverse(kron(sigma, identity(m)))
        rhs = kron(mp_inverse(sigma), identity(m))
        assert op_distance(lhs, rhs) <= 1e-9


def svd_inverse(f, tol=RANK_TOL):
    """The SVD pseudoinverse formula, kept as the reference for mp_inverse."""
    if f.mat.size == 0:
        return np.zeros((f.cols, f.rows), dtype=complex)
    u, s, vh = np.linalg.svd(f.mat, full_matrices=False)
    if s[0] <= 0.0:
        return np.zeros((f.cols, f.rows), dtype=complex)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > tol * s[0])
    return (vh.conj().T * inv) @ u.conj().T


def loop_gap(isometry, u):
    """I - A for the leading u x u loop block A of an isometry."""
    return Operator(np.eye(u) - isometry.mat[:u, :u])


def rotated_theta_gap(theta):
    """I - A for the loop block of the theta family: A is diag(cos theta,
    -1/2) turned by a fixed rotation, so sigma_min / sigma_max of I - A
    is about theta^2 / 3 and I - A is not diagonal."""
    c, s = np.cos(0.6), np.sin(0.6)
    q = np.array([[c, -s], [s, c]])
    return Operator(np.eye(2) - q @ np.diag([np.cos(theta), -0.5]) @ q.T)


@pytest.mark.parametrize("side", [1, 2, 5, 12, 512])
def test_mp_inverse_fast_path_matches_svd_on_haar_loop_blocks(side):
    for seed in range(3 if side < 512 else 1):
        f = loop_gap(random_isometry(2 * side, side, 100 * side + seed), side)
        out = mp_inverse(f).mat
        assert np.array_equal(out, np.linalg.inv(f.mat))  # the fast path ran
        assert np.max(np.abs(out - svd_inverse(f))) <= 1e-12


@pytest.mark.parametrize("theta", [1e-3, 1e-4, 5e-5, 2e-5, 1.5e-5, 1e-5])
def test_mp_inverse_keeps_the_svd_rank_decision_near_the_cutoff(theta):
    f = rotated_theta_gap(theta)
    s = np.linalg.svd(f.mat, compute_uv=False)
    out = mp_inverse(f).mat
    assert np.linalg.matrix_rank(out, tol=1e-3) == np.count_nonzero(s > RANK_TOL * s[0])
    if s[-1] < 2 * RANK_TOL * s[0]:
        # kappa_hat >= kappa_2 > 1 / (2 tol): the certificate must refuse
        assert np.array_equal(out, svd_inverse(f))


def test_mp_inverse_exactly_singular_and_non_square_inputs_use_svd():
    rng = np.random.default_rng(11)
    cases = [zeros(3, 3), zeros(0, 0), zeros(0, 4), zeros(3, 2),
             Operator([[1, 1], [1, 1]]),  # no zero row; LU hits a zero pivot
             rand_op(rng, 3, 5), rand_op(rng, 6, 2)]
    for f in cases:
        assert np.array_equal(mp_inverse(f).mat, svd_inverse(f))


def test_mp_inverse_deflates_exactly_zero_rows_and_columns():
    rng = np.random.default_rng(11)
    off_row = rand_op(rng, 4, 3).mat.copy()
    off_row[2] = 0.0
    off_col = rand_op(rng, 3, 3).mat.copy()
    off_col[:, 1] = 0.0
    cases = [Operator([[0, 1], [0, 0]]),  # zero row 1, zero column 0
             Operator(off_col), Operator(off_row)]
    for i in range(20):
        # loop block identity(r) (+) W, as in the kernel census
        r, u2 = int(rng.integers(1, 3)), int(rng.integers(0, 4))
        k = int(rng.integers(1, 5))
        kernel_map = dsum(identity(r), random_isometry(u2 + k, u2 + k, 300 + i))
        cases.append(loop_gap(kernel_map, r + u2))
    for f in cases:
        rows = np.flatnonzero(np.any(f.mat != 0, axis=1))
        cols = np.flatnonzero(np.any(f.mat != 0, axis=0))
        expected = np.zeros((f.cols, f.rows), dtype=complex)
        expected[np.ix_(cols, rows)] = mp_inverse(
            Operator(f.mat[np.ix_(rows, cols)])).mat
        out, reference = mp_inverse(f).mat, svd_inverse(f)
        assert np.array_equal(out, expected)
        assert np.max(np.abs(out - reference)) <= 1e-12
        assert (np.linalg.matrix_rank(out, tol=1e-3)
                == np.linalg.matrix_rank(reference, tol=1e-3))
    assert np.array_equal(mp_inverse(cases[0]).mat, [[0, 0], [1, 0]])


# ----------------------------------------------------------- defect checks

def test_isometry_defect_examples():
    assert isometry_defect(identity(4)) == 0.0
    assert isometry_defect(Operator([[1], [1]])) == pytest.approx(1.0)
    assert isometry_defect(sum_swap(2, 3)) == 0.0
    assert isometry_defect(zeros(3, 0)) == 0.0


def test_unitary_defect():
    assert unitary_defect(tensor_swap(2, 2)) == 0.0
    with pytest.raises(ShapeError):
        unitary_defect(zeros(2, 1))
    # isometry that is not unitary would fail the square check before this
    f = Operator(np.diag([1.0, 0.5]))
    assert unitary_defect(f) == pytest.approx(0.75)


def full_gram_defect(f):
    """max|f^dagger f - I| from the one full gram product."""
    g = f.mat.conj().T @ f.mat
    g.reshape(-1)[::f.cols + 1] -= 1.0
    return float(np.abs(g).max())


@pytest.mark.parametrize("cols", [GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1,
                                  2 * GRAM_BLOCK + 3, 300])
@pytest.mark.parametrize("extra_rows", [0, 37])
def test_blocked_gram_matches_the_full_product(cols, extra_rows):
    f = random_isometry(cols + extra_rows, cols, cols)
    skew = f.mat.copy()
    # gram entry (cols - 2, 1), row in the last block and column in the first,
    # is formed; its conjugate above the diagonal is not: column cols - 2
    # takes 1e-6 column 1
    skew[:, cols - 2] += 1e-6 * skew[:, 1]
    diag = f.mat.copy()
    diag[:, cols - 1] *= 1.0 + 1e-6  # the last block's diagonal
    cases = [(f, 0.0), (owned(skew), 1e-6), (owned(diag), 2e-6 + 1e-12)]
    for op, expected in cases:
        defect, reference = isometry_defect(op), full_gram_defect(op)
        assert defect == pytest.approx(expected, abs=1e-12)
        if cols <= GRAM_BLOCK:
            assert defect == reference
        else:
            assert abs(defect - reference) <= 1e-15


@pytest.mark.parametrize("cols", [5, 300])
def test_an_operator_into_zero_dimensions_has_defect_one(cols):
    assert isometry_defect(zeros(0, cols)) == full_gram_defect(zeros(0, cols)) == 1.0


def test_blocked_gram_never_holds_a_full_gram():
    f = random_isometry(512, 512, 4)
    tracemalloc.start()
    try:
        isometry_defect(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below one full gram, cols^2 complex entries, so also without a
    # conjugate copy of the whole of f
    assert peak < 16 * f.cols ** 2


# --------------------------------------------------------- random_isometry

def test_random_isometry_edges():
    assert random_isometry(3, 0, 0).mat.shape == (3, 0)
    z = random_isometry(1, 1, 42).mat[0, 0]
    assert abs(abs(z) - 1.0) <= 1e-12
    with pytest.raises(ShapeError):
        random_isometry(2, 3, 0)


def test_random_isometry_deterministic():
    a = random_isometry(5, 3, 123)
    b = random_isometry(5, 3, 123)
    assert np.array_equal(a.mat, b.mat)
    c = random_isometry(5, 3, 124)
    assert not np.allclose(a.mat, c.mat)


def test_random_isometry_defect():
    for seed in range(10):
        f = random_isometry(6, 4, seed)
        assert isometry_defect(f) <= 1e-12
        u = random_isometry(5, 5, seed)
        assert unitary_defect(u) <= 1e-12


# ------------------------------------------------------------ carried forms

def random_monomial(rng, rows, cols, phased=True):
    """A carried form on distinct random targets, with random unit phases
    (all 1 unless phased)."""
    phase = np.exp(2j * np.pi * rng.random(cols)) if phased else None
    return monomial(rows, rng.permutation(rows)[:cols], phase)


def dense(f):
    """The same operator without its carried form."""
    return Operator(f.mat)


def test_operator_built_from_entries_carries_no_form():
    assert Operator(np.eye(3)).form is None


def test_identity_and_swaps_carry_their_dense_matrices():
    assert np.array_equal(identity(4).mat, np.eye(4))
    assert np.array_equal(sum_swap(2, 3).mat, np.eye(5)[[2, 3, 4, 0, 1]])
    assert np.array_equal(tensor_swap(2, 3).mat, np.eye(6)[[0, 3, 1, 4, 2, 5]])
    for f in (identity(4), sum_swap(2, 3), tensor_swap(2, 3), identity(0)):
        assert f.form is not None
        assert not f.mat.flags.writeable


@pytest.mark.parametrize("seed", range(8))
def test_carried_forms_match_the_dense_operations(seed):
    rng = np.random.default_rng(seed)
    f, g = random_monomial(rng, 5, 3), random_monomial(rng, 4, 4, seed % 2)
    rows, cols = rng.permutation(5), rng.permutation(3)[:2]
    pairs = [(kron(f, g), kron(dense(f), dense(g))),
             (dsum(f, g), dsum(dense(f), dense(g))),
             (adjoint(g), adjoint(dense(g))),
             (gather(f, rows, cols), gather(dense(f), rows, cols))]
    for out, ref in pairs:
        assert out.form is not None and ref.form is None
        assert np.array_equal(out.mat, ref.mat)
    assert adjoint(f).form is None  # not square: no form
    assert np.array_equal(adjoint(f).mat, adjoint(dense(f)).mat)
    for op in (f, g):
        assert abs(isometry_defect(op) - isometry_defect(dense(op))) <= 1e-15
    assert abs(unitary_defect(g) - unitary_defect(dense(g))) <= 1e-15
    scaled = monomial(3, [2, 0, 1], [1.5, -1.0, 1j])
    assert isometry_defect(scaled) == isometry_defect(dense(scaled)) == 1.25


def test_carried_detects_monomials_exactly():
    mat = np.array([[0, -1j, 0], [0, 0, 0], [0.6 - 0.8j, 0, 0], [0, 0, 1]])
    f = carried(mat)
    assert f.form is not None
    assert f.form[0].tolist() == [2, 0, 3]
    again = monomial(4, *f.form).mat
    assert np.array_equal(again.view(np.int64), mat.astype(complex).view(np.int64))
    extra = mat.astype(complex)
    extra[1, 0] = 1e-300
    repeated = np.array([[1.0, 1.0], [0.0, 0.0]])
    negative_zero = mat.astype(complex)
    negative_zero[1, 1] = complex(-0.0, 0.0)
    for m in (extra, repeated, negative_zero, np.zeros((2, 2)), np.zeros((0, 3))):
        assert carried(m).form is None
        assert np.array_equal(carried(m).mat, m)
