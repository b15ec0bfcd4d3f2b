import numpy as np
import pytest

from qta.linalg import (
    ISOMETRY_TOL,
    IsometryError,
    Operator,
    ShapeError,
    adjoint,
    identity,
    isometry_defect,
    kron,
    op_distance,
    random_isometry,
    summand_index,
    unitary_defect,
)
from qta.trace import BlockMap, schur_feedback
from test_linalg import dense, random_monomial
from test_trace import theta_blockmap
from qta.dqta import (
    Dqta,
    UnitaryDqta,
    cascade,
    dagger_dqta,
    feedback_dqta,
    make_dqta,
    make_unitary_dqta,
    turing_tensor,
    unit_automata,
    witnessed_distance,
)

TOL = 1e-8


def rand_dqta(h, k, l, seed):
    return make_dqta(h, k, l, random_isometry(h * l, h * k, seed))


def rand_unitary_dqta(h, k, seed):
    return make_unitary_dqta(h, k, random_isometry(h * k, h * k, seed))


# ------------------------------------------------------------ construction

def test_make_identity_automaton():
    t = make_dqta(1, 3, 3, identity(3))
    assert (t.h, t.k, t.l) == (1, 3, 3)
    assert op_distance(t.tau, identity(3)) == 0.0


def test_make_random_unitary_automaton():
    t = make_dqta(2, 2, 2, random_isometry(4, 4, seed=7))
    assert isometry_defect(t.tau) <= 1e-12


def test_make_rejects_non_isometry():
    with pytest.raises(IsometryError) as info:
        make_dqta(1, 1, 2, Operator([[1], [1]]))
    assert info.value.defect == pytest.approx(1.0)


def test_make_rejects_bad_shape():
    with pytest.raises(ShapeError):
        make_dqta(2, 2, 2, identity(3))


def test_unitary_dqta_needs_square_interfaces():
    with pytest.raises(ShapeError):
        UnitaryDqta(1, 1, 2, Operator([[1], [0]]))
    with pytest.raises(IsometryError):
        make_unitary_dqta(1, 2, Operator([[1, 0], [1, 1]]))


@pytest.mark.parametrize("h, k, l", [(0, 1, 1), (1, -1, 1), (1, 1, -2)])
def test_bad_dims_are_rejected_with_their_message(h, k, l):
    with pytest.raises(ShapeError) as err:
        Dqta(h, k, l, identity(1))
    assert str(err.value) == ("state dim must be positive and interfaces "
                              f"nonnegative, got h={h}, k={k}, l={l}")


# ----------------------------------------------------------------- cascade

def test_cascade_stateless_is_composition():
    a = random_isometry(3, 3, seed=1)
    b = random_isometry(3, 3, seed=2)
    t = cascade(make_dqta(1, 3, 3, a), make_dqta(1, 3, 3, b))
    assert op_distance(t.tau, Operator(b.mat @ a.mat)) <= 1e-12


def test_cascade_unit_laws():
    t = rand_dqta(2, 3, 3, seed=5)
    ident = unit_automata(3, 3)[0]
    right = cascade(t, ident)
    left = cascade(ident, t)
    # the one-dimensional state factor is invisible in the flattened matrix
    assert op_distance(right.tau, t.tau) <= 1e-12
    assert op_distance(left.tau, t.tau) <= 1e-12
    assert witnessed_distance(right, t, identity(t.h)) <= ISOMETRY_TOL
    assert witnessed_distance(left, t, identity(t.h)) <= ISOMETRY_TOL


def test_cascade_associative_on_the_nose():
    t1 = rand_dqta(2, 2, 2, seed=11)
    t2 = rand_dqta(3, 2, 2, seed=12)
    t3 = rand_dqta(2, 2, 2, seed=13)
    lhs = cascade(cascade(t1, t2), t3)
    rhs = cascade(t1, cascade(t2, t3))
    assert lhs.h == rhs.h == 12
    assert op_distance(lhs.tau, rhs.tau) <= TOL


def test_cascade_interface_mismatch():
    with pytest.raises(ShapeError):
        cascade(rand_dqta(1, 2, 3, seed=0), rand_dqta(1, 2, 2, seed=1))


def test_cascade_preserves_isometry():
    for seed in range(20):
        t1 = rand_dqta(2, 2, 3, seed=100 + seed)
        t2 = rand_dqta(3, 3, 3, seed=200 + seed)
        assert isometry_defect(cascade(t1, t2).tau) <= TOL


# ----------------------------------------------------------- turing_tensor

def test_tensor_stateless_is_direct_sum():
    a = random_isometry(2, 2, seed=3)
    b = random_isometry(3, 2, seed=4)
    t = turing_tensor(make_dqta(1, 2, 2, a), make_dqta(1, 2, 3, b))
    expect = np.zeros((5, 4), dtype=complex)
    expect[:2, :2] = a.mat
    expect[2:, 2:] = b.mat
    assert op_distance(t.tau, Operator(expect)) == 0.0


def test_tensor_with_interface_free_automaton():
    t1 = rand_dqta(2, 2, 2, seed=8)
    t2 = make_unitary_dqta(3, 0, identity(0))
    t = turing_tensor(t1, t2)
    assert (t.h, t.k, t.l) == (6, 2, 2)
    # t1 acts on its own state factor, brought to the front by swaps
    from qta.linalg import tensor_swap
    expect = (kron(tensor_swap(3, 2), identity(2)).mat
              @ kron(identity(3), t1.tau).mat
              @ kron(tensor_swap(2, 3), identity(2)).mat)
    assert op_distance(t.tau, Operator(expect)) == 0.0


def test_tensor_preserves_isometry():
    for seed in range(20):
        t1 = rand_dqta(2, 1, 2, seed=300 + seed)
        t2 = rand_dqta(2, 2, 2, seed=400 + seed)
        assert isometry_defect(turing_tensor(t1, t2).tau) <= TOL


# ---------------------------------------------------------------- feedback

def test_feedback_yanking():
    for k in (1, 2, 3):
        sym = unit_automata(k, k)[1]
        t = feedback_dqta(sym, k)
        assert (t.h, t.k, t.l) == (1, k, k)
        assert op_distance(t.tau, identity(k)) <= 1e-12


def test_feedback_nothing_is_identity():
    t = rand_dqta(2, 3, 3, seed=21)
    out = feedback_dqta(t, 0)
    assert op_distance(out.tau, t.tau) <= 1e-12


def test_feedback_rotation():
    t = make_dqta(1, 2, 2, Operator([[0, -1], [1, 0]]))
    out = feedback_dqta(t, 1)
    assert op_distance(out.tau, Operator([[-1]])) <= 1e-12


def test_feedback_dim_check():
    with pytest.raises(ShapeError):
        feedback_dqta(rand_dqta(1, 2, 2, seed=0), 3)


def test_feedback_matches_blockmap_on_stateless():
    # with a one-dimensional state space the automaton feedback IS the
    # trace-module feedback: both run closed_form, dense or carried
    rng = np.random.default_rng(500)
    for seed in range(10):
        for op in (random_isometry(4, 3, seed=500 + seed),
                   random_monomial(rng, 4, 3)):
            out = feedback_dqta(make_dqta(1, 3, 4, op), 1)
            direct = schur_feedback(BlockMap(op, 1, 2, 3))
            assert (out.tau.form is None) == (op.form is None)
            assert np.array_equal(out.tau.mat, direct.mat)


def test_feedback_commutes_with_state_padding():
    # closing the loop on a machine that ignores its state equals tensoring
    # the closed loop with the identity on that state space
    for h in (2, 3):
        for seed in range(5):
            w = random_isometry(4, 3, seed=600 + 10 * h + seed)
            t = make_dqta(h, 3, 4, kron(identity(h), w))
            out = feedback_dqta(t, 1)
            expect = kron(identity(h), schur_feedback(BlockMap(w, 1, 2, 3)))
            assert op_distance(out.tau, expect) <= TOL


@pytest.mark.parametrize("theta", [1e-4, 1.5e-4])
def test_feedback_accepts_the_valid_theta_automaton(theta):
    # the input is unitary to 2e-16; the closed form's output defect
    # (9.2e-8 and 2.2e-8) is input-limited cancellation in I - A, which
    # no gate inside the algebra may turn into a rejection
    m = theta_blockmap(theta)
    t = make_unitary_dqta(1, 4, m.op)
    out = feedback_dqta(t, 2)
    assert np.array_equal(out.tau.mat, schur_feedback(m).mat)
    # unitarity travels in the type
    assert isinstance(out, UnitaryDqta)
    assert isinstance(cascade(t, t), UnitaryDqta)
    assert isinstance(turing_tensor(t, t), UnitaryDqta)
    assert type(feedback_dqta(rand_dqta(2, 3, 3, seed=22), 1)) is Dqta


def gather_feedback(t, u):
    """Reference feedback_dqta: gather the transition into the layout
    (H (x) U) (+) (H (x) rest) on both sides, then split the block map."""
    def loop_first(n):
        return np.concatenate([summand_index(t.h, [u, n - u], [j])
                               for j in (0, 1)])

    looped = Operator(t.tau.mat[np.ix_(loop_first(t.l), loop_first(t.k))])
    m = BlockMap(looped, t.h * u, t.h * (t.k - u), t.h * (t.l - u))
    return Dqta(t.h, t.k - u, t.l - u, schur_feedback(m))


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("k, l", [(1, 2), (2, 3), (3, 5), (0, 2), (3, 3)])
def test_feedback_slices_equal_the_gathered_block_map(h, k, l):
    # slicing the (h, l, h, k) view lists each block in the gather's
    # order, so the two agree bit for bit
    for seed in range(3):
        t = rand_dqta(h, k, l, seed=1000 * h + 10 * k + l + 100 * seed)
        for u in range(min(k, l) + 1):
            out = feedback_dqta(t, u)
            assert (out.h, out.k, out.l) == (h, k - u, l - u)
            assert np.array_equal(out.tau.mat, gather_feedback(t, u).tau.mat)


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("k, l", [(1, 2), (2, 3), (3, 5), (0, 2), (3, 3)])
def test_carried_forms_tensor_and_close_as_the_dense_code(h, k, l):
    rng = np.random.default_rng(100 * h + 10 * k + l)
    for phased in (False, True):
        t1 = Dqta(h, k, l, random_monomial(rng, h * l, h * k, phased))
        t2 = Dqta(2, l, l, random_monomial(rng, 2 * l, 2 * l, phased))
        out = turing_tensor(t1, t2)
        ref = turing_tensor(Dqta(h, k, l, dense(t1.tau)),
                            Dqta(2, l, l, dense(t2.tau)))
        assert out.tau.form is not None and ref.tau.form is None
        assert np.array_equal(out.tau.mat, ref.tau.mat)
        for u in range(min(k, l) + 1):
            closed = feedback_dqta(t1, u)
            ref = feedback_dqta(Dqta(h, k, l, dense(t1.tau)), u)
            assert closed.tau.form is not None
            assert op_distance(closed.tau, ref.tau) <= 1e-12
            if not phased:
                assert np.array_equal(closed.tau.mat, ref.tau.mat)


# ------------------------------------------------------------ trace axioms
# spot checks at small dims; the axioms module runs the full seeded suites

def test_naturality_in_input():
    for seed in range(5):
        u, kp, lp, kg = 2, 2, 2, 1
        f = rand_dqta(2, u + kp, u + lp, seed=700 + seed)
        g = rand_dqta(2, kg, kp, seed=800 + seed)
        ident_u = unit_automata(u, u)[0]
        lhs = feedback_dqta(cascade(turing_tensor(ident_u, g), f), u)
        rhs = cascade(g, feedback_dqta(f, u))
        assert lhs.h == rhs.h
        assert op_distance(lhs.tau, rhs.tau) <= TOL


def test_naturality_in_output():
    for seed in range(5):
        u, kp, lp, lg = 2, 2, 2, 3
        f = rand_dqta(2, u + kp, u + lp, seed=900 + seed)
        g = rand_dqta(2, lp, lg, seed=1000 + seed)
        ident_u = unit_automata(u, u)[0]
        lhs = feedback_dqta(cascade(f, turing_tensor(ident_u, g)), u)
        rhs = cascade(feedback_dqta(f, u), g)
        assert op_distance(lhs.tau, rhs.tau) <= TOL


def test_sliding_by_stateless_unitary():
    for seed in range(5):
        u, kp, lp = 2, 2, 3
        f = rand_dqta(2, u + kp, u + lp, seed=1100 + seed)
        s = make_unitary_dqta(1, u, random_isometry(u, u, seed=1200 + seed))
        ident_k = unit_automata(kp, kp)[0]
        ident_l = unit_automata(lp, lp)[0]
        lhs = feedback_dqta(cascade(f, turing_tensor(s, ident_l)), u)
        rhs = feedback_dqta(cascade(turing_tensor(s, ident_k), f), u)
        assert op_distance(lhs.tau, rhs.tau) <= TOL


def test_vanishing_joint_equals_nested():
    for seed in range(5):
        u, v, kp = 2, 1, 2
        f = rand_dqta(2, u + v + kp, u + v + kp, seed=1300 + seed)
        nested = feedback_dqta(feedback_dqta(f, u), v)
        joint = feedback_dqta(f, u + v)
        assert op_distance(nested.tau, joint.tau) <= TOL


def test_superposing():
    for seed in range(5):
        u, kp, lp = 2, 2, 2
        f = rand_dqta(2, u + kp, u + lp, seed=1400 + seed)
        g = rand_dqta(2, 2, 3, seed=1500 + seed)
        lhs = feedback_dqta(turing_tensor(f, g), u)
        rhs = turing_tensor(feedback_dqta(f, u), g)
        assert op_distance(lhs.tau, rhs.tau) <= TOL


# ----------------------------------------------------------- witness check

def test_witness_identity():
    t = rand_dqta(3, 2, 2, seed=31)
    assert witnessed_distance(t, t, identity(3)) <= ISOMETRY_TOL


def test_witness_conjugated_machine():
    t1 = rand_dqta(3, 2, 2, seed=32)
    sigma = random_isometry(3, 3, seed=33)
    moved = Operator(kron(sigma, identity(2)).mat @ t1.tau.mat
                     @ kron(adjoint(sigma), identity(2)).mat)
    t2 = make_dqta(3, 2, 2, moved)
    assert witnessed_distance(t1, t2, sigma) <= ISOMETRY_TOL
    assert witnessed_distance(t1, t2, identity(3)) > ISOMETRY_TOL


def test_witness_rejects_non_unitary():
    t = rand_dqta(2, 2, 2, seed=34)
    sigma = Operator([[1, 0], [1, 1]])
    assert witnessed_distance(t, t, sigma) > ISOMETRY_TOL
    # the law suite reads the distance itself, so it must carry the defect
    assert witnessed_distance(t, t, sigma) >= unitary_defect(sigma) > 0.5


def kron_witnessed_distance(t1, t2, sigma):
    """Reference witnessed_distance: conjugate by the dense matrices of
    sigma (x) I_l and sigma^dagger (x) I_k."""
    moved = (kron(sigma, identity(t1.l)).mat @ t1.tau.mat
             @ kron(adjoint(sigma), identity(t1.k)).mat)
    return max(unitary_defect(sigma), op_distance(Operator(moved), t2.tau))


@pytest.mark.parametrize("h, k, l", [(1, 2, 3), (2, 2, 2), (3, 1, 4),
                                     (4, 2, 3), (2, 0, 2), (3, 0, 1)])
def test_witness_view_equals_the_kron_conjugation(h, k, l):
    rng = np.random.default_rng(10 * h + k + 100 * l)
    t1 = rand_dqta(h, k, l, seed=int(rng.integers(1 << 30)))
    t2 = rand_dqta(h, k, l, seed=int(rng.integers(1 << 30)))
    for _ in range(3):
        sigma = random_isometry(h, h, seed=int(rng.integers(1 << 30)))
        for other in (t1, t2):
            assert abs(witnessed_distance(t1, other, sigma)
                       - kron_witnessed_distance(t1, other, sigma)) <= 1e-12
        # permutation witnesses, carried or not, move entries exactly
        perm = random_monomial(rng, h, h, phased=False)
        for sigma in (perm, dense(perm)):
            moved = Dqta(h, k, l, Operator(
                kron(perm, identity(l)).mat @ t1.tau.mat
                @ kron(adjoint(perm), identity(k)).mat))
            for other in (t1, t2, moved):
                assert (witnessed_distance(t1, other, sigma)
                        == kron_witnessed_distance(t1, other, sigma))
            assert witnessed_distance(t1, moved, sigma) == 0.0


def test_witness_shape_errors():
    t1 = rand_dqta(2, 2, 2, seed=35)
    t2 = rand_dqta(2, 2, 3, seed=36)
    with pytest.raises(ShapeError):
        witnessed_distance(t1, t2, identity(2))


def test_witness_that_is_not_square_is_infinitely_far():
    t1, t2 = rand_dqta(1, 2, 2, seed=37), rand_dqta(2, 2, 2, seed=38)
    assert witnessed_distance(t1, t2, Operator([[1.0], [0.0]])) == float("inf")



def test_witness_of_the_wrong_shape_is_rejected_with_its_message():
    t1, t2 = rand_dqta(1, 2, 2, seed=37), rand_dqta(2, 2, 2, seed=38)
    with pytest.raises(ShapeError) as err:
        witnessed_distance(t1, t2, identity(2))
    assert str(err.value) == "witness is 2x2, expected 2x1"

# ------------------------------------------------------------------ dagger

def test_dagger_involution():
    t = rand_unitary_dqta(2, 3, seed=41)
    back = dagger_dqta(dagger_dqta(t))
    assert op_distance(back.tau, t.tau) == 0.0


def test_dagger_of_identity():
    ident = unit_automata(2, 2)[0]
    assert op_distance(dagger_dqta(ident).tau, identity(2)) == 0.0


def test_dagger_rejects_non_unitary():
    with pytest.raises(ShapeError):
        dagger_dqta(rand_dqta(1, 2, 3, seed=42))
    with pytest.raises(IsometryError):
        dagger_dqta(Dqta(1, 2, 2, Operator([[1, 0], [1, 1]])))


def test_dagger_commutes_with_feedback():
    for seed in range(5):
        t = rand_unitary_dqta(2, 3, seed=1600 + seed)
        left = dagger_dqta(feedback_dqta(t, 1))
        right = feedback_dqta(dagger_dqta(t), 1)
        assert op_distance(left.tau, right.tau) <= TOL
