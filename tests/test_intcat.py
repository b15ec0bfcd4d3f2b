import tracemalloc

import numpy as np
import pytest

from qta import cli, intcat
from qta.linalg import (
    ISOMETRY_TOL,
    IsometryError,
    Operator,
    ShapeError,
    identity,
    kron,
    op_distance,
    random_isometry,
    sum_swap,
    tensor_swap,
    unitary_defect,
)
from qta.dqta import (
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
from qta.cli import build_cell, chain_cells, simulate, write_automaton
from qta.intcat import (
    Int0Morphism,
    Qta,
    _reorder,
    as_int0,
    bidirectionalize,
    canonical_trace,
    functor_image,
    int_compose,
    int_dagger,
    int_identity,
    int_symmetry,
    int_tensor,
    int_units,
    make_qta,
    name_of,
)
from qta.trace import closed_form

from test_linalg import random_monomial

TOL = 1e-8


def rand_int0(k, l, h, seed):
    n = h * (k + l)
    return Int0Morphism(h, k, l,
                        make_unitary_dqta(h, k + l, random_isometry(n, n, seed)).tau)


def rand_unitary(h, k, seed):
    return make_unitary_dqta(h, k, random_isometry(h * k, h * k, seed))


def same_morphism(f, g, tol=TOL):
    assert (f.src, f.dst) == (g.src, g.dst)
    assert f.h == g.h
    return op_distance(f.tau, g.tau) <= tol


# ----------------------------------------------------------------- the types

def test_qta_validation():
    q = make_qta(1, 2, sum_swap(1, 1))
    assert (q.h, q.n) == (1, 2)
    # the UnitaryDqta (h, n, n, tau) read undirected
    assert isinstance(q, UnitaryDqta)
    assert q.n == q.k == q.l
    assert repr(q).startswith("Qta(h=1, k=2, l=2, tau=")
    with pytest.raises(IsometryError):
        make_qta(1, 2, Operator([[1, 0], [1, 1]]))
    with pytest.raises(ShapeError):
        Qta(2, 2, identity(3))


def test_morphism_validation():
    with pytest.raises(ShapeError):
        Int0Morphism(1, 2, 2, rand_unitary(1, 3, seed=0).tau)
    # a 1 + 1 morphism with three outputs would lose a row under int_dagger
    with pytest.raises(ShapeError):
        Int0Morphism(1, 1, 1, random_isometry(3, 2, 0))


# each constructor with the (src, dst) of its result
CONSTRUCTORS = {
    "int_identity": (lambda: int_identity(2), (2, 2)),
    "int_symmetry": (lambda: int_symmetry(1, 2), (3, 3)),
    "int_compose": (lambda: int_compose(rand_int0(2, 1, 2, seed=26),
                                        rand_int0(1, 2, 1, seed=27)), (2, 2)),
    "int_tensor": (lambda: int_tensor(rand_int0(2, 1, 2, seed=26),
                                      rand_int0(1, 2, 1, seed=27)), (3, 3)),
    "int_dagger": (lambda: int_dagger(rand_int0(2, 1, 2, seed=26)), (1, 2)),
    "unit": (lambda: int_units(2)[0], (0, 4)),
    "counit": (lambda: int_units(2)[1], (4, 0)),
    "canonical_trace": (lambda: canonical_trace(rand_int0(2, 2, 1, seed=28), 1),
                        (1, 1)),
    "unname": (lambda: as_int0(make_qta(2, 3, random_isometry(6, 6, 29)), 1),
               (1, 2)),
    "as_int0": (lambda: as_int0(rand_unitary(2, 3, seed=30), 2), (2, 1)),
    "functor_image": (lambda: functor_image(rand_unitary(2, 2, seed=31)), (2, 2)),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_every_morphism_is_a_unitary_dqta_split_as_src_plus_dst(name):
    build, ranks = CONSTRUCTORS[name]
    f = build()
    assert type(f) is Int0Morphism and isinstance(f, UnitaryDqta)
    assert (f.src, f.dst) == ranks
    assert f.k == f.l == f.src + f.dst


def test_unit_and_counit_share_a_transition_but_not_a_split():
    d, e = int_units(1)
    assert d.tau is e.tau
    assert d != e
    assert repr(d) == "Int0Morphism(h=1, k=2, l=2, tau=Operator(2x2), src=0)"
    assert repr(e) == "Int0Morphism(h=1, k=2, l=2, tau=Operator(2x2), src=2)"


def test_a_morphism_is_written_and_simulated_as_its_dqta(tmp_path):
    f = rand_int0(2, 1, 2, seed=32)
    t = UnitaryDqta(f.h, f.k, f.l, f.tau)
    write_automaton(f, str(tmp_path / "f.json"))
    write_automaton(t, str(tmp_path / "t.json"))
    text = (tmp_path / "f.json").read_text()
    assert text == (tmp_path / "t.json").read_text()
    assert text.startswith('{"kind": "dqta", "h": 2, "k": 3, "l": 3, ')
    assert simulate(f, (1, 1), 3) == simulate(t, (1, 1), 3)


@pytest.mark.parametrize("build, message", [
    # a Qta is checked as the UnitaryDqta (h, n, n, tau)
    pytest.param(lambda: Qta(0, 1, identity(0)),
                 "state dim must be positive and interfaces nonnegative, "
                 "got h=0, k=1, l=1", id="Qta(0, 1)"),
    pytest.param(lambda: Qta(1, -1, identity(0)),
                 "state dim must be positive and interfaces nonnegative, "
                 "got h=1, k=-1, l=-1", id="Qta(1, -1)"),
    (lambda: Int0Morphism(1, -1, 2, rand_unitary(1, 1, seed=0).tau),
     "bad ranks -1, 2"),
    (lambda: as_int0(make_dqta(1, 1, 2, random_isometry(2, 1, 0)), 0),
     "need a square automaton, got 1 -> 2"),
    (lambda: as_int0(rand_unitary(1, 2, seed=0), 3),
     "forward rank 3 exceeds interface 2"),
    (lambda: as_int0(rand_unitary(1, 2, seed=0), -1),
     "forward rank -1 exceeds interface 2"),
])
def test_bad_dims_and_ranks_are_rejected_with_their_message(build, message):
    with pytest.raises(ShapeError) as err:
        build()
    assert str(err.value) == message


# ------------------------------------------------------------ category laws

def test_compose_unit_laws():
    f = rand_int0(2, 1, 2, seed=1)
    assert same_morphism(int_compose(f, int_identity(1)), f, tol=1e-12)
    assert same_morphism(int_compose(int_identity(2), f), f, tol=1e-12)


def test_compose_associative():
    f = rand_int0(2, 1, 2, seed=1)
    g = rand_int0(1, 2, 2, seed=2)
    h = rand_int0(2, 1, 3, seed=3)
    lhs = int_compose(int_compose(f, g), h)
    rhs = int_compose(f, int_compose(g, h))
    assert same_morphism(lhs, rhs)


def test_compose_middle_mismatch():
    with pytest.raises(ShapeError):
        int_compose(rand_int0(1, 2, 1, seed=4), rand_int0(1, 1, 1, seed=5))


def test_rank_zero_edge():
    z = int_identity(0)
    assert same_morphism(int_compose(z, z), z, tol=0.0)
    f = rand_int0(0, 0, 2, seed=6)
    out = int_compose(f, f)
    assert (out.src, out.dst) == (0, 0)


# ------------------------------------------------------- compact structure

def test_triangle_identities():
    for a in (1, 2, 3):
        d, e = int_units(a)
        ia = int_identity(a)
        t1 = int_compose(int_tensor(d, ia), int_tensor(ia, e))
        t2 = int_compose(int_tensor(ia, d), int_tensor(e, ia))
        assert same_morphism(t1, ia)
        assert same_morphism(t2, ia)


def test_unit_counit_coherences():
    for a in (1, 2):
        d, e = int_units(a)
        c = int_symmetry(a, a)
        assert same_morphism(int_compose(d, c), d, tol=1e-12)
        assert same_morphism(int_compose(c, e), e, tol=1e-12)
        # the dual of the counit is the unit, exactly
        assert same_morphism(int_dagger(e), d, tol=0.0)
        assert same_morphism(int_dagger(d), e, tol=0.0)


def test_unit_of_compound_rank():
    # bending up a compound wire = bending up the pieces, then routing the
    # middle copies past each other
    for ra, rb in ((1, 1), (1, 2), (2, 1)):
        d_a, _ = int_units(ra)
        d_b, _ = int_units(rb)
        d_ab, _ = int_units(ra + rb)
        mid = int_tensor(int_tensor(int_identity(ra), int_symmetry(ra, rb)),
                         int_identity(rb))
        assert same_morphism(int_compose(int_tensor(d_a, d_b), mid), d_ab)


def test_symmetry_inverse_and_dual():
    c = int_symmetry(1, 2)
    assert same_morphism(int_compose(c, int_symmetry(2, 1)), int_identity(3))
    assert same_morphism(int_dagger(c), int_symmetry(2, 1), tol=0.0)


# ------------------------------------------------------------------- dagger

def test_dagger_involution_exact():
    f = rand_int0(2, 1, 2, seed=7)
    assert same_morphism(int_dagger(int_dagger(f)), f, tol=0.0)
    assert same_morphism(int_dagger(int_identity(2)), int_identity(2), tol=0.0)


def test_dagger_contravariant_up_to_state_reordering():
    f = rand_int0(2, 1, 2, seed=8)
    g = rand_int0(1, 2, 3, seed=9)
    lhs = int_dagger(int_compose(f, g))
    rhs = int_compose(int_dagger(g), int_dagger(f))
    assert witnessed_distance(lhs, rhs, tensor_swap(2, 3)) <= ISOMETRY_TOL


# ------------------------------------------------------------------- tensor

def test_tensor_units():
    f = rand_int0(2, 1, 2, seed=10)
    assert same_morphism(int_tensor(f, int_identity(0)), f, tol=0.0)
    assert same_morphism(int_tensor(int_identity(0), f), f, tol=0.0)
    assert same_morphism(int_tensor(int_identity(1), int_identity(2)),
                         int_identity(3), tol=0.0)


def test_tensor_bifunctorial_up_to_state_reordering():
    f = rand_int0(1, 1, 2, seed=11)
    f2 = rand_int0(2, 1, 3, seed=12)
    g = rand_int0(1, 2, 2, seed=13)
    g2 = rand_int0(1, 1, 2, seed=14)
    lhs = int_compose(int_tensor(f, f2), int_tensor(g, g2))
    rhs = int_tensor(int_compose(f, g), int_compose(f2, g2))
    sigma = kron(kron(identity(2), tensor_swap(3, 2)), identity(2))
    assert witnessed_distance(lhs, rhs, sigma) <= ISOMETRY_TOL


# ---------------------------------------------------------- canonical trace

def test_canonical_trace_of_nothing():
    f = rand_int0(2, 1, 2, seed=15)
    assert same_morphism(canonical_trace(f, 0), f, tol=1e-12)


def test_canonical_trace_yanking():
    for u in (1, 2):
        out = canonical_trace(int_symmetry(u, u), u)
        assert same_morphism(out, int_identity(u))


def test_canonical_trace_rank_check():
    with pytest.raises(ShapeError):
        canonical_trace(rand_int0(1, 1, 1, seed=16), 2)


# ------------------------------------------------------------ names and QTA

def test_name_of_identity():
    q = name_of(int_identity(2))
    assert (q.h, q.n) == (1, 4)
    assert op_distance(q.tau, sum_swap(2, 2)) == 0.0


def test_unname_inverts_name():
    # as_int0 reads a name back as the morphism it names
    f = rand_int0(2, 1, 2, seed=17)
    back = as_int0(name_of(f), f.src)
    assert same_morphism(back, f, tol=0.0)
    with pytest.raises(ShapeError):
        as_int0(name_of(f), 4)


def test_dqta_operations_take_a_qta_as_its_directed_reading():
    q = make_qta(2, 3, random_isometry(6, 6, 21))
    t = UnitaryDqta(q.h, q.n, q.n, q.tau)
    for op in (lambda x: cascade(x, x), lambda x: turing_tensor(x, x),
               lambda x: feedback_dqta(x, 1), dagger_dqta):
        got, want = op(q), op(t)
        assert type(got) is UnitaryDqta
        assert (got.h, got.k, got.l) == (want.h, want.k, want.l)
        assert np.array_equal(got.tau.mat, want.tau.mat)


@pytest.mark.parametrize("q", [
    Qta(2, 3, random_monomial(np.random.default_rng(22), 6, 6)),
    name_of(int_identity(2)),
    make_qta(2, 3, random_isometry(6, 6, 23)),
], ids=["carried", "identity name", "haar"])
def test_unname_gives_the_rewrapped_carrier_bit_for_bit(q):
    # as_int0 of q is as_int0 of its transition rewrapped as a plain UnitaryDqta
    for src in range(q.n + 1):
        got = as_int0(q, src).tau
        want = as_int0(UnitaryDqta(q.h, q.n, q.n, q.tau), src).tau
        assert (got.form is None) == (want.form is None)
        if want.form is None:
            assert got.mat.tobytes() == want.mat.tobytes()
        else:
            assert got.form[0].tobytes() == want.form[0].tobytes()
            assert got.form[1].tobytes() == want.form[1].tobytes()


def test_as_int0_then_name_returns_machine():
    t = rand_unitary(2, 4, seed=18)
    q = name_of(as_int0(t, 2))
    assert op_distance(q.tau, t.tau) == 0.0


# -------------------------------------------------------- bidirectionalize

def test_bidirectionalize_identity_machine():
    ident = unit_automata(3, 3)[0]
    q = bidirectionalize(ident)
    assert (q.h, q.n) == (1, 6)
    assert op_distance(q.tau, sum_swap(3, 3)) == 0.0


def test_bidirectionalize_shape_and_unitarity():
    t = rand_unitary(2, 3, seed=19)
    q = bidirectionalize(t)
    assert (q.h, q.n) == (4, 6)
    assert unitary_defect(q.tau) <= 1e-9


def test_bidirectionalize_separates_machines():
    q1 = bidirectionalize(rand_unitary(2, 2, seed=20))
    q2 = bidirectionalize(rand_unitary(2, 2, seed=21))
    assert op_distance(q1.tau, q2.tau) >= 1e-6


# ---------------------------------------------------------------- functor F

def test_functor_preserves_identity():
    fi = functor_image(unit_automata(3, 3)[0])
    assert same_morphism(fi, int_identity(3), tol=0.0)


def test_functor_preserves_composition_up_to_state_reordering():
    t1 = rand_unitary(2, 2, seed=22)
    t2 = rand_unitary(3, 2, seed=23)
    lhs = functor_image(cascade(t1, t2))
    rhs = int_compose(functor_image(t1), functor_image(t2))
    sigma = kron(kron(identity(2), tensor_swap(3, 2)), identity(3))
    assert witnessed_distance(lhs, rhs, sigma) <= ISOMETRY_TOL


def test_functor_preserves_dagger_up_to_state_swap():
    t = rand_unitary(3, 2, seed=24)
    lhs = functor_image(dagger_dqta(t))
    rhs = int_dagger(functor_image(t))
    assert witnessed_distance(lhs, rhs, tensor_swap(3, 3)) <= ISOMETRY_TOL


def test_functor_preserves_feedback_strictly():
    t = rand_unitary(2, 3, seed=25)
    lhs = functor_image(feedback_dqta(t, 1))
    rhs = canonical_trace(functor_image(t), 1)
    assert same_morphism(lhs, rhs)


# ------------------------------------------- composition's one-loop route

def reference_compose(f, g):
    """The two-copy route, which int_compose keeps for carried pairs, on any
    pair: both middle copies routed to the front of turing_tensor(f, g)
    and closed by one closed_form over 2l.  Uses the module functions, not
    intcat's names, so monkeypatching intcat leaves it alone."""
    k, l, m = f.src, f.dst, g.dst
    x = turing_tensor(f, g)
    routed = _reorder(x, [k, l, l, m], [1, 2, 0, 3], [l, k, m, l], [3, 0, 2, 1])
    return Int0Morphism(x.h, k, m, closed_form(routed, x.h, 2 * l))


def carried_ends(l):
    """The carried morphisms of int_identity, int_symmetry and int_units
    into middle rank l and out of it, as (fs, gs)."""
    fs = [int_identity(l), *(int_symmetry(a, l - a) for a in range(l + 1))]
    gs = list(fs)
    if l % 2 == 0:
        d, e = int_units(l // 2)
        fs.append(d)
        gs.append(e)
    if l == 0:
        d, e = int_units(1)
        fs.append(e)
        gs.append(d)
    return fs, gs


def drawn_pairs(draws, seed):
    """(kind, f, g) with h1, h2 in 1..3 and k, l, m in 0..3: dense/dense,
    dense/carried and carried/dense, the carried side cycling through
    carried_ends."""
    rng = np.random.default_rng(seed)
    for i in range(draws):
        h1, h2 = (int(x) for x in rng.integers(1, 4, 2))
        k, l, m = (int(x) for x in rng.integers(0, 4, 3))
        f = rand_int0(k, l, h1, seed=rng)
        g = rand_int0(l, m, h2, seed=rng)
        fs, gs = carried_ends(l)
        yield "dense/dense", f, g
        yield "dense/carried", f, gs[i % len(gs)]
        yield "carried/dense", fs[i % len(fs)], g


def test_the_one_loop_route_agrees_with_the_two_copy_route():
    seen = set()
    for kind, f, g in drawn_pairs(120, seed=33):
        seen.add(kind)
        got, want = int_compose(f, g), reference_compose(f, g)
        assert (got.h, got.src, got.dst) == (want.h, want.src, want.dst)
        assert got.tau.form is None
        assert op_distance(got.tau, want.tau) <= 1e-12, (kind, f, g)
    assert seen == {"dense/dense", "dense/carried", "carried/dense"}


@pytest.mark.parametrize("l", range(4))
def test_carried_pairs_keep_the_two_copy_route_bit_for_bit(l):
    fs, gs = carried_ends(l)
    for f in fs:
        for g in gs:
            got, want = int_compose(f, g).tau, reference_compose(f, g).tau
            assert got.form is not None and got.shape == want.shape
            assert got.form[0].tobytes() == want.form[0].tobytes()
            assert got.form[1].tobytes() == want.form[1].tobytes()


def test_a_dense_composition_closes_one_loop_of_the_middle_rank(monkeypatch):
    calls = []

    def recorded(w, h, u):
        calls.append((w.shape, h, u))
        return closed_form(w, h, u)

    def carried_only(t1, t2):
        assert t1.tau.form is not None and t2.tau.form is not None, \
            "turing_tensor on a dense operand"
        return turing_tensor(t1, t2)

    monkeypatch.setattr(intcat, "closed_form", recorded)
    monkeypatch.setattr(intcat, "turing_tensor", carried_only)
    for kind, f, g in drawn_pairs(30, seed=34):
        calls.clear()
        int_compose(f, g)
        h, k, l, m = f.h * g.h, f.src, f.dst, g.dst
        assert calls == [((h * (l + m + k), h * (l + k + m)), h, l)], kind


def test_a_dense_composition_peaks_below_the_tensored_carrier():
    # h1 = h2 = k = l = m = 4: the carrier and its gather are side 256,
    # W is 192 x 192
    f, g = rand_int0(4, 4, 4, seed=35), rand_int0(4, 4, 4, seed=36)

    def peak(compose):
        compose(f, g)
        tracemalloc.start()
        try:
            compose(f, g)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(int_compose) <= 0.6 * peak(reference_compose)


def haar_rule_cell(states, bits, seed):
    side = 2 ** bits * 2 * states
    return build_cell(states, bits, random_isometry(side, side, seed))


# both wirings up to side 256, and one side-1024 case (about 0.7 s)
@pytest.mark.parametrize("states, bits, ns, mirror", [
    (2, 1, range(1, 6), False), (2, 1, range(1, 6), True),
    (2, 2, range(1, 4), False), (2, 2, range(1, 4), True),
    (2, 2, [4], False)])
def test_haar_rule_chains_agree_with_the_two_copy_route(
        monkeypatch, states, bits, ns, mirror):
    cell = haar_rule_cell(states, bits, seed=37)
    for n in ns:
        got = chain_cells(cell, n, mirror=mirror).tau
        with monkeypatch.context() as patch:
            patch.setattr(cli, "int_compose", reference_compose)
            want = chain_cells(cell, n, mirror=mirror).tau
        assert op_distance(got, want) <= 1e-12, n
