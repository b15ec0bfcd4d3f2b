"""Bidirectional automata built from directed ones.

A morphism from rank k to rank l is carried by a unitary automaton whose
input interface is K (+) L and whose output interface is L (+) K: the K
summand flows forward while the L summand travels backward.  Composition
wires the middle object's forward and return copies into a loop and
eliminates it with feedback; the dagger just renames interfaces, so it
is involutive on the nose.  Objects are self-dual, with unit and counit
both carried by the interface swap.

A Qta, the undirected automaton, is the UnitaryDqta (h, n, n, tau) read
undirected: one interface N of rank n = k = l, with no input or output
side of its own, so every dqta operation takes it as its directed reading.
name_of flattens a morphism into a Qta on the combined rank K (+) L, and
unname inverts it exactly; as_int0 views any square automaton whose
interfaces split as [forward, backward] on both sides as a morphism.
bidirectionalize sends a directed automaton t to the name of the
forward/backward pair t (+) dagger(t).

Every operation reduces to dqta-module algebra plus routing by index
maps: summands are relabelled by gathering the carrier's rows and columns
through linalg.summand_index, never by multiplying with a permutation
matrix; on a carried monomial form the gather composes the index with the
target map.  No isomorphism search, no symbolic structure.
"""

from dataclasses import dataclass

from .linalg import (
    Operator,
    ShapeError,
    check_defect,
    dsum,
    gather,
    identity,
    sum_swap,
    summand_index,
    unitary_defect,
)
from .dqta import (
    Dqta,
    UnitaryDqta,
    dagger_dqta,
    feedback_dqta,
    make_unitary_dqta,
    turing_tensor,
)


class Qta(UnitaryDqta):
    """Undirected automaton: the UnitaryDqta (h, n, n, tau) read
    undirected, a unitary transition on H (x) N with n = k = l."""

    def __init__(self, h: int, n: int, tau: Operator):
        UnitaryDqta.__init__(self, h, n, n, tau)

    @property
    def n(self) -> int:
        return self.k


def make_qta(h: int, n: int, tau: Operator) -> Qta:
    """Validated construction; rejects non-unitary transitions."""
    q = Qta(h, n, tau)
    check_defect(unitary_defect(tau), "transition must be unitary")
    return q


@dataclass(frozen=True)
class Int0Morphism:
    """Rank-k to rank-l morphism carried by a unitary automaton.

    The carrier's input interface is K (+) L and its output is L (+) K.
    """

    src: int
    dst: int
    carrier: UnitaryDqta

    def __post_init__(self):
        if self.src < 0 or self.dst < 0:
            raise ShapeError(f"bad ranks {self.src}, {self.dst}")
        if not self.carrier.k == self.carrier.l == self.src + self.dst:
            raise ShapeError(f"carrier interfaces {self.carrier.k} -> "
                             f"{self.carrier.l} must be {self.src} + {self.dst}")


def _reorder(t, in_dims, in_order, out_dims, out_order) -> Operator:
    """t's transition with its input and output summands listed in the
    given orders of the old summands."""
    rows = summand_index(t.h, out_dims, out_order)
    cols = summand_index(t.h, in_dims, in_order)
    return gather(t.tau, rows, cols)


def int_identity(k: int) -> Int0Morphism:
    return Int0Morphism(k, k, UnitaryDqta(1, 2 * k, 2 * k, identity(2 * k)))


def int_symmetry(k: int, l: int) -> Int0Morphism:
    """The braiding (K,L) -> (L,K): swap forward copies, swap return copies."""
    tau = dsum(sum_swap(k, l), sum_swap(l, k))
    return Int0Morphism(k + l, l + k, UnitaryDqta(1, tau.rows, tau.rows, tau))


def int_compose(f: Int0Morphism, g: Int0Morphism) -> Int0Morphism:
    """Loop composition: f's forward middle copy feeds g, g's return feeds f.

    Both middle copies are routed to the leading interface position of
    the tensored carrier and closed with one feedback over 2 * middle.
    """
    if f.dst != g.src:
        raise ShapeError(f"middle rank mismatch: {f.dst} != {g.src}")
    k, l, m = f.src, f.dst, g.dst
    x = turing_tensor(f.carrier, g.carrier)
    # loop copies first: x input summands [K, Lret_f, Lin_g, Mret] become
    # [Lret_f, Lin_g, K, Mret], output [Lfwd_f, Kret, Mfwd, Lret_g] becomes
    # [Lret_g, Lfwd_f, Mfwd, Kret]
    routed = _reorder(x, [k, l, l, m], [1, 2, 0, 3], [l, k, m, l], [3, 0, 2, 1])
    closed = feedback_dqta(UnitaryDqta(x.h, x.k, x.l, routed), 2 * l)
    return Int0Morphism(k, m, closed)


def int_tensor(f: Int0Morphism, g: Int0Morphism) -> Int0Morphism:
    """Monoidal product: ranks add, with the middle summands interleaved.

    The tensored carrier orders summands machine-by-machine; regrouping
    them as forward-parts-first, return-parts-last swaps the middle two.
    """
    k, l, kp, lp = f.src, f.dst, g.src, g.dst
    x = turing_tensor(f.carrier, g.carrier)
    # x input summands [K, L, K', L'], output [L, K, L', K']
    routed = _reorder(x, [k, l, kp, lp], [0, 2, 1, 3],
                      [l, k, lp, kp], [0, 2, 1, 3])
    return Int0Morphism(k + kp, l + lp, UnitaryDqta(x.h, x.k, x.k, routed))


def int_dagger(f: Int0Morphism) -> Int0Morphism:
    """Reverse a morphism by swapping its carrier's interface summands.

    Purely a renaming of summands, so dagger(dagger(f)) is exactly f and
    the operation is contravariant over int_compose.
    """
    k, l = f.src, f.dst
    tau = _reorder(f.carrier, [k, l], [1, 0], [l, k], [1, 0])
    return Int0Morphism(l, k, UnitaryDqta(f.carrier.h, l + k, l + k, tau))


def int_units(x: int):
    """Unit (rank 0 -> 2x) and counit (rank 2x -> 0), both carried by the
    interface swap; returns (d, e)."""
    c = UnitaryDqta(1, 2 * x, 2 * x, sum_swap(x, x))
    return Int0Morphism(0, 2 * x, c), Int0Morphism(2 * x, 0, c)


def canonical_trace(f: Int0Morphism, u: int) -> Int0Morphism:
    """Close a loop over the leading rank-u summand using unit and counit.

    Evaluates bend-up, run f beside an identity, bend-down; equals the
    automaton-level feedback on images of bidirectionalize.
    """
    if u < 0 or u > f.src or u > f.dst:
        raise ShapeError(f"trace rank {u} exceeds ({f.src}, {f.dst})")
    k, l = f.src - u, f.dst - u
    d, e = int_units(u)
    bend_up = int_tensor(d, int_identity(k))
    run = int_tensor(int_identity(u), f)
    bend_down = int_tensor(e, int_identity(l))
    return int_compose(int_compose(bend_up, run), bend_down)


def name_of(f: Int0Morphism) -> Qta:
    """Flatten a morphism to an undirected automaton on rank src + dst.

    Swaps the carrier's output summands, turning the map
    K (+) L -> L (+) K into a square operator on K (+) L.
    """
    h, n = f.carrier.h, f.src + f.dst
    tau = _reorder(f.carrier, [n], [0], [f.dst, f.src], [1, 0])
    return Qta(h, n, tau)


def unname(q: Qta, src: int, dst: int) -> Int0Morphism:
    """Exact inverse of name_of for the given rank split."""
    if src < 0 or dst < 0 or src + dst != q.n:
        raise ShapeError(f"rank split {src} + {dst} != {q.n}")
    return as_int0(q, src)


def as_int0(t: Dqta, src: int) -> Int0Morphism:
    """View a square automaton with [forward, backward] interface layout
    on both sides as a morphism from rank src to rank k - src; a plain
    Dqta is checked as a unitary first."""
    if t.k != t.l:
        raise ShapeError(f"need a square automaton, got {t.k} -> {t.l}")
    if src < 0 or src > t.k:
        raise ShapeError(f"forward rank {src} exceeds interface {t.k}")
    if not isinstance(t, UnitaryDqta):
        t = make_unitary_dqta(t.h, t.k, t.tau)
    dst = t.k - src
    tau = _reorder(t, [t.k], [0], [src, dst], [1, 0])
    return Int0Morphism(src, dst, UnitaryDqta(t.h, t.k, t.k, tau))


def functor_image(t: Dqta) -> Int0Morphism:
    """The forward/backward pair t (+) dagger(t) as a rank k -> l morphism."""
    x = turing_tensor(t, dagger_dqta(t))
    return Int0Morphism(t.k, t.l, UnitaryDqta(x.h, x.k, x.l, x.tau))


def bidirectionalize(t: Dqta) -> Qta:
    """Undirected automaton of a directed one: name of t (+) dagger(t).

    The rank is t.k + t.l and the state space squares; distinct inputs
    stay distinct.
    """
    return name_of(functor_image(t))
