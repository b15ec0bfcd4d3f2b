"""Bidirectional automata built from directed ones.

A morphism from rank k to rank l is the UnitaryDqta (h, n, n, tau) with
n = k + l, read with input K (+) L and output L (+) K: the K summand
flows forward while the L summand travels backward.  Int0Morphism adds
only the split, src = k, so every dqta operation takes a morphism as the
automaton it is.  Composition wires the middle object's forward and
return copies into a loop.  The return copy's loop block is exactly 0,
so by the vanishing axiom it closes by substitution, and the loop closer
eliminates the forward copy alone (carried operands follow paths through
both).  The dagger just renames interfaces, so it is involutive on the
nose.  Objects are self-dual, with unit and counit both the interface swap.

A Qta, the undirected automaton, is the same UnitaryDqta read
undirected: one interface N of rank n = k = l, with no input or output
side of its own.  name_of flattens a morphism into a Qta on the combined
rank K (+) L, and as_int0 inverts it exactly: it views any square
automaton whose interfaces split as [forward, backward] on both sides,
a name among them, as a morphism.  bidirectionalize sends a directed
automaton t to the name of the forward/backward pair t (+) dagger(t).

Every operation reduces to dqta-module algebra, contractions of the
(h, ., h, .) views of transitions and the loop closer trace.closed_form,
plus routing by index maps: summands are relabelled by gathering the
transition's rows and columns through linalg.summand_index, never by
multiplying with a permutation matrix; on a carried monomial form the
gather composes the index with the target map.  No isomorphism search,
no symbolic structure.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Operator,
    ShapeError,
    dsum,
    gather,
    identity,
    owned,
    sum_swap,
    summand_index,
)
from .dqta import (
    Dqta,
    UnitaryDqta,
    as_unitary,
    dagger_dqta,
    make_unitary_dqta,
    turing_tensor,
)
from .trace import closed_form


class Qta(UnitaryDqta):
    """Undirected automaton: the UnitaryDqta (h, n, n, tau) read
    undirected, a unitary transition on H (x) N with n = k = l."""

    def __init__(self, h: int, n: int, tau: Operator):
        UnitaryDqta.__init__(self, h, n, n, tau)

    @property
    def n(self) -> int:
        return self.k


def make_qta(h: int, n: int, tau: Operator) -> Qta:
    """Validated construction: make_unitary_dqta's, read undirected."""
    return Qta(h, n, make_unitary_dqta(h, n, tau).tau)


@dataclass(frozen=True, init=False)
class Int0Morphism(UnitaryDqta):
    """Rank-src to rank-dst morphism: the UnitaryDqta (h, n, n, tau) with
    n = src + dst, its input read as K (+) L and its output as L (+) K."""

    src: int

    def __init__(self, h: int, src: int, dst: int, tau: Operator):
        if src < 0 or dst < 0:
            raise ShapeError(f"bad ranks {src}, {dst}")
        object.__setattr__(self, "src", src)
        UnitaryDqta.__init__(self, h, src + dst, src + dst, tau)

    @property
    def dst(self) -> int:
        return self.k - self.src


def _reorder(t, in_dims, in_order, out_dims, out_order) -> Operator:
    """t's transition with its input and output summands listed in the
    given orders of the old summands."""
    rows = summand_index(t.h, out_dims, out_order)
    cols = summand_index(t.h, in_dims, in_order)
    return gather(t.tau, rows, cols)


def int_identity(k: int) -> Int0Morphism:
    return Int0Morphism(1, k, k, identity(2 * k))


def int_symmetry(k: int, l: int) -> Int0Morphism:
    """The braiding (K,L) -> (L,K): swap forward copies, swap return copies."""
    return Int0Morphism(1, k + l, l + k, dsum(sum_swap(k, l), sum_swap(l, k)))


def int_compose(f: Int0Morphism, g: Int0Morphism) -> Int0Morphism:
    """Loop composition: f's forward middle copy feeds g, g's return feeds f.

    The return copy closes by substitution (module docstring), leaving one
    trace.closed_form over H (x) middle, on a W built from f's and g's
    blocks.  Two carried operands keep path following over both copies.
    """
    if f.dst != g.src:
        raise ShapeError(f"middle rank mismatch: {f.dst} != {g.src}")
    k, l, m = f.src, f.dst, g.dst
    if f.tau.form is not None and g.tau.form is not None:
        x = turing_tensor(f, g)
        # loop copies first: in [K, Lret_f, Lin_g, Mret] -> [Lret_f, Lin_g, K, Mret],
        # out [Lfwd_f, Kret, Mfwd, Lret_g] -> [Lret_g, Lfwd_f, Mfwd, Kret]
        routed = _reorder(x, [k, l, l, m], [1, 2, 0, 3], [l, k, m, l], [3, 0, 2, 1])
        return Int0Morphism(x.h, k, m, closed_form(routed, x.h, 2 * l))
    h1, h2, h = f.h, g.h, f.h * g.h
    fv = f.tau.mat.reshape(h1, l + k, h1, k + l)
    gv = g.tau.mat.reshape(h2, m + l, h2, l + m)
    # W: H (x) [L_g, M, K] -> H (x) [L_f, K, M], viewed (h1, h2, ., h1, h2, .):
    # g's inputs through its return output into f's return input, f's K
    # column beside H2, g's M row beside H1, and 0 from K to M
    w = np.zeros((h1, h2, l + k + m, h1, h2, l + m + k), dtype=complex)
    through = (fv[..., k:].reshape(h1 * (l + k) * h1, l)
               @ gv[:, m:].transpose(1, 0, 2, 3).reshape(l, h2 * h2 * (l + m)))
    w[:, :, :l + k, :, :, :l + m] = through.reshape(
        h1, l + k, h1, h2, h2, l + m).transpose(0, 3, 1, 2, 4, 5)
    w[:, np.arange(h2), :l + k, :, np.arange(h2), l + m:] = fv[..., :k]
    w[np.arange(h1), :, l + k:, np.arange(h1), :, :l + m] = gv[:, :m]
    n = h * (l + k + m)
    w = closed_form(owned(w.reshape(n, n)), h, l).mat.reshape(h, k + m, h, m + k)
    # closed, W reads H (x) [M, K] -> H (x) [K, M]: swap both sides' summands
    w = np.concatenate([w[:, k:], w[:, :k]], 1)
    w = np.concatenate([w[..., m:], w[..., :m]], 3)
    return Int0Morphism(h, k, m, owned(w.reshape(h * (m + k), h * (k + m))))


def int_tensor(f: Int0Morphism, g: Int0Morphism) -> Int0Morphism:
    """Monoidal product: ranks add, with the middle summands interleaved.

    f (+) g orders summands machine-by-machine; regrouping them as
    forward-parts-first, return-parts-last swaps the middle two.
    """
    k, l, kp, lp = f.src, f.dst, g.src, g.dst
    x = turing_tensor(f, g)
    # x input summands [K, L, K', L'], output [L, K, L', K']
    routed = _reorder(x, [k, l, kp, lp], [0, 2, 1, 3],
                      [l, k, lp, kp], [0, 2, 1, 3])
    return Int0Morphism(x.h, k + kp, l + lp, routed)


def int_dagger(f: Int0Morphism) -> Int0Morphism:
    """Reverse a morphism by swapping its interface summands.

    Purely a renaming of summands, so dagger(dagger(f)) is exactly f and
    the operation is contravariant over int_compose.
    """
    k, l = f.src, f.dst
    return Int0Morphism(f.h, l, k, _reorder(f, [k, l], [1, 0], [l, k], [1, 0]))


def int_units(x: int):
    """Unit (rank 0 -> 2x) and counit (rank 2x -> 0), both the interface
    swap; returns (d, e)."""
    swap = sum_swap(x, x)
    return Int0Morphism(1, 0, 2 * x, swap), Int0Morphism(1, 2 * x, 0, swap)


def canonical_trace(f: Int0Morphism, u: int) -> Int0Morphism:
    """Close a loop over the leading rank-u summand using unit and counit.

    Evaluates bend-up, run f beside an identity, bend-down; automaton
    feedback on functor_image(t): functor_image(feedback_dqta(t, u)).
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

    Swaps the output summands, turning the map K (+) L -> L (+) K into a
    square operator on K (+) L.
    """
    return Qta(f.h, f.k, _reorder(f, [f.k], [0], [f.dst, f.src], [1, 0]))


def as_int0(t: Dqta, src: int) -> Int0Morphism:
    """View a square automaton with [forward, backward] interface layout
    on both sides as a morphism from rank src to rank k - src; t is
    trusted or checked by dqta.as_unitary."""
    if t.k != t.l:
        raise ShapeError(f"need a square automaton, got {t.k} -> {t.l}")
    if src < 0 or src > t.k:
        raise ShapeError(f"forward rank {src} exceeds interface {t.k}")
    t = as_unitary(t)
    dst = t.k - src
    return Int0Morphism(t.h, src, dst, _reorder(t, [t.k], [0], [src, dst], [1, 0]))


def functor_image(t: Dqta) -> Int0Morphism:
    """The forward/backward pair t (+) dagger(t) as a rank k -> l morphism."""
    x = turing_tensor(t, dagger_dqta(t))
    return Int0Morphism(x.h, t.k, t.l, x.tau)


def bidirectionalize(t: Dqta) -> Qta:
    """Undirected automaton of a directed one: name of t (+) dagger(t).

    The rank is t.k + t.l and the state space squares; distinct inputs
    stay distinct.
    """
    return name_of(functor_image(t))
