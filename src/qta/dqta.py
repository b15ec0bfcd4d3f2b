"""Quantum automata with directed tape interfaces.

An automaton carries an h-dimensional internal state space H and moves a
control particle between interface spaces: the transition operator maps
H (x) K to H (x) L and must be an isometry.  Interfaces combine by direct
sum, state spaces by tensor product.  Three composition styles:

  cascade        feed one automaton's output interface into the next
                 one's input interface; state spaces tensor.
  turing_tensor  run two automata side by side; interfaces concatenate,
                 each transition acts on its own state factor.
  feedback_dqta  wire the leading output summand back into the leading
                 input summand and eliminate the loop with trace.closed_form,
                 the one loop closer, taken over H (x) U.

cascade and turing_tensor work on (h, l, h, k) views of transitions:
cascade contracts two, turing_tensor writes two into one.  When both
transitions carry a monomial form (see linalg), turing_tensor composes the
target maps instead; cascade stays dense.  closed_form slices the same
view into its four blocks, or follows paths on a carried form.

Matrix conventions follow linalg: the state factor H is always the outer
(slow) tensor factor, and interface summands concatenate in declaration
order.  Equality of automata is only ever checked against an explicit
state-space witness (witnessed_distance); no isomorphism search happens
anywhere.

Validation policy: an operator is checked where it enters or leaves the
library, always by the one gate linalg.check_defect -- in make_dqta and
make_unitary_dqta (intcat.make_qta calls it), in the three trace entry
points, on file load and before a file is written.  Wherever a unitary
is needed one trust rule, as_unitary, holds: a UnitaryDqta is trusted,
and a plain square Dqta is checked as a unitary by make_unitary_dqta.
Feedback sends isometries to isometries and every other operation only
routes or multiplies them, so operations here and in intcat build their
results unchecked (linalg.owned), returning a UnitaryDqta when every
operand is one.  The law suite (axioms) builds its draws unchecked too.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Operator,
    ShapeError,
    adjoint,
    check_defect,
    identity,
    isometry_defect,
    monomial,
    op_distance,
    owned,
    sum_swap,
    unitary_defect,
)
from .trace import closed_form


@dataclass(frozen=True)
class Dqta:
    """Automaton (h, k, l, tau) with isometric tau: H (x) K -> H (x) L."""

    h: int
    k: int
    l: int
    tau: Operator

    def __post_init__(self):
        if self.h <= 0 or self.k < 0 or self.l < 0:
            raise ShapeError(
                f"state dim must be positive and interfaces nonnegative, "
                f"got h={self.h}, k={self.k}, l={self.l}")
        if self.tau.cols != self.h * self.k or self.tau.rows != self.h * self.l:
            raise ShapeError(
                f"transition is {self.tau.rows}x{self.tau.cols}, expected "
                f"{self.h * self.l}x{self.h * self.k}")


@dataclass(frozen=True)
class UnitaryDqta(Dqta):
    """Automaton whose square transition is unitary (so k = l)."""

    def __post_init__(self):
        super().__post_init__()
        if self.k != self.l:
            raise ShapeError(f"unitary automaton needs k = l, got {self.k}, {self.l}")


def _kind(*ts):
    """UnitaryDqta when every operand is one, else Dqta."""
    return UnitaryDqta if all(isinstance(t, UnitaryDqta) for t in ts) else Dqta


def make_dqta(h: int, k: int, l: int, tau: Operator) -> Dqta:
    """Validated construction; rejects non-isometric transitions."""
    t = Dqta(h, k, l, tau)
    check_defect(isometry_defect(tau), "transition must be an isometry")
    return t


def make_unitary_dqta(h: int, k: int, tau: Operator) -> UnitaryDqta:
    """Validated construction of an automaton with unitary transition."""
    t = UnitaryDqta(h, k, k, tau)
    check_defect(unitary_defect(tau), "transition must be unitary")
    return t


def as_unitary(t: Dqta) -> UnitaryDqta:
    """The trust rule: a UnitaryDqta as it is; a plain square Dqta, only
    checked as an isometry, checked as a unitary by make_unitary_dqta."""
    return t if isinstance(t, UnitaryDqta) else make_unitary_dqta(t.h, t.k, t.tau)


def cascade(t1: Dqta, t2: Dqta) -> Dqta:
    """Sequential product: t1's output interface becomes t2's input.

    The composite lives on H1 (x) H2, each transition acting on its own
    state factor: on the (h, l, h, k) views of the transitions this is
    one contraction over the middle interface.
    """
    if t1.l != t2.k:
        raise ShapeError(f"cascade interface mismatch: {t1.l} != {t2.k}")
    h1, h2 = t1.h, t2.h
    tau = np.einsum("ayAx,bzBy->abzABx",
                    t1.tau.mat.reshape(h1, t1.l, h1, t1.k),
                    t2.tau.mat.reshape(h2, t2.l, h2, t2.k))
    tau = owned(tau.reshape(h1 * h2 * t2.l, h1 * h2 * t1.k))
    return _kind(t1, t2)(h1 * h2, t1.k, t2.l, tau)


def turing_tensor(t1: Dqta, t2: Dqta) -> Dqta:
    """Parallel product: states tensor, interfaces concatenate.

    On the summand coming from t1 the particle only sees t1, acting on
    the H1 factor, and likewise for t2; each block is written in place
    on the (h1, h2, l, h1, h2, k) view of the composite transition.
    """
    h1, h2 = t1.h, t2.h
    k, l = t1.k + t2.k, t1.l + t2.l
    if t1.tau.form is not None and t2.tau.form is not None:
        # column (a', b', j) of t1's summand goes to row (a, b', y) when t1
        # sends (a', j) to (a, y), and likewise on t2's summand
        (g1, p1), (g2, p2) = t1.tau.form, t2.tau.form
        a, y = np.divmod(g1.reshape(h1, 1, t1.k), t1.l)
        b, z = np.divmod(g2.reshape(1, h2, t2.k), t2.l)
        target = np.empty((h1, h2, k), dtype=np.intp)
        phase = np.empty((h1, h2, k), dtype=complex)
        target[..., :t1.k] = (a * h2 + np.arange(h2)[:, None]) * l + y
        target[..., t1.k:] = (np.arange(h1)[:, None, None] * h2 + b) * l + t1.l + z
        phase[..., :t1.k] = p1.reshape(h1, 1, t1.k)
        phase[..., t1.k:] = p2.reshape(1, h2, t2.k)
        tau = monomial(h1 * h2 * l, target.reshape(-1), phase.reshape(-1))
        return _kind(t1, t2)(h1 * h2, k, l, tau)
    tau = np.zeros((h1, h2, l, h1, h2, k), dtype=complex)
    b = np.arange(h2)
    tau[:, b, :t1.l, :, b, :t1.k] = t1.tau.mat.reshape(h1, t1.l, h1, t1.k)
    a = np.arange(h1)
    tau[a, :, t1.l:, a, :, t1.k:] = t2.tau.mat.reshape(h2, t2.l, h2, t2.k)
    tau = owned(tau.reshape(h1 * h2 * l, h1 * h2 * k))
    return _kind(t1, t2)(h1 * h2, k, l, tau)


def feedback_dqta(t: Dqta, u: int) -> Dqta:
    """Close the loop over the leading u-dimensional interface summand:
    trace.closed_form over H (x) U.  Other summands can be routed into
    leading position with symmetry automata first."""
    if u < 0 or u > t.k or u > t.l:
        raise ShapeError(f"feedback dim {u} exceeds interfaces ({t.k}, {t.l})")
    return _kind(t)(t.h, t.k - u, t.l - u, closed_form(t.tau, t.h, u))


def unit_automata(k: int, l: int):
    """The stateless automata: identity on K and the K/L interface swap.

    Returns (identity, symmetry); both have a one-dimensional state
    space, so cascading with them never changes matrix entries.
    """
    return (UnitaryDqta(1, k, k, identity(k)),
            UnitaryDqta(1, k + l, k + l, sum_swap(k, l)))


def witnessed_distance(t1: Dqta, t2: Dqta, sigma: Operator) -> float:
    """How far sigma: H1 -> H2 is from witnessing that t1 and t2 are the
    same machine.

    The worse of sigma's unitary defect and the distance from t2's
    transition to t1's conjugated by sigma on the state factor; infinite
    when sigma is not square.  The witness is always supplied, never
    searched for.
    """
    if t1.k != t2.k or t1.l != t2.l:
        raise ShapeError("witness check needs matching interfaces")
    if sigma.cols != t1.h or sigma.rows != t2.h:
        raise ShapeError(
            f"witness is {sigma.rows}x{sigma.cols}, expected {t2.h}x{t1.h}")
    if sigma.rows != sigma.cols:
        return float("inf")
    # sigma on the outer state factor of t1's (h, l, h, k) view, then
    # sigma^dagger on the inner one
    h, k, l, s = t1.h, t1.k, t1.l, sigma.mat
    moved = s @ t1.tau.mat.reshape(h, l * h * k)
    moved = (s.conj() @ moved.reshape(h * l, h, k)).reshape(h * l, h * k)
    return max(unitary_defect(sigma), op_distance(owned(moved), t2.tau))


def dagger_dqta(t: Dqta) -> UnitaryDqta:
    """Run a unitary automaton backwards: adjoint transition, L -> K.

    Involutive on the nose: dagger(dagger(t)) has exactly t's matrix.
    t is trusted or checked by as_unitary; the adjoint has the same
    unitary defect as t.tau, so one check covers both.
    """
    if t.k != t.l:
        raise ShapeError(f"dagger needs k = l, got {t.k}, {t.l}")
    t = as_unitary(t)
    return UnitaryDqta(t.h, t.l, t.l, adjoint(t.tau))
