"""Feedback on isometries U (+) K -> U (+) L.

Three semantics for closing the U loop of an isometric block operator:

* ``schur_feedback``: the closed form D + B (I - A)^+ C, with the
  Moore-Penrose inverse supplying the Schur-style complement of (I - A).
  This is the reference implementation; it sends isometries to isometries.
  It is the input gate plus ``closed_form(f, 1, u)``.  The one loop
  closer, unchecked and shared with dqta.feedback_dqta, is ``closed_form``:
  it closes f: H (x) (U (+) K) -> H (x) (U (+) L) over H (x) U.
* ``kleene_feedback``: the limit of D + B (I + A + ... + A^n) C to machine
  precision; running out of max_n is reported, never averaged.
* ``kernel_image_trace``: factor B and C through (I - A) and combine the
  factors, returned with the factorization residual; on an isometry the
  factors exist (below), so the residual measures only the rank cutoff.

Block layout of a BlockMap op (conventional orientation, rows = codomain):

    [[A, C],
     [B, D]]     A: U -> U,  C: K -> U,  B: U -> L,  D: K -> L.

Why any generalized inverse gives the same feedback, and why the partial
sums converge.  A is a contraction; let Ax = wx with |w| = 1.  The
isometry keeps the length of (x, 0), so |x|^2 = |Ax|^2 + |Bx|^2 forces
Bx = 0.  As |A^dagger x - w* x|^2 = |A^dagger x|^2 - |x|^2 <= 0,
A^dagger x = w* x, and the isometry keeps (x, 0), sent to (wx, 0),
orthogonal to the image (Cz, Dz) of every (0, z), so C^dagger x = 0.
These x span a space that reduces A (the unitary part of a contraction
splits off: Sz.-Nagy and Foias), on which B vanishes and whose
complement, where A has spectral radius below 1, holds ran C: B A^n C
decays geometrically and the partial sums converge.  At w = 1,
ker(I - A) = ker(I - A^dagger) lies in ker B and ran C in ran(I - A):
B = P (I - A) and C = (I - A) Q for some P, Q.  For every G with
(I - A) G (I - A) = I - A, B G C = P (I - A) Q, whichever G is taken.
The Moore-Penrose inverse is one such G, and so is the plain inverse
when I - A is invertible, which is what lets ``linalg.mp_inverse``
answer with an LU inverse there.  A fixed loop direction that is a basis
vector leaves I - A an exactly zero row and column, which ``mp_inverse``
deflates before the LU: the dense counterpart of the carried closed
form dropping the loop columns no input reaches.

On a monomial isometry (a partial injection with phases) ``closed_form``
is Girard's execution formula: each input follows its path through the
loop columns, so loop columns that no input reaches, among them every
cycle and so ker(I - A), are dropped, and no rank decision is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Operator,
    ShapeError,
    check_defect,
    isometry_defect,
    monomial,
    mp_inverse,
    owned,
)

@dataclass(frozen=True)
class BlockMap:
    """An operator U (+) K -> U (+) L with its split recorded."""

    op: Operator
    u: int
    k: int
    l: int

    def __post_init__(self):
        if min(self.u, self.k, self.l) < 0:
            raise ValueError(f"split dims must be nonnegative: {self.u}, {self.k}, {self.l}")
        if self.op.cols != self.u + self.k or self.op.rows != self.u + self.l:
            raise ShapeError(
                f"operator is {self.op.rows}x{self.op.cols}, expected "
                f"{self.u + self.l}x{self.u + self.k} for split u={self.u}, k={self.k}, l={self.l}")


@dataclass(frozen=True)
class ConvergenceReport:
    """Numerical witness for the limit of the partial-sum feedback."""

    steps: int
    residual: float
    converged: bool


def _blocks(mat, h, u, k, l):
    """The blocks (a, b, c, d) of mat: H (x) (U (+) K) -> H (x) (U (+) L)
    over H (x) U, sliced from the (h, u + l, h, u + k) view as contiguous
    copies: products of the strided slices can differ in the last bit."""
    view = mat.reshape(h, u + l, h, u + k)
    loop, rest = slice(None, u), slice(u, None)
    return tuple(np.array(view[:, r, :, s]).reshape(h * m, h * n)
                 for r, s, m, n in [(loop, loop, u, u), (rest, loop, l, u),
                                    (loop, rest, u, k), (rest, rest, l, k)])


def closed_form(f: Operator, h: int, u: int) -> Operator:
    """Close f: H (x) (U (+) K) -> H (x) (U (+) L) over H (x) U, unchecked
    (the caller vouches that f is an isometry): D + B (I - A)^+ C on the
    blocks of a dense f.  On a carried f each input column walks through
    the loop columns its rows feed, multiplying phases, until its row
    leaves H (x) U: targets are distinct, so within h u steps."""
    k, l = f.cols // h - u, f.rows // h - u
    if f.form is not None:
        target, phase = f.form
        state, pos = np.divmod(target, u + l)
        feeds = np.where(pos < u, state * (u + k) + pos, -1)  # loop column, or -1
        at = (np.arange(h)[:, None] * (u + k) + np.arange(u, u + k)).reshape(-1)
        phases = phase[at]
        walking = np.flatnonzero(feeds[at] >= 0)
        for _ in range(h * u):
            if walking.size == 0:
                break
            at[walking] = feeds[at[walking]]
            phases[walking] = phase[at[walking]] * phases[walking]
            walking = walking[feeds[at[walking]] >= 0]
        return monomial(h * l, state[at] * l + pos[at] - u, phases)
    a, b, c, d = _blocks(f.mat, h, u, k, l)
    pinv = mp_inverse(owned(np.eye(h * u) - a))
    return owned(d + b @ pinv.mat @ c)


def schur_feedback(m: BlockMap) -> Operator:
    """Close the U loop: D + B (I - A)^+ C.

    The input must be an isometry within ISOMETRY_TOL.  The output's
    isometry defect is input-limited: it grows as I - A nears singularity.
    This is the gate plus closed_form with a one-dimensional H.
    """
    check_defect(isometry_defect(m.op), "feedback input must be an isometry")
    return closed_form(m.op, 1, m.u)


def kleene_feedback(m: BlockMap, max_n: int = 100_000):
    """Feedback as the limit of D + B (I + A + ... + A^n) C.

    Adds the increments B A^n C until u in a row are at most machine
    epsilon, below the precision of an isometry's entries (modulus <= 1).
    One is not enough: B C = 0 while B A C != 0 when C feeds a loop
    direction B does not read, but u zeros in a row make every later one
    0 (Cayley-Hamilton).  Returns (operator, report); running out of
    max_n + 1 steps is reported, never raised or averaged.  The input
    must be an isometry within ISOMETRY_TOL.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    check_defect(isometry_defect(m.op), "feedback input must be an isometry")
    a, b, c, out = _blocks(m.op.mat, 1, m.u, m.k, m.l)
    if b.size == 0 or c.size == 0:
        return owned(out), ConvergenceReport(steps=0, residual=0.0, converged=True)
    eps = np.finfo(float).eps
    walk, quiet = b, 0        # B A^n; increments at most eps in a row
    for steps in range(max_n + 1):
        increment = walk @ c
        out += increment
        residual = np.abs(increment).max()
        quiet = quiet + 1 if residual <= eps else 0
        if quiet == m.u:
            break
        walk = walk @ a
    return owned(out), ConvergenceReport(steps=steps, residual=float(residual),
                                         converged=quiet == m.u)


def kernel_image_trace(m: BlockMap):
    """Feedback through factorizations of B and C across (I - A).

    Solves B = k (I - A) and C = (I - A) i in minimal norm via the
    pseudoinverse.  Returns (operator, residual): the average of D + k C
    and D + B i, and max(|k (I - A) - B|, |(I - A) i - C|).  The residual
    is rounding unless the rank cutoff dropped a loop direction that B or
    C still sees; it is reported, never judged here.
    """
    check_defect(isometry_defect(m.op), "feedback input must be an isometry")
    a, b, c, d = _blocks(m.op.mat, 1, m.u, m.k, m.l)
    n = np.eye(m.u) - a
    pinv = mp_inverse(owned(n)).mat
    k_factor = b @ pinv          # minimal-norm solution of B = k (I - A)
    i_factor = pinv @ c          # minimal-norm solution of C = (I - A) i
    res_b = float(np.max(np.abs(k_factor @ n - b))) if b.size else 0.0
    res_c = float(np.max(np.abs(n @ i_factor - c))) if c.size else 0.0
    via_k = d + k_factor @ c
    via_i = d + b @ i_factor
    return owned((via_k + via_i) / 2.0), max(res_b, res_c)
