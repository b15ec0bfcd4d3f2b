"""Complex operator kernel.

Conventions fixed here once and relied on by every other module:

* an operator f: X -> Y is a (dim Y) x (dim X) complex matrix acting on
  column vectors;
* the composite applying f first, then g, is ``g.mat @ f.mat``;
* the basis of a tensor product is lexicographic with the left factor
  outermost;
* the basis of a direct sum is the concatenation of the summand bases,
  left summand first;
* routing is by gather: ``summand_index`` lists basis indices in their
  new order, so ``gather(tau, rows, cols)`` relabels a transition's
  summands without a permutation matrix or any arithmetic;
* carried forms: an operator with one nonzero entry per column, in
  distinct rows (a partial injection with phases), may carry ``form =
  (target, phase)``, column j being phase[j] times basis vector
  target[j].  ``monomial``, ``identity``, the swaps and ``carried`` (exact
  detection) build them; ``adjoint`` (square), ``kron``, ``dsum``,
  ``gather`` and the defects do index arithmetic when every operand
  carries one.  ``.mat`` of a carried form is built when first read.
* two constructors: ``Operator(entries)`` copies and checks what comes
  from outside (users, files); ``owned(mat)`` wraps a freshly computed
  complex array as it is, for the results of the library's own
  operations, which are trusted (see dqta on validation).

The one rank decision, the pseudoinverse cutoff, uses a relative singular
value threshold ``RANK_TOL * sigma_max`` so it is scale invariant.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

# Relative singular value cutoff for rank decisions.
RANK_TOL = 1e-10

# Default acceptance threshold for max|f^dagger f - I|.
ISOMETRY_TOL = 1e-9

# isometry_defect's column block width: on 2 cores, side 1024 took 61 / 54 /
# 52 ms at widths 64 / 128 / 256, 1024x512 18 / 15 / 15 ms and side 512
# 9.2 / 8.4 / 9.5 ms, against 89, 23 and 11.6 ms for one full gram product.
GRAM_BLOCK = 128


class ShapeError(ValueError):
    """Operator dimensions do not conform."""


class IsometryError(ValueError):
    """An operator required to be an isometry is not one.

    The observed defect max|f^dagger f - I| is kept in ``defect``.
    """

    def __init__(self, message, defect):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = float(defect)


def check_defect(defect: float, what: str) -> float:
    """The one acceptance gate: defect, or IsometryError(what, defect) unless
    it is at most ISOMETRY_TOL (a NaN defect is not)."""
    if not defect <= ISOMETRY_TOL:
        raise IsometryError(what, defect)
    return defect


class Operator:
    """A linear map between finite dimensional complex spaces.

    The wrapped matrix has shape (rows, cols) = (codomain dim, domain dim)
    and acts on column vectors.  ``Operator(entries)``, for input from
    outside the library, copies the entries in and checks that they form a
    finite matrix; ``owned`` wraps the library's own results without either.
    The array is read-only either way, so instances may be shared freely.
    ``form`` is the carried form or None (see the module docstring).
    """

    __slots__ = ("mat", "form", "shape")

    def __init__(self, entries):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2:
            raise ShapeError(
                f"operator entries must form a matrix, got ndim={mat.ndim}")
        if mat.size and not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        mat.setflags(write=False)
        self.mat, self.form, self.shape = mat, None, mat.shape

    def __getattr__(self, name):
        # reached only through the unset mat slot of a carried form
        if name != "mat":
            raise AttributeError(name)
        target, phase = self.form
        mat = np.zeros(self.shape, dtype=complex)
        mat[target, np.arange(len(target))] = phase
        mat.setflags(write=False)
        self.mat = mat
        return mat

    rows = property(lambda self: self.shape[0])
    cols = property(lambda self: self.shape[1])

    def __repr__(self):
        return f"Operator({self.rows}x{self.cols})"


def owned(mat: np.ndarray) -> Operator:
    """The trusted constructor: wraps mat, a freshly computed complex
    matrix that nothing else writes to, and marks it read-only; no copy,
    no finite scan."""
    mat.setflags(write=False)
    f = Operator.__new__(Operator)
    f.mat, f.form, f.shape = mat, None, mat.shape
    return f


def monomial(rows: int, target, phase=None) -> Operator:
    """The operator carrying the form (target, phase), phase 1 when
    omitted; the caller vouches that the targets are distinct."""
    f = Operator.__new__(Operator)
    target = np.asarray(target, dtype=np.intp)
    f.form = (target, np.ones(len(target), dtype=complex) if phase is None
              else np.asarray(phase, dtype=complex))
    f.shape = (rows, len(target))
    return f


def carried(mat) -> Operator:
    """Operator(mat), carrying its form when mat has exactly one nonzero
    entry in each column, in distinct rows, and every other entry is +0.0,
    so that the form gives mat back bit for bit.  No tolerance."""
    f = Operator(mat)
    nonzero = f.mat != 0
    if f.mat.size == 0 or not np.all(nonzero.sum(axis=0) == 1):
        return f
    target = nonzero.argmax(axis=0)
    phase = f.mat[target, np.arange(f.cols)]
    if (np.all(nonzero.sum(axis=1) <= 1) and np.count_nonzero(
            f.mat.view(np.int64)) == np.count_nonzero(phase.view(np.int64))):
        f.form = (target, phase)
    return f


def identity(n: int) -> Operator:
    return monomial(n, np.arange(n))


def zeros(rows: int, cols: int) -> Operator:
    return owned(np.zeros((rows, cols), dtype=complex))


def adjoint(f: Operator) -> Operator:
    """Conjugate transpose."""
    if f.form is not None and f.rows == f.cols:
        source = np.argsort(f.form[0])
        return monomial(f.rows, source, f.form[1][source].conj())
    return owned(f.mat.conj().T)


def kron(f: Operator, g: Operator) -> Operator:
    """Multiplicative tensor with f's indices outermost."""
    if f.form is not None and g.form is not None:
        (tf, pf), (tg, pg) = f.form, g.form
        return monomial(f.rows * g.rows, (tf[:, None] * g.rows + tg).reshape(-1),
                        (pf[:, None] * pg).reshape(-1))
    return owned(np.kron(f.mat, g.mat))


def dsum(f: Operator, g: Operator) -> Operator:
    """Additive tensor: block diagonal operator, f's summand first."""
    if f.form is not None and g.form is not None:
        return monomial(f.rows + g.rows,
                        np.concatenate([f.form[0], g.form[0] + f.rows]),
                        np.concatenate([f.form[1], g.form[1]]))
    out = np.zeros((f.rows + g.rows, f.cols + g.cols), dtype=complex)
    out[:f.rows, :f.cols] = f.mat
    out[f.rows:, f.cols:] = g.mat
    return owned(out)


def summand_index(h: int, dims, order) -> np.ndarray:
    """Gather index of H (x) (D_0 (+) ... (+) D_n-1) listing summands in order.

    For each basis vector of the h-dimensional state factor (outermost),
    the flat indices of summands order[0], order[1], ... follow one
    another.  A permutation of range(n) reorders the summands in place;
    a subset selects them, and concatenating the indices of [0], [1], ...
    gives the distributivity layout (H (x) D_0) (+) (H (x) D_1) (+) ...
    """
    offsets = [0, *accumulate(map(int, dims))]
    inner = np.array([i for j in order for i in range(offsets[j], offsets[j + 1])],
                     dtype=np.intp)
    return (offsets[-1] * np.arange(h)[:, None] + inner).reshape(-1)


def gather(f: Operator, rows, cols) -> Operator:
    """f.mat[np.ix_(rows, cols)], where rows lists every row of f once."""
    if f.form is not None:
        position = np.empty(f.rows, dtype=np.intp)
        position[rows] = np.arange(f.rows)
        return monomial(f.rows, position[f.form[0][cols]], f.form[1][cols])
    return owned(f.mat[np.ix_(rows, cols)])


def tensor_swap(m: int, n: int) -> Operator:
    """Symmetry of the multiplicative tensor, sending basis (i, j) to (j, i)."""
    return monomial(m * n, np.arange(m * n).reshape(n, m).T.reshape(-1))


def sum_swap(m: int, n: int) -> Operator:
    """Symmetry of the additive tensor, the block antidiagonal [[0, I], [I, 0]]."""
    return monomial(m + n, np.concatenate([np.arange(n, n + m), np.arange(n)]))


def _certified_inverse(mat: np.ndarray, col, row):
    """LU inverse of a square matrix with abs column and row sums col and
    row, or None unless the certificate of mp_inverse shows that the SVD
    would keep every singular value."""
    try:
        x = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        return None
    b = np.abs(x)
    # |.|_1 and |.|_inf are the largest column and row sums; a non-finite
    # x gives an inf or nan kappa, which fails the comparison
    kappa = math.sqrt(math.prod(float(v.max()) for v in
                                (col, row, b.sum(axis=0), b.sum(axis=1))))
    e = len(mat) * np.finfo(float).eps
    return x if 2.0 * kappa * (RANK_TOL + 2.0 * e) <= 1.0 else None


def mp_inverse(f: Operator) -> Operator:
    """Moore-Penrose inverse at the relative rank cutoff tol = RANK_TOL.

    Defined through the SVD: singular values above tol * sigma_max are
    inverted, the rest are zeroed, so a zero matrix maps to a zero matrix.

    Deflation.  Exactly zero rows and columns of f (a loop direction with
    eigenvalue exactly 1 on a basis vector gives both) are dropped first,
    and the pseudoinverse of the remaining block f' is scattered back at
    (kept columns, kept rows): f is a permutation of f' (+) 0, and
    (P f Q)^+ = Q^T f^+ P^T.  f and f' have the same nonzero singular
    values, so the rank decision is unchanged.

    A square f' that the SVD would keep at full rank has the plain inverse
    as its Moore-Penrose inverse, and an LU inverse X costs a fraction of
    the SVD.  X is returned when an O(n^2) certificate shows that the SVD
    keeps every singular value; otherwise (non-square f', an exactly
    singular pivot, a non-finite X, a failed certificate) the SVD formula
    runs unchanged on f', so every rank decision is the SVD's.

    The certificate, on f' written f.  With e = n * eps for side n and
    machine epsilon eps, and the norm bound kappa = sqrt(|X|_1 |X|_inf
    |f|_1 |f|_inf), take X when

        2 * kappa * (tol + 2 e) <= 1,

    i.e. kappa * tol sits below the margin 1 / (2 (1 + 2 e / tol)).
    Derivation, with s the exact and s' the computed singular values:

    * |g|_2^2 <= |g|_1 |g|_inf for every g, so |f|_2 |X|_2 <= kappa.
    * X solves f X = I column by column by LU with partial pivoting, so
      R = I - f X has |R|_2 <= e |f|_2 |X|_2 <= e kappa (growth factor
      taken as modest).  The certificate gives e kappa <= 1/4, so
      f^-1 - X = f^-1 R puts X within |f^-1|_2 / 4 of f^-1, hence
      |f^-1|_2 <= 4/3 |X|_2 and s_min / s_max >= 3 / (4 kappa) >= tol + 2 e.
    * A backward-stable SVD moves each singular value by at most
      e * s_max, so s'_min >= s_min - e s_max >= (tol + e) s_max, while
      s'_max <= (1 + e) s_max.  Then s'_min > tol * s'_max: the SVD
      would invert every singular value, and its result is the inverse.
    """
    a = np.abs(f.mat)
    col, row = a.sum(axis=0), a.sum(axis=1)
    cols, rows = col != 0.0, row != 0.0
    mat = f.mat
    deflate = not (cols.all() and rows.all())
    if deflate:
        # removed rows and columns hold only zeros, so the kept sums stand
        mat, col, row = mat[np.ix_(rows, cols)], col[cols], row[rows]
    if mat.size == 0:
        return zeros(f.cols, f.rows)
    x = _certified_inverse(mat, col, row) if len(col) == len(row) else None
    if x is None:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > RANK_TOL * s[0])
        x = (vh.conj().T * inv) @ u.conj().T
    if deflate:
        out = np.zeros((f.cols, f.rows), dtype=complex)
        out[np.ix_(cols, rows)] = x
        x = out
    return owned(x)


def isometry_defect(f: Operator) -> float:
    """max|f^dagger f - I|; zero exactly when f has orthonormal columns.
    On a carried form f^dagger f is diagonal: max| |phase|^2 - 1 |.  On a
    dense f only the block lower triangle of the Hermitian gram is formed,
    one block row of GRAM_BLOCK columns at a time, so past GRAM_BLOCK columns
    the defect may move in its last bits; up to GRAM_BLOCK columns the one
    block is the whole gram.  A NaN stays a NaN."""
    if f.cols == 0:
        return 0.0
    if f.form is not None:
        phase = f.form[1]
        return float(np.max(np.abs(phase.real ** 2 + phase.imag ** 2 - 1.0)))
    worst = 0.0
    for s in range(0, f.cols, GRAM_BLOCK):
        e = min(s + GRAM_BLOCK, f.cols)
        g = f.mat[:, s:e].conj().T @ f.mat[:, :e]  # block row s:e, columns up to e
        g.reshape(-1)[s::e + 1] -= 1.0  # the block's diagonal; matmul returns C order
        worst = np.abs(g).max(initial=worst)  # keeps a NaN; Python's max() drops it
    return float(worst)


def unitary_defect(f: Operator) -> float:
    """Defect of f as a unitary: worse of the two isometry defects."""
    if f.rows != f.cols:
        raise ShapeError(f"unitary candidate must be square, got {f.rows}x{f.cols}")
    return max(isometry_defect(f), isometry_defect(adjoint(f)))


def op_distance(f: Operator, g: Operator) -> float:
    """Max-norm distance between two operators of equal shape."""
    if f.mat.shape != g.mat.shape:
        raise ShapeError(f"cannot compare {f.rows}x{f.cols} with {g.rows}x{g.cols}")
    if f.mat.size == 0:
        return 0.0
    return float(np.max(np.abs(f.mat - g.mat)))


def random_isometry(rows: int, cols: int, seed) -> Operator:
    """Seeded random operator with orthonormal columns.

    Complex standard Gaussian matrix followed by QR, with the R diagonal
    phases pushed into Q so the distribution is invariant under left and
    right unitary multiplication.  rows = cols yields a random unitary.
    ``seed`` may be an integer or a numpy Generator.
    """
    if rows < cols:
        raise ShapeError(
            f"no isometry into a smaller space: rows {rows} < cols {cols}")
    if cols == 0:
        return zeros(rows, 0)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    z = z / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = np.where(np.abs(d) > 0, d, 1.0)
    ph = ph / np.abs(ph)
    return owned(q * ph)
