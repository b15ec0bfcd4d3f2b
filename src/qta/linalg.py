"""Dense complex operator kernel.

Conventions fixed here once and relied on by every other module:

* an operator f: X -> Y is a (dim Y) x (dim X) complex matrix acting on
  column vectors;
* the composite applying f first, then g, is ``g.mat @ f.mat``;
* the basis of a tensor product is lexicographic with the left factor
  outermost;
* the basis of a direct sum is the concatenation of the summand bases,
  left summand first;
* routing is by gather: ``summand_index`` lists basis indices in their
  new order, so ``tau.mat[np.ix_(rows, cols)]`` relabels a transition's
  summands without a permutation matrix or any arithmetic.

All rank decisions (pseudoinverse cutoffs, kernel dimensions) use a
relative singular value threshold ``tol * sigma_max`` so they are scale
invariant.
"""

from __future__ import annotations

import numpy as np

# Relative singular value cutoff for rank decisions.
RANK_TOL = 1e-10

# Default acceptance threshold for max|f^dagger f - I|.
ISOMETRY_TOL = 1e-9


class ShapeError(ValueError):
    """Operator dimensions do not conform."""


class IsometryError(ValueError):
    """An operator required to be an isometry is not one.

    The observed defect max|f^dagger f - I| is kept in ``defect``.
    """

    def __init__(self, message, defect):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = float(defect)


class Operator:
    """A linear map between finite dimensional complex spaces.

    The wrapped matrix has shape (rows, cols) = (codomain dim, domain dim)
    and acts on column vectors.  Entries must be finite.  The array is
    copied in and marked read-only, so instances may be shared freely.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2:
            raise ShapeError(
                f"operator entries must form a matrix, got ndim={mat.ndim}")
        if mat.size and not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        mat.setflags(write=False)
        self.mat = mat

    @property
    def rows(self) -> int:
        return self.mat.shape[0]

    @property
    def cols(self) -> int:
        return self.mat.shape[1]

    def __repr__(self):
        return f"Operator({self.rows}x{self.cols})"


def identity(n: int) -> Operator:
    return Operator(np.eye(n))


def zeros(rows: int, cols: int) -> Operator:
    return Operator(np.zeros((rows, cols)))


def adjoint(f: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(f.mat.conj().T)


def kron(f: Operator, g: Operator) -> Operator:
    """Multiplicative tensor with f's indices outermost."""
    return Operator(np.kron(f.mat, g.mat))


def dsum(f: Operator, g: Operator) -> Operator:
    """Additive tensor: block diagonal operator, f's summand first."""
    out = np.zeros((f.rows + g.rows, f.cols + g.cols), dtype=complex)
    out[:f.rows, :f.cols] = f.mat
    out[f.rows:, f.cols:] = g.mat
    return Operator(out)


def summand_index(h: int, dims, order) -> np.ndarray:
    """Gather index of H (x) (D_0 (+) ... (+) D_n-1) listing summands in order.

    For each basis vector of the h-dimensional state factor (outermost),
    the flat indices of summands order[0], order[1], ... follow one
    another.  A permutation of range(n) reorders the summands in place;
    a subset selects them, and concatenating the indices of [0], [1], ...
    gives the distributivity layout (H (x) D_0) (+) (H (x) D_1) (+) ...
    """
    offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
    inner = np.concatenate([np.arange(offsets[j], offsets[j + 1]) for j in order])
    return (offsets[-1] * np.arange(h)[:, None] + inner).reshape(-1)


def _permutation(index) -> Operator:
    """The operator sending v to v[index]."""
    return Operator(np.eye(len(index))[index])


def tensor_swap(m: int, n: int) -> Operator:
    """Symmetry of the multiplicative tensor, sending basis (i, j) to (j, i)."""
    return _permutation(np.arange(m * n).reshape(m, n).T.reshape(-1))


def sum_swap(m: int, n: int) -> Operator:
    """Symmetry of the additive tensor, the block antidiagonal [[0, I], [I, 0]]."""
    return _permutation(summand_index(1, [m, n], [1, 0]))


def mp_inverse(f: Operator, tol: float = RANK_TOL) -> Operator:
    """Moore-Penrose inverse via SVD.

    Singular values above tol * sigma_max are inverted, the rest are
    zeroed, so a zero matrix maps to a zero matrix.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if f.mat.size == 0:
        return zeros(f.cols, f.rows)
    u, s, vh = np.linalg.svd(f.mat, full_matrices=False)
    if s[0] <= 0.0:
        return zeros(f.cols, f.rows)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > tol * s[0])
    return Operator((vh.conj().T * inv) @ u.conj().T)


def isometry_defect(f: Operator) -> float:
    """max|f^dagger f - I|; zero exactly when f has orthonormal columns."""
    if f.cols == 0:
        return 0.0
    g = f.mat.conj().T @ f.mat
    return float(np.max(np.abs(g - np.eye(f.cols))))


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


def kernel_on_top(a: Operator, tol: float = RANK_TOL):
    """Unitary similarity isolating ker(I - a) as the leading summand.

    Returns (s, r) with s unitary and r = dim ker(I - a) at the relative
    tolerance tol, such that s (I - a) s^dagger has its first r rows zero.
    The kernel is computed from the SVD of (I - a), which stays robust when
    a is not normal.
    """
    if a.rows != a.cols:
        raise ShapeError(f"kernel_on_top needs a square operator, got {a.rows}x{a.cols}")
    n = a.rows
    if n == 0:
        return identity(0), 0
    m = np.eye(n) - a.mat
    u, s, _ = np.linalg.svd(m)
    if s[0] > 0.0:
        r = int(np.count_nonzero(s <= tol * s[0]))
    else:
        r = n  # a = I, everything is kernel
    order = np.concatenate([np.arange(n - r, n), np.arange(n - r)]).astype(int)
    return Operator(u[:, order].conj().T), r


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
    return Operator(q * ph)
