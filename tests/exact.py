"""Exact feedback in rational arithmetic: an oracle for qta.trace.

Standard library only.  A matrix is a list of rows of Fraction.

On an isometry, B G C is the same for every generalized inverse G of
I - A (see the qta.trace docstring).  So solving (I - A) X = C by exact
Gauss-Jordan elimination, with every free variable set to 0, gives the
Moore-Penrose feedback D + B X exactly, with no rank decision.  The solver
asserts that the system is consistent, C in ran(I - A); that assertion is
itself a check of the theorem.

Exact isometries:
- cayley(n, rng): the Cayley transform (I - S)(I + S)^-1 of a random
  integer skew-symmetric S, which is orthogonal (S has imaginary
  eigenvalues, so I + S is invertible); its leading columns are a
  rectangular isometry;
- rotation(t): the rational rotation with cos = (1 - t^2) / (1 + t^2) and
  sin = 2t / (1 + t^2), by the angle 2 atan(t);
- theta_map(t): the theta family, whose exact feedback is -I for every t;
- planted_kernel(r, w, u2, k, l): identity(r) (+) w with its loop turned
  by a rotation, so that ker(I - A) is exact but on no basis vector;
- phased(f, rows, cols): diag(rows) f diag(cols) for Gaussian-rational
  unit phases (unit_phase), a complex isometry given as (re, im).

A complex matrix is solved through its realification (realify), with the
real 2x2 block [[x, -y], [y, x]] in place of each entry x + iy.  That
keeps products, adjoints (as transposes) and so the Penrose equations,
and leading rows and columns stay leading: the realified feedback over
2u is the realification of the complex feedback over u (derealify).

The library is handed the float rounding of a rational isometry, while
the oracle answers for the rational one.  Their difference is that input
rounding amplified by the conditioning of I - A: a comparison's tolerance
has to grow with the conditioning, and the theta family makes that visible.
"""

from fractions import Fraction


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def eye(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def matmul(a, b, cols):
    """a @ b, where b has cols columns (b may have no rows)."""
    return [[sum((row[t] * b[t][j] for t in range(len(b)) if row[t]), Fraction(0))
             for j in range(cols)] for row in a]


def transpose(a, cols):
    return [[row[j] for row in a] for j in range(cols)]


def solve(m, c, cols):
    """A solution X of m X = c for square m, with every free variable 0;
    AssertionError when c is not in the range of m."""
    n = len(m)
    rows = [list(m[i]) + list(c[i]) for i in range(n)]
    pivots = []
    for j in range(n):
        r = len(pivots)
        p = next((i for i in range(r, n) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][j]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(j)
    assert not any(x for row in rows[len(pivots):] for x in row[n:]), \
        "inconsistent: C is not in ran(I - A)"
    x = zeros(n, cols)
    for row, j in zip(rows, pivots):
        x[j] = row[n:]
    return x


def feedback(f, u, k, l, h=1):
    """Exact D + B X with (I - A) X = C, closing f: H (x) (U (+) K) ->
    H (x) (U (+) L) over H (x) U, in qta's layout (state factor outermost)."""
    loop_rows = [a * (u + l) + p for a in range(h) for p in range(u)]
    out_rows = [a * (u + l) + u + j for a in range(h) for j in range(l)]
    loop_cols = [a * (u + k) + p for a in range(h) for p in range(u)]
    in_cols = [a * (u + k) + u + j for a in range(h) for j in range(k)]

    def block(rows, cols):
        return [[f[r][c] for c in cols] for r in rows]

    a, b = block(loop_rows, loop_cols), block(out_rows, loop_cols)
    c, d = block(loop_rows, in_cols), block(out_rows, in_cols)
    n = h * u
    i_minus_a = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    bx = matmul(b, solve(i_minus_a, c, h * k), h * k)
    return [[x + y for x, y in zip(dr, br)] for dr, br in zip(d, bx)]


def cayley(n, rng, spread=1):
    """(I - S)(I + S)^-1 for a skew-symmetric S with integer entries drawn
    from -spread..spread by rng (a random.Random).  The factors commute, so
    this is the solution of (I + S) Q = I - S, found by fraction-free
    Gauss-Jordan elimination (Bareiss): every entry stays an integer minor,
    every division is exact, and the left block ends as d I, d = +-det(I + S)."""
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = rng.randint(-spread, spread)
            s[j][i] = -s[i][j]
    m = [[(i == j) + s[i][j] for j in range(n)] + [(i == j) - s[i][j] for j in range(n)]
         for i in range(n)]
    prev = 1
    for j in range(n):
        p = next(i for i in range(j, n) if m[i][j])
        m[j], m[p] = m[p], m[j]
        for i in range(n):
            if i != j:
                m[i] = [(m[j][j] * x - m[i][j] * y) // prev for x, y in zip(m[i], m[j])]
        prev = m[j][j]
    return [[Fraction(x, prev) for x in row[n:]] for row in m]


def rotation(t):
    """[[cos, -sin], [sin, cos]] by the angle 2 atan(t), t rational."""
    t = Fraction(t)
    cos, sin = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return [[cos, -sin], [sin, cos]]


def conjugate_loop(f, turn, u, k, l):
    """(turn (+) I_l) f (turn (+) I_k)^T for a u x u orthogonal turn: the
    loop space turned on both sides, which leaves the feedback unchanged."""
    def widen(n):
        out = eye(u + n)
        for i in range(u):
            out[i][:u] = turn[i]
        return out

    left, right = widen(l), widen(k)
    return matmul(matmul(left, f, u + k), transpose(right, u + k), u + k)


def theta_map(t):
    """Orthogonal 4x4 map with u = k = l = 2: a rotation by 2 atan(t)
    between loop and interface, and one with cos = -3/5 between the other
    loop and interface position, the loop turned by rotation(3/10).  I - A
    has sigma_min / sigma_max = (1 - cos) / (8/5), about theta^2 / 3.2, and
    the exact feedback is -I: cos - sin^2 / (1 - cos) = -1 for each pair."""
    (c, ms), (s, _) = rotation(t)
    (c2, ms2), (s2, _) = rotation(2)  # cos -3/5, sin 4/5
    v = [[c, 0, ms, 0], [0, c2, 0, ms2], [s, 0, c, 0], [0, s2, 0, c2]]
    return conjugate_loop(v, rotation(Fraction(3, 10)), 2, 2, 2)


def planted_kernel(r, w, u2, k, l):
    """identity(r) (+) w as an operator U (+) K -> U (+) L with u = r + u2,
    for w: U2 (+) K -> U2 (+) L, its loop turned by rotation(1/2) in the
    plane of loop positions 0 and r.  ker(I - A) has dimension at least r
    and holds no basis vector; the exact feedback is w's over U2."""
    u = r + u2
    f = zeros(u + l, u + k)
    for i in range(r):
        f[i][i] = Fraction(1)
    for i in range(u2 + l):
        for j in range(u2 + k):
            f[r + i][r + j] = w[i][j]
    turn = eye(u)
    (c, ms), (s, _) = rotation(Fraction(1, 2))
    turn[0][0], turn[0][r], turn[r][0], turn[r][r] = c, ms, s, c
    return conjugate_loop(f, turn, u, k, l)


def unit_phase(rng, spread=4):
    """A seeded Gaussian-rational unit (a + bi) / c as (cos, sin) of
    rotation(t), t = m/n with |m|, n <= spread: the Pythagorean triple
    (n^2 - m^2, 2mn, n^2 + m^2)."""
    (cos, _), (sin, _) = rotation(Fraction(rng.randint(-spread, spread),
                                           rng.randint(1, spread)))
    return cos, sin


def phased(f, rows, cols):
    """(re, im) of diag(rows) f diag(cols) for a real f and (cos, sin)
    phases rows and cols."""
    re = [[x * (pc * qc - ps * qs) for x, (qc, qs) in zip(row, cols)]
          for row, (pc, ps) in zip(f, rows)]
    im = [[x * (pc * qs + ps * qc) for x, (qc, qs) in zip(row, cols)]
          for row, (pc, ps) in zip(f, rows)]
    return re, im


def realify(re, im):
    """The real matrix with [[x, -y], [y, x]] in place of each x + iy."""
    out = []
    for rr, ir in zip(re, im):
        out.append([v for x, y in zip(rr, ir) for v in (x, -y)])
        out.append([v for x, y in zip(rr, ir) for v in (y, x)])
    return out


def derealify(r):
    """(re, im) of a realified matrix, read from its blocks' first columns."""
    return [row[::2] for row in r[::2]], [row[::2] for row in r[1::2]]


def to_float(a):
    """Nearest floats, as nested lists."""
    return [[float(x) for x in row] for row in a]
