import importlib.util
import json
import os

import numpy as np
import pytest

from qta import axioms
from qta.linalg import (
    RANK_TOL,
    IsometryError,
    Operator,
    ShapeError,
    adjoint,
    dsum,
    identity,
    gather,
    isometry_defect,
    monomial,
    op_distance,
    owned,
    random_isometry,
    sum_swap,
    summand_index,
    zeros,
)
from qta.trace import (
    BlockMap,
    ConvergenceReport,
    _blocks,
    closed_form,
    kernel_image_trace,
    kleene_feedback,
    schur_feedback,
)
from test_axioms import injection, loop_walks

SWAP = Operator([[0, 1], [1, 0]])
ROTATION = Operator([[0, -1], [1, 0]])


def random_blockmap(u, k, l, seed):
    return BlockMap(random_isometry(u + l, u + k, seed), u, k, l)


def psd_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def dilation_blockmap(a):
    """Unitary with prescribed top-left block a (any contraction)."""
    u = a.shape[0]
    top = np.hstack([a, psd_sqrt(np.eye(u) - a @ a.conj().T)])
    bot = np.hstack([psd_sqrt(np.eye(u) - a.conj().T @ a), -a.conj().T])
    op = Operator(np.vstack([top, bot]))
    assert isometry_defect(op) <= 1e-12
    return BlockMap(op, u, u, u)


# ------------------------------------------------------------------ _blocks

def test_blocks_swap():
    a, b, c, d = _blocks(SWAP.mat, 1, 1, 1, 1)
    assert a[0, 0] == 0 and d[0, 0] == 0
    assert b[0, 0] == 1 and c[0, 0] == 1


def test_blocks_degenerate_splits():
    op = random_isometry(3, 2, 0)
    a, b, c, d = _blocks(op.mat, 1, 0, 2, 3)
    assert a.shape == (0, 0) and b.shape == (3, 0) and c.shape == (0, 2)
    assert op_distance(Operator(d), op) == 0.0
    sq = random_isometry(3, 3, 1)
    a, b, c, d = _blocks(sq.mat, 1, 3, 0, 0)
    assert d.shape == (0, 0)
    assert op_distance(Operator(a), sq) == 0.0


def test_blockmap_shape_validation():
    with pytest.raises(ShapeError):
        BlockMap(SWAP, 1, 1, 2)
    with pytest.raises(ValueError):
        BlockMap(SWAP, -1, 2, 2)


# ---------------------------------------------------------- schur_feedback

def test_schur_yanking_on_swap():
    out = schur_feedback(BlockMap(SWAP, 1, 1, 1))
    assert np.allclose(out.mat, [[1.0]])


def test_schur_rotation():
    out = schur_feedback(BlockMap(ROTATION, 1, 1, 1))
    assert np.allclose(out.mat, [[-1.0]])


def test_schur_kernel_case():
    phi = 0.7
    op = Operator(np.diag([1.0, np.exp(1j * phi)]))
    out = schur_feedback(BlockMap(op, 1, 1, 1))
    assert np.allclose(out.mat, [[np.exp(1j * phi)]])


def test_schur_rejects_non_isometry():
    bad = Operator([[1, 0], [1, 0]])
    with pytest.raises(IsometryError) as err:
        schur_feedback(BlockMap(bad, 1, 1, 1))
    assert err.value.defect == pytest.approx(1.0)


def test_schur_preserves_isometry():
    rng = np.random.default_rng(20)
    for i in range(100):
        u = int(rng.integers(0, 7))
        k = int(rng.integers(0, 7))
        l = k + int(rng.integers(0, 3))
        m = random_blockmap(u, k, l, int(rng.integers(0, 2**31)))
        out = schur_feedback(m)
        assert out.rows == l and out.cols == k
        assert isometry_defect(out) <= 1e-8


def test_schur_core_identity_when_invertible():
    # with (I - A) square invertible the closed form reduces to a plain
    # inverse and the result composed with its adjoint gives the identity
    rng = np.random.default_rng(21)
    checked = 0
    for i in range(60):
        u = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        m = random_blockmap(u, k, k, int(rng.integers(0, 2**31)))
        mat = m.op.mat
        a, b, c, d = mat[:u, :u], mat[u:, :u], mat[:u, u:], mat[u:, u:]
        n = np.eye(u) - a
        if np.linalg.cond(n) > 1e6:
            continue
        checked += 1
        s = Operator(d + b @ np.linalg.inv(n) @ c)
        assert op_distance(Operator(adjoint(s).mat @ s.mat), identity(k)) <= 1e-8
        assert op_distance(s, schur_feedback(m)) <= 1e-8
    assert checked >= 40


def test_schur_on_a_basis_aligned_kernel_runs_no_svd(monkeypatch):
    # identity(4) (+) Haar(60) at u = 32, the benchmark's singular family:
    # I - A has four exactly zero rows and columns, which mp_inverse
    # deflates before taking the LU path
    def no_svd(*args, **kwargs):
        raise AssertionError("the SVD ran")

    haar = random_isometry(60, 60, 31)
    monkeypatch.setattr("qta.linalg.np.linalg.svd", no_svd)
    out = schur_feedback(BlockMap(dsum(identity(4), haar), 32, 32, 32)).mat
    w = haar.mat
    a, c, b, d = w[:28, :28], w[:28, 28:], w[28:, :28], w[28:, 28:]
    oracle = d + b @ np.linalg.solve(np.eye(28) - a, c)
    assert np.max(np.abs(out - oracle)) <= 1e-12


def theta_blockmap(theta):
    """Real orthogonal 4x4 map, u = k = l = 2: a rotation by theta between
    loop and interface and one by 2 pi / 3, the loop turned by a fixed
    rotation.  I - A has sigma_min / sigma_max about theta^2 / 3, and the
    exact feedback is -I."""
    c, s, r = np.cos(theta), np.sin(theta), np.sqrt(3) / 2
    v = np.array([[c, 0, -s, 0], [0, -0.5, 0, -r], [s, 0, c, 0], [0, r, 0, -0.5]])
    turn = np.eye(4)
    turn[:2, :2] = [[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]]
    return BlockMap(Operator(turn @ v @ turn.T), 2, 2, 2)


@pytest.mark.parametrize("theta", [1e-3, 1e-4, 5e-5, 2e-5, 1.5e-5, 1e-5])
def test_schur_theta_family_flips_sign_at_the_rank_cutoff(theta):
    # the loop direction with eigenvalue cos(theta) is inverted while
    # theta^2 / 3 > RANK_TOL (output -1) and decouples below it (output
    # cos(theta), about +1); between 2e-5 and 1.5e-5 the output flips
    out = schur_feedback(theta_blockmap(theta)).mat
    expected = -1.0 if theta ** 2 / 3 > RANK_TOL else 1.0
    assert abs(out[0, 0] - expected) <= 1e-5
    assert abs(out[1, 1] + 1.0) <= 1e-5


def test_degenerate_witness_nested_and_joint():
    op = Operator([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    inner = schur_feedback(BlockMap(op, 1, 2, 2))
    # the inner feedback leaves an automaton whose loop block is exactly 1
    assert np.allclose(inner.mat, np.eye(2))
    nested = schur_feedback(BlockMap(inner, 1, 1, 1))
    joint = schur_feedback(BlockMap(op, 2, 1, 1))
    assert np.allclose(nested.mat, [[1.0]])
    assert np.allclose(joint.mat, [[1.0]])


def test_schur_u_zero_returns_op():
    op = random_isometry(3, 2, 3)
    out = schur_feedback(BlockMap(op, 0, 2, 3))
    assert op_distance(out, op) == 0.0


# --------------------------------------------------------- kleene_feedback

def test_kleene_swap():
    out, report = kleene_feedback(BlockMap(SWAP, 1, 1, 1))
    assert np.allclose(out.mat, [[1.0]])
    assert report.converged and report.steps == 1


def test_kleene_kernel_case_converges_immediately():
    op = Operator(np.diag([1.0, np.exp(0.3j)]))
    out, report = kleene_feedback(BlockMap(op, 1, 1, 1))
    assert np.allclose(out.mat, [[np.exp(0.3j)]])
    assert report.converged and report.steps == 0


def test_kleene_u_zero():
    op = random_isometry(2, 2, 4)
    out, report = kleene_feedback(BlockMap(op, 0, 2, 2))
    assert report.steps == 0 and report.converged
    assert op_distance(out, op) == 0.0


def test_kleene_rejects_a_negative_budget():
    with pytest.raises(ValueError) as err:
        kleene_feedback(BlockMap(SWAP, 1, 1, 1), max_n=-1)
    assert str(err.value) == "max_n must be nonnegative, got -1"


def test_kleene_agrees_with_schur_at_radius_half():
    rng = np.random.default_rng(22)
    for i in range(20):
        u = int(rng.integers(1, 5))
        a = (rng.standard_normal((u, u)) + 1j * rng.standard_normal((u, u)))
        radius = max(np.abs(np.linalg.eigvals(a)))
        a = 0.5 * a / radius  # spectral radius exactly 0.5
        m = dilation_blockmap(a)
        out, report = kleene_feedback(m, max_n=10_000)
        assert report.converged
        assert op_distance(out, schur_feedback(m)) <= 1e-8


def test_kleene_reports_nonconvergence_when_budget_too_small():
    # loop eigenvalue 0.999: the walk B A^n decays like 0.999^n, far above
    # machine epsilon after 50 steps, and the report must say so rather than
    # pretend the last iterate is the limit
    m = dilation_blockmap(np.array([[0.999]]))
    out, report = kleene_feedback(m, max_n=50)
    assert not report.converged
    assert report.residual > 1e-12


def test_kleene_runs_to_machine_precision_at_radius_0999():
    # an increment-size stop at 1e-10 ended 1.0e-7 from the closed form here
    m = dilation_blockmap(np.array([[0.999]]))
    out, report = kleene_feedback(m)
    assert report.converged
    assert op_distance(out, schur_feedback(m)) <= 1e-12


def test_kleene_follows_a_path_that_b_cannot_see_in_one_step():
    # k -> u1 -> u2 -> l: the first increment B C is exactly 0, and a stop
    # at the first small increment returned D = 0; the answer is B A C, and
    # the increments after it are 0 twice in a row (u = 2)
    mat = np.zeros((3, 3))
    mat[1, 0] = mat[2, 1] = mat[0, 2] = 1.0
    m = BlockMap(Operator(mat), 2, 1, 1)
    out, report = kleene_feedback(m)
    assert np.array_equal(out.mat, [[1.0]])
    assert report.converged and report.steps == 3


def test_kleene_converges_on_unit_modulus_loop_eigenvalues():
    # loop block diag(phases) (+) 0.7 Q: the unit-modulus eigenvalues other
    # than 1 decouple from B and C, so the plain partial sums still converge
    rng = np.random.default_rng(31)
    for seed in range(5):
        phases = np.exp(2j * np.pi * rng.uniform(0.05, 0.95, size=2))
        a = dsum(Operator(np.diag(phases)),
                 Operator(0.7 * random_isometry(3, 3, seed).mat)).mat
        m = dilation_blockmap(a)
        out, report = kleene_feedback(m)
        assert report.converged
        assert op_distance(out, schur_feedback(m)) <= 1e-8


def test_kleene_gates_input_at_isometry_tol_not_at_its_stopping_tol():
    # input defect 4.4e-16: above the machine-epsilon stop, far below
    # ISOMETRY_TOL
    m = BlockMap(random_isometry(6, 4, 3), 2, 2, 4)
    assert isometry_defect(m.op) > np.finfo(float).eps
    out, report = kleene_feedback(m)
    assert report.converged
    assert op_distance(out, schur_feedback(m)) <= 1e-14


def convergence_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "kleene_convergence.py")
    spec = importlib.util.spec_from_file_location("kleene_convergence", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_script_exits_0_when_every_row_matches(capsys):
    assert convergence_script().main(["--per-family", "1"]) == 0
    assert " False " not in capsys.readouterr().out


def test_convergence_script_exits_0_at_its_default_input(capsys):
    # seed 0, three draws per family, n up to 50000: 21 rows
    assert convergence_script().main([]) == 0
    out = capsys.readouterr().out
    assert out.count(" True ") == 21 and " False " not in out


def test_convergence_script_exits_1_on_a_row_that_does_not_converge(capsys):
    assert convergence_script().main(["--per-family", "1", "--max-n", "3"]) == 1
    assert capsys.readouterr().out.count(" False ") == 7


def test_convergence_script_exits_1_on_a_gap_above_the_law_tolerance(
        monkeypatch, capsys):
    # a converged row 2e-8 from the closed form, above CheckConfig's 1e-8
    def off(m, max_n):
        return (Operator(schur_feedback(m).mat + 2e-8),
                ConvergenceReport(steps=0, residual=0.0, converged=True))

    script = convergence_script()
    monkeypatch.setattr(script, "kleene_feedback", off)
    assert script.main(["--per-family", "1"]) == 1
    assert " False " not in capsys.readouterr().out


# ------------------------------------------------------ kernel_image_trace

def test_kit_swap():
    out, _ = kernel_image_trace(BlockMap(SWAP, 1, 1, 1))
    assert np.allclose(out.mat, [[1.0]])


def test_kit_kernel_case():
    phi = 1.1
    op = Operator(np.diag([1.0, np.exp(1j * phi)]))
    out, _ = kernel_image_trace(BlockMap(op, 1, 1, 1))
    assert np.allclose(out.mat, [[np.exp(1j * phi)]])


def test_kit_matches_schur_on_random_isometries():
    rng = np.random.default_rng(23)
    for i in range(200):
        u = int(rng.integers(0, 7))
        k = int(rng.integers(0, 7))
        l = k + int(rng.integers(0, 3))
        m = random_blockmap(u, k, l, int(rng.integers(0, 2**31)))
        kit, _ = kernel_image_trace(m)
        assert op_distance(kit, schur_feedback(m)) <= 1e-8


def test_kit_reports_the_residual_of_a_non_factoring_input():
    # near-isometry with an exact kernel: A = 1 so (I - A) = 0, but B = eps
    # does not vanish.  The defect is eps^2 = 1e-12 (inside the gate) while
    # the factorization residual is eps = 1e-6, above the law tolerance.
    eps = 1e-6
    s = np.sqrt(1.0 + eps * eps)
    bm = BlockMap(Operator([[1.0, -eps / s], [eps, 1.0 / s]]), 1, 1, 1)
    assert isometry_defect(bm.op) <= 1e-9
    out, residual = kernel_image_trace(bm)
    assert residual == pytest.approx(eps)
    assert op_distance(out, schur_feedback(bm)) == 0.0


@pytest.mark.parametrize("theta", [1e-3, 1e-4, 2e-5, 1.5e-5, 1e-5])
def test_kit_reports_the_rank_cutoff_on_the_theta_family(theta):
    # once theta^2 / 3 falls below RANK_TOL the cutoff drops the cos(theta)
    # loop direction that B and C still see: the kit returns, and its
    # residual shows what the closed form silently flipped
    bm = theta_blockmap(theta)
    out, residual = kernel_image_trace(bm)
    if theta ** 2 / 3 > RANK_TOL:
        assert residual <= 1e-8
    else:
        assert residual >= 1e-6
        assert op_distance(out, schur_feedback(bm)) <= 1e-12


# ------------------------------------------------------ the scalar star

# c* = (1 - c)^+, the star of the Conway identities, taken from mp_inverse

def test_scalar_star_values():
    star = axioms._star
    assert star(1.0) == 0.0
    assert star(0.5) == pytest.approx(2.0)
    assert star(0.0) == pytest.approx(1.0)


def test_scalar_star_conway_identities():
    star = axioms._star
    # product identity (ab)* = a (ba)* b + 1 holds away from the 1 case
    for a, b in [(0.5, 0.5), (0.2, -0.7), (0.3j, 0.4)]:
        lhs = star(a * b)
        rhs = a * star(b * a) * b + 1.0
        assert abs(lhs - rhs) <= 1e-12
    # both identities collapse at a = b = 1 because 1* = 0
    assert star(1 * 1) == 0.0
    assert 1 * star(1 * 1) * 1 + 1 == 1.0
    assert star(1.0 + 1.0) == pytest.approx(-1.0)
    assert star(star(1.0) * 1.0) * star(1.0) == 0.0


def test_scalar_star_is_the_exact_pseudoinverse_of_a_scalar():
    # deflation sends the zero 1x1 matrix to exactly 0, and a nonzero
    # 1 - c keeps its reciprocal at any relative cutoff; a Python complex,
    # so a comparison gives a bool that json serializes
    star = axioms._star
    assert star(1) == 0 and type(star(1)) is complex
    assert star(1 - 1e-13) == 1 / (1 - (1 - 1e-13))
    for c in [0.5, -2.0, 1 - 1e-13, 1 + 1e-9, 0.3 + 0.4j, 1 - 1e-14j, 2j]:
        ref = 1 / (1 - c)
        assert abs(star(c) - ref) <= 1e-15 * abs(ref), c
    assert json.dumps(star(0.5) == 2.0) == "true"


# ----------------------------------------------------------- path following

def planted_monomial(rng, u, k, l, cycle, closing, modulus):
    """A carried form U (+) K -> U (+) L (l >= k) in which `cycle` loop
    columns form a loop cycle, whose phase product is exactly 1 when
    closing (so I - A is singular) and random otherwise.  Other phases
    are random with modulus 1, or in [0.8, 1.25] when not modulus."""
    rows, cols = u + l, u + k
    phase = np.exp(2j * np.pi * rng.random(cols))
    if not modulus:
        phase *= rng.uniform(0.8, 1.25, cols)
    target = np.empty(cols, dtype=int)
    ring = rng.permutation(u)[:cycle]
    target[ring] = np.roll(ring, -1)
    if closing and cycle:
        # products of these four values are exact
        phase[ring] = rng.choice([1, -1, 1j, -1j], cycle)
        phase[ring[-1]] = np.prod(phase[ring[:-1]]).conjugate()
    elif cycle:
        phase[ring] = np.exp(2j * np.pi * rng.random(cycle))
    rest = np.setdiff1d(np.arange(cols), ring)
    free = rng.permutation(np.setdiff1d(np.arange(rows), ring))
    target[rest] = free[:rest.size]
    return monomial(rows, target, phase)


FAMILY = [(u, k, l, cycle, closing, modulus)
          for u, k, l in [(0, 3, 3), (1, 1, 1), (3, 2, 2), (5, 2, 4), (6, 3, 3),
                          (4, 0, 2), (7, 0, 0), (8, 4, 5)]
          for cycle in sorted({0, min(u, 1), min(u, 3), u})
          for closing in (True, False) for modulus in (True, False)]


@pytest.mark.parametrize("seed", range(3))
def test_path_feedback_equals_the_closed_form(seed):
    # the carried closed form follows paths; the dense one inverts I - A:
    # loops of every length, cycles the SVD drops and cycles LU inverts,
    # u = 0 and u = everything, unit and non-unit phases
    rng = np.random.default_rng(seed)
    for u, k, l, cycle, closing, modulus in FAMILY:
        f = planted_monomial(rng, u, k, l, cycle, closing, modulus)
        out = closed_form(f, 1, u)
        mat = f.mat
        ref = closed_form(owned(np.array(mat)), 1, u)
        assert out.form is not None and out.shape == (l, k)
        assert op_distance(out, ref) <= 1e-12, (u, k, l, cycle, closing)
        loop = np.eye(u) - mat[:u, :u]
        assert (np.linalg.matrix_rank(loop) < u) == (closing and cycle > 0)
        if modulus:
            carried_out = schur_feedback(BlockMap(f, u, k, l))
            dense_out = schur_feedback(BlockMap(owned(np.array(mat)), u, k, l))
            assert carried_out.form is not None and dense_out.form is None
            assert op_distance(carried_out, dense_out) <= 1e-12


def relabel_then_walk(f, h, u):
    """The carried closed form by its earlier route: gather f into the
    layout (H (x) U) (+) (H (x) rest), then walk each input column's path
    through the first h u columns."""
    rows, cols = (np.concatenate([summand_index(h, [u, n], [0]),
                                  summand_index(h, [u, n], [1])])
                  for n in (f.rows // h - u, f.cols // h - u))
    target, phase = gather(f, rows, cols).form
    n = h * u
    out, phases = target[n:].copy(), phase[n:].copy()
    for _ in range(n):
        inside = np.flatnonzero(out < n)
        if inside.size == 0:
            break
        loop = out[inside]
        phases[inside] = phase[loop] * phases[inside]
        out[inside] = target[loop]
    return monomial(f.rows - n, out - n, phases)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_carried_closed_form_walks_paths_on_its_own_indices(h):
    # bit for bit the relabel-then-walk route, and within rounding the
    # dense closed form of the form-stripped twin
    rng = np.random.default_rng(h)
    cycles = multi_step = 0
    for i in range(300):
        u, k = int(rng.integers(0, 5)), int(rng.integers(0, 4))
        l = k + int(rng.integers(0, 3))
        f = injection(rng, h * (u + l), h * (u + k), i % 2 == 0)
        cycle, steps = loop_walks(f, h, u)
        cycles, multi_step = cycles + cycle, multi_step + (steps >= 2)
        out, ref = closed_form(f, h, u), relabel_then_walk(f, h, u)
        assert out.shape == ref.shape == (h * l, h * k)
        assert np.array_equal(out.form[0], ref.form[0])
        assert out.form[1].tobytes() == ref.form[1].tobytes()
        twin = closed_form(owned(np.array(f.mat)), h, u)
        assert op_distance(out, twin) <= 1e-12, (h, u, k, l)
    assert cycles >= 30 and multi_step >= 30
