"""Seeded numerical law checks for the feedback trace and everything on top.

Laws come in groups selected by CheckConfig.law_set:

  trace-axioms          naturality, sliding, vanishing (with a dedicated
                        forced-kernel variant), superposing, yanking --
                        once for isometric block operators under the
                        closed-form feedback, once for automata under
                        feedback_dqta.
  dagger                feedback commutes with adjoints (operators) and
                        with dagger_dqta (automata).
  kit-equivalence       factorization trace equals the closed form,
                        including planted-kernel instances.
  kleene-equivalence    iterated partial sums converge to the closed
                        form when the loop spectral radius stays below
                        1 - 1e-3 (instances are resampled into that
                        region).
  tensor-compat         closing a loop commutes with tensoring a
                        spectator space.
  int0-laws             category laws, triangle identities, symmetry
                        and unit coherences, dagger laws, yanking for
                        the canonical trace.
  functor-F             the automaton -> morphism functor preserves
                        identity, composition, dagger, and feedback.
  conway-counterexample the scalar star identities that are expected to
                        FAIL under the pseudoinverse star.

Every instance derives its own generator from (seed, instance index), so
serial and parallel runs agree and each report carries the seed of its
worst instance for exact reproduction.  Laws that compare machines whose
state factors end up tensored in different orders apply an explicit
permutation witness before measuring the violation.

Reports serialize one JSON record per line; the record field is named
"pass" while the dataclass attribute is "passed" (Python keyword).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    Operator,
    adjoint,
    dsum,
    identity,
    kernel_on_top,
    kron,
    op_distance,
    random_isometry,
    sum_swap,
    tensor_swap,
)
from .trace import (
    BlockMap,
    kernel_image_trace,
    kleene_feedback,
    scalar_star,
    schur_feedback,
)
from .dqta import (
    cascade,
    dagger_dqta,
    feedback_dqta,
    make_dqta,
    make_unitary_dqta,
    turing_tensor,
    unit_automata,
    witnessed_distance,
)
from .intcat import (
    Int0Morphism,
    canonical_trace,
    functor_image,
    int_compose,
    int_dagger,
    int_identity,
    int_symmetry,
    int_tensor,
    int_units,
)

LAW_GROUPS = (
    "trace-axioms",
    "dagger",
    "kit-equivalence",
    "kleene-equivalence",
    "tensor-compat",
    "int0-laws",
    "functor-F",
    "conway-counterexample",
)

# report ids that must fail for the suite to count as passing
EXPECTED_FAIL = frozenset({"conway-star-identities"})


@dataclass(frozen=True)
class CheckConfig:
    seed: int = 0
    instances: int = 200
    max_dim: int = 6
    tolerance: float = 1e-8
    law_set: tuple = LAW_GROUPS

    def __post_init__(self):
        if self.instances < 0:
            raise ValueError(f"instances must be nonnegative, got {self.instances}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        unknown = set(self.law_set) - set(LAW_GROUPS)
        if unknown:
            raise ValueError(f"unknown law groups: {sorted(unknown)}")


@dataclass(frozen=True)
class LawReport:
    law: str
    instances_run: int
    max_violation: float
    passed: bool
    worst_seed: int


def instance_seed(seed: int, index: int) -> int:
    """Generator seed of one instance; stable under parallel evaluation."""
    root = np.random.SeedSequence([seed % (2 ** 63), index])
    return int(root.generate_state(1)[0])


def _run_law(law, cfg, eval_one):
    worst_seed = cfg.seed
    max_v = 0.0
    for i in range(cfg.instances):
        s = instance_seed(cfg.seed, i)
        v = float(eval_one(np.random.default_rng(s), i))
        if v > max_v:
            max_v, worst_seed = v, s
    return LawReport(law, cfg.instances, max_v, max_v <= cfg.tolerance, worst_seed)


# --------------------------------------------------- operator-level axioms

def _iso(rng, rows, cols):
    return random_isometry(rows, cols, rng)


def _ev_nat_input(cfg):
    def ev(rng, idx):
        u = 0 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        a = int(rng.integers(1, cfg.max_dim + 1))
        a2 = a + int(rng.integers(0, 3))
        b = a2 + int(rng.integers(0, 3))
        f = _iso(rng, u + b, u + a2)
        g = _iso(rng, a2, a)
        lhs = schur_feedback(
            BlockMap(Operator(f.mat @ dsum(identity(u), g).mat), u, a, b))
        rhs = Operator(schur_feedback(BlockMap(f, u, a2, b)).mat @ g.mat)
        return op_distance(lhs, rhs)
    return ev


def _ev_nat_output(cfg):
    def ev(rng, idx):
        u = 0 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        a = int(rng.integers(1, cfg.max_dim + 1))
        b2 = a + int(rng.integers(0, 3))
        b = b2 + int(rng.integers(0, 3))
        f = _iso(rng, u + b2, u + a)
        g = _iso(rng, b, b2)
        lhs = schur_feedback(
            BlockMap(Operator(dsum(identity(u), g).mat @ f.mat), u, a, b))
        rhs = Operator(g.mat @ schur_feedback(BlockMap(f, u, a, b2)).mat)
        return op_distance(lhs, rhs)
    return ev


def _ev_sliding(cfg):
    def ev(rng, idx):
        u = 0 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        a = int(rng.integers(1, cfg.max_dim + 1))
        b = a + int(rng.integers(0, 3))
        f = _iso(rng, u + b, u + a)
        sigma = _iso(rng, u, u)
        lhs = schur_feedback(
            BlockMap(Operator(dsum(sigma, identity(b)).mat @ f.mat), u, a, b))
        rhs = schur_feedback(
            BlockMap(Operator(f.mat @ dsum(sigma, identity(a)).mat), u, a, b))
        return op_distance(lhs, rhs)
    return ev


def _ev_vanishing_unit(cfg):
    def ev(rng, idx):
        a = int(rng.integers(1, cfg.max_dim + 1))
        b = a + int(rng.integers(0, 3))
        f = _iso(rng, b, a)
        return op_distance(schur_feedback(BlockMap(f, 0, a, b)), f)
    return ev


def _ev_vanishing_pair(cfg):
    def ev(rng, idx):
        u = 0 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        v = 0 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        a = int(rng.integers(1, cfg.max_dim + 1))
        b = a + int(rng.integers(0, 3))
        f = _iso(rng, u + v + b, u + v + a)
        inner = schur_feedback(BlockMap(f, u, v + a, v + b))
        nested = schur_feedback(BlockMap(inner, v, a, b))
        joint = schur_feedback(BlockMap(f, u + v, a, b))
        return op_distance(nested, joint)
    return ev


def _signed_permutation(rng, n):
    """Unitary with one exact unit entry per row: products stay exact."""
    mat = np.zeros((n, n), dtype=complex)
    units = np.array([1.0, -1.0, 1.0j, -1.0j])
    for row, col in enumerate(rng.permutation(n)):
        mat[row, col] = units[int(rng.integers(0, 4))]
    return Operator(mat)


def _ev_vanishing_kernel(cfg):
    # two-way shuttle between U and V plus a bystander: the shuttle is an
    # exact signed permutation, so the inner feedback's loop block is the
    # identity on the nose and the degenerate branch is really exercised
    def ev(rng, idx):
        u = int(rng.integers(1, cfg.max_dim + 1))
        a = int(rng.integers(1, cfg.max_dim + 1))
        b = a + int(rng.integers(0, 3))
        sig = _signed_permutation(rng, u)
        d_op = _iso(rng, b, a)
        op = np.zeros((2 * u + b, 2 * u + a), dtype=complex)
        op[:u, u:2 * u] = sig.mat
        op[u:2 * u, :u] = sig.mat.conj().T
        op[2 * u:, 2 * u:] = d_op.mat
        f = Operator(op)
        inner = schur_feedback(BlockMap(f, u, u + a, u + b))
        _, rank = kernel_on_top(Operator(inner.mat[:u, :u]))
        assert rank >= 1, "generator failed to plant a kernel"
        nested = schur_feedback(BlockMap(inner, u, a, b))
        joint = schur_feedback(BlockMap(f, 2 * u, a, b))
        return max(op_distance(nested, joint), op_distance(nested, d_op),
                   op_distance(joint, d_op))
    return ev


def _ev_superposing(cfg):
    def ev(rng, idx):
        u = int(rng.integers(1, cfg.max_dim + 1))
        a = int(rng.integers(1, cfg.max_dim + 1))
        b = a + int(rng.integers(0, 3))
        c = 0 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        d = c + int(rng.integers(0, 3))
        f = _iso(rng, u + b, u + a)
        g = _iso(rng, d, c)
        lhs = schur_feedback(BlockMap(dsum(f, g), u, a + c, b + d))
        rhs = dsum(schur_feedback(BlockMap(f, u, a, b)), g)
        return op_distance(lhs, rhs)
    return ev


def _ev_yanking(cfg):
    def ev(rng, idx):
        u = 1 if idx == 0 else int(rng.integers(1, cfg.max_dim + 1))
        out = schur_feedback(BlockMap(sum_swap(u, u), u, u, u))
        return op_distance(out, identity(u))
    return ev


# --------------------------------------------------- automaton-level axioms

def _rand_auto(rng, h, k, l):
    return make_dqta(h, k, l, random_isometry(h * l, h * k, rng))


def _auto_dims(rng, cap):
    """u >= 1 and side dims with u + side <= cap."""
    u = int(rng.integers(1, max(2, cap)))
    kp = int(rng.integers(0, cap - u + 1))
    lp = min(kp + int(rng.integers(0, 2)), cap - u)
    return u, kp, lp


def _ev_dqt_nat_input(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        u, kp, lp = _auto_dims(rng, cap)
        kg = int(rng.integers(0, kp + 1))
        f = _rand_auto(rng, int(rng.integers(1, cap + 1)), u + kp, u + lp)
        g = _rand_auto(rng, int(rng.integers(1, cap + 1)), kg, kp)
        ident_u = unit_automata(u, u)[0]
        lhs = feedback_dqta(cascade(turing_tensor(ident_u, g), f), u)
        rhs = cascade(g, feedback_dqta(f, u))
        return op_distance(lhs.tau, rhs.tau)
    return ev


def _ev_dqt_nat_output(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        u, kp, lp = _auto_dims(rng, cap)
        lg = lp + int(rng.integers(0, 2))
        f = _rand_auto(rng, int(rng.integers(1, cap + 1)), u + kp, u + lp)
        g = _rand_auto(rng, int(rng.integers(1, cap + 1)), lp, lg)
        ident_u = unit_automata(u, u)[0]
        lhs = feedback_dqta(cascade(f, turing_tensor(ident_u, g)), u)
        rhs = cascade(feedback_dqta(f, u), g)
        return op_distance(lhs.tau, rhs.tau)
    return ev


def _ev_dqt_sliding(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        u, kp, lp = _auto_dims(rng, cap)
        f = _rand_auto(rng, int(rng.integers(1, cap + 1)), u + kp, u + lp)
        s = make_unitary_dqta(1, u, random_isometry(u, u, rng))
        ident_k = unit_automata(kp, kp)[0]
        ident_l = unit_automata(lp, lp)[0]
        lhs = feedback_dqta(cascade(f, turing_tensor(s, ident_l)), u)
        rhs = feedback_dqta(cascade(turing_tensor(s, ident_k), f), u)
        return op_distance(lhs.tau, rhs.tau)
    return ev


def _ev_dqt_vanishing_unit(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        k = int(rng.integers(1, cap + 1))
        l = k + int(rng.integers(0, 2))
        t = _rand_auto(rng, int(rng.integers(1, cap + 1)), k, l)
        return op_distance(feedback_dqta(t, 0).tau, t.tau)
    return ev


def _ev_dqt_vanishing_pair(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        u, v = 1, 1
        kp = int(rng.integers(0, cap - 1))
        lp = min(kp + int(rng.integers(0, 2)), cap - 2)
        t = _rand_auto(rng, int(rng.integers(1, cap + 1)), u + v + kp, u + v + lp)
        nested = feedback_dqta(feedback_dqta(t, u), v)
        joint = feedback_dqta(t, u + v)
        return op_distance(nested.tau, joint.tau)
    return ev


def _ev_dqt_superposing(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        u, kp, lp = _auto_dims(rng, cap)
        kg = int(rng.integers(0, cap + 1))
        lg = kg + int(rng.integers(0, 2))
        f = _rand_auto(rng, int(rng.integers(1, cap + 1)), u + kp, u + lp)
        g = _rand_auto(rng, int(rng.integers(1, cap + 1)), kg, lg)
        lhs = feedback_dqta(turing_tensor(f, g), u)
        rhs = turing_tensor(feedback_dqta(f, u), g)
        return op_distance(lhs.tau, rhs.tau)
    return ev


def _ev_dqt_yanking(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        k = int(rng.integers(1, cap + 1))
        sym = unit_automata(k, k)[1]
        out = feedback_dqta(sym, k)
        return op_distance(out.tau, identity(k))
    return ev


def check_trace_axioms(cfg: CheckConfig):
    """Trace axiom reports, operator level first, then automaton level."""
    return [
        _run_law("trace-naturality-input", cfg, _ev_nat_input(cfg)),
        _run_law("trace-naturality-output", cfg, _ev_nat_output(cfg)),
        _run_law("trace-sliding", cfg, _ev_sliding(cfg)),
        _run_law("trace-vanishing-unit", cfg, _ev_vanishing_unit(cfg)),
        _run_law("trace-vanishing-pair", cfg, _ev_vanishing_pair(cfg)),
        _run_law("trace-vanishing-kernel", cfg, _ev_vanishing_kernel(cfg)),
        _run_law("trace-superposing", cfg, _ev_superposing(cfg)),
        _run_law("trace-yanking", cfg, _ev_yanking(cfg)),
        _run_law("dqt-naturality-input", cfg, _ev_dqt_nat_input(cfg)),
        _run_law("dqt-naturality-output", cfg, _ev_dqt_nat_output(cfg)),
        _run_law("dqt-sliding", cfg, _ev_dqt_sliding(cfg)),
        _run_law("dqt-vanishing-unit", cfg, _ev_dqt_vanishing_unit(cfg)),
        _run_law("dqt-vanishing-pair", cfg, _ev_dqt_vanishing_pair(cfg)),
        _run_law("dqt-superposing", cfg, _ev_dqt_superposing(cfg)),
        _run_law("dqt-yanking", cfg, _ev_dqt_yanking(cfg)),
    ]


# --------------------------------------------------------- equivalence laws

def _ev_kleene(cfg):
    stop_tol = cfg.tolerance * 1e-3
    def ev(rng, idx):
        if idx == 0:
            # the quarter-turn: loop block 0, agreement is immediate
            m = BlockMap(Operator([[0.0, -1.0], [1.0, 0.0]]), 1, 1, 1)
        else:
            u = int(rng.integers(1, cfg.max_dim + 1))
            k = int(rng.integers(1, cfg.max_dim + 1))
            l = k + int(rng.integers(0, 3))
            m = None
            for _ in range(100):
                cand = BlockMap(_iso(rng, u + l, u + k), u, k, l)
                radius = float(np.max(np.abs(
                    np.linalg.eigvals(cand.op.mat[:u, :u]))))
                if radius <= 1.0 - 1e-3:
                    m = cand
                    break
            if m is None:
                # fall back to a loop block that is exactly zero
                m = BlockMap(sum_swap(k, k), k, k, k)
        out, report = kleene_feedback(m, max_n=100_000, tol=stop_tol)
        if not report.converged:
            return 1.0 + report.residual
        return op_distance(out, schur_feedback(m))
    return ev


def _ev_kit(cfg):
    def ev(rng, idx):
        if idx == 0:
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            m = BlockMap(Operator(np.diag([1.0, phase])), 1, 1, 1)
        elif idx % 3 == 2:
            # plant an exact kernel: identity summand in front of a random
            # isometric block operator
            r = int(rng.integers(1, 3))
            u2 = int(rng.integers(1, cfg.max_dim))
            k = int(rng.integers(1, cfg.max_dim + 1))
            l = k + int(rng.integers(0, 3))
            w = _iso(rng, u2 + l, u2 + k)
            m = BlockMap(dsum(identity(r), w), r + u2, k, l)
        else:
            u = int(rng.integers(1, cfg.max_dim + 1))
            k = int(rng.integers(1, cfg.max_dim + 1))
            l = k + int(rng.integers(0, 3))
            m = BlockMap(_iso(rng, u + l, u + k), u, k, l)
        return op_distance(kernel_image_trace(m), schur_feedback(m))
    return ev


def _ev_tensor_compat(cfg):
    def ev(rng, idx):
        u = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        l = k + int(rng.integers(0, 2))
        m_dim = 1 if idx == 0 else int(rng.integers(1, 4))
        bm = BlockMap(_iso(rng, u + l, u + k), u, k, l)
        lhs = kron(schur_feedback(bm), identity(m_dim))
        widened = BlockMap(kron(bm.op, identity(m_dim)),
                           u * m_dim, k * m_dim, l * m_dim)
        rhs = schur_feedback(widened)
        return op_distance(lhs, rhs)
    return ev


def _ev_dagger_operators(cfg):
    def ev(rng, idx):
        u = int(rng.integers(1, cfg.max_dim + 1))
        k = int(rng.integers(1, cfg.max_dim + 1))
        f = _iso(rng, u + k, u + k)
        lhs = schur_feedback(BlockMap(adjoint(f), u, k, k))
        rhs = adjoint(schur_feedback(BlockMap(f, u, k, k)))
        return op_distance(lhs, rhs)
    return ev


def _ev_dagger_automata(cfg):
    cap = min(3, cfg.max_dim)
    def ev(rng, idx):
        h = int(rng.integers(1, cap + 1))
        k = int(rng.integers(2, cap + 1))
        u = int(rng.integers(1, k))
        t = make_unitary_dqta(h, k, random_isometry(h * k, h * k, rng))
        lhs = dagger_dqta(feedback_dqta(t, u))
        rhs = feedback_dqta(dagger_dqta(t), u)
        return op_distance(lhs.tau, rhs.tau)
    return ev


def check_equivalences(cfg: CheckConfig):
    """Reports for the alternative feedback formulations and adjoints."""
    out = []
    if "kleene-equivalence" in cfg.law_set:
        out.append(_run_law("kleene-vs-closed-form", cfg, _ev_kleene(cfg)))
    if "kit-equivalence" in cfg.law_set:
        out.append(_run_law("kit-vs-closed-form", cfg, _ev_kit(cfg)))
    if "tensor-compat" in cfg.law_set:
        out.append(_run_law("feedback-tensor-compat", cfg, _ev_tensor_compat(cfg)))
    if "dagger" in cfg.law_set:
        out.append(_run_law("dagger-vs-feedback-operators", cfg,
                            _ev_dagger_operators(cfg)))
        out.append(_run_law("dagger-vs-feedback-automata", cfg,
                            _ev_dagger_automata(cfg)))
    return out


# ------------------------------------------------------- bidirectional laws

def _rand_int0(rng, k, l, h):
    n = h * (k + l)
    return Int0Morphism(k, l, make_unitary_dqta(h, k + l,
                                                random_isometry(n, n, rng)))


def _pair_distance(f, g):
    return op_distance(f.carrier.tau, g.carrier.tau)


def _ev_int0_units(cfg):
    def ev(rng, idx):
        k = 0 if idx == 0 else int(rng.integers(1, 3))
        l = 0 if idx == 0 else int(rng.integers(1, 3))
        f = _rand_int0(rng, k, l, int(rng.integers(1, 3)))
        return max(_pair_distance(int_compose(f, int_identity(l)), f),
                   _pair_distance(int_compose(int_identity(k), f), f))
    return ev


def _ev_int0_assoc(cfg):
    def ev(rng, idx):
        dims = [int(rng.integers(1, 3)) for _ in range(4)]
        f = _rand_int0(rng, dims[0], dims[1], int(rng.integers(1, 3)))
        g = _rand_int0(rng, dims[1], dims[2], int(rng.integers(1, 3)))
        h = _rand_int0(rng, dims[2], dims[3], int(rng.integers(1, 3)))
        lhs = int_compose(int_compose(f, g), h)
        rhs = int_compose(f, int_compose(g, h))
        return _pair_distance(lhs, rhs)
    return ev


def _ev_int0_triangles(cfg):
    def ev(rng, idx):
        a = 0 if idx == 0 else int(rng.integers(1, min(3, cfg.max_dim) + 1))
        d, e = int_units(a)
        ia = int_identity(a)
        t1 = int_compose(int_tensor(d, ia), int_tensor(ia, e))
        t2 = int_compose(int_tensor(ia, d), int_tensor(e, ia))
        return max(_pair_distance(t1, ia), _pair_distance(t2, ia))
    return ev


def _ev_int0_symmetry(cfg):
    def ev(rng, idx):
        a = int(rng.integers(1, 3))
        b = int(rng.integers(1, 3))
        d, e = int_units(a)
        c = int_symmetry(a, a)
        v = max(_pair_distance(int_compose(d, c), d),
                _pair_distance(int_compose(c, e), e),
                _pair_distance(int_dagger(int_symmetry(a, b)),
                               int_symmetry(b, a)),
                _pair_distance(int_compose(int_symmetry(a, b),
                                           int_symmetry(b, a)),
                               int_identity(a + b)))
        return v
    return ev


def _ev_int0_compound_unit(cfg):
    def ev(rng, idx):
        ra = int(rng.integers(1, 3))
        rb = int(rng.integers(1, 3))
        d_a, _ = int_units(ra)
        d_b, _ = int_units(rb)
        d_ab, _ = int_units(ra + rb)
        mid = int_tensor(int_tensor(int_identity(ra), int_symmetry(ra, rb)),
                         int_identity(rb))
        return _pair_distance(int_compose(int_tensor(d_a, d_b), mid), d_ab)
    return ev


def _ev_int0_dual_units(cfg):
    def ev(rng, idx):
        a = 0 if idx == 0 else int(rng.integers(1, min(3, cfg.max_dim) + 1))
        d, e = int_units(a)
        return max(_pair_distance(int_dagger(e), d),
                   _pair_distance(int_dagger(d), e))
    return ev


def _ev_int0_dagger_involution(cfg):
    def ev(rng, idx):
        f = _rand_int0(rng, int(rng.integers(0, 3)), int(rng.integers(0, 3)),
                       int(rng.integers(1, 3)))
        return _pair_distance(int_dagger(int_dagger(f)), f)
    return ev


def _ev_int0_dagger_contra(cfg):
    def ev(rng, idx):
        hf = int(rng.integers(1, 3))
        hg = int(rng.integers(1, 3))
        k, l, m = (int(rng.integers(1, 3)) for _ in range(3))
        f = _rand_int0(rng, k, l, hf)
        g = _rand_int0(rng, l, m, hg)
        lhs = int_dagger(int_compose(f, g))
        rhs = int_compose(int_dagger(g), int_dagger(f))
        return witnessed_distance(lhs.carrier, rhs.carrier,
                                  tensor_swap(hf, hg))
    return ev


def _ev_int0_bifunctorial(cfg):
    def ev(rng, idx):
        hs = [int(rng.integers(1, 3)) for _ in range(4)]
        k, l, m = (int(rng.integers(1, 3)) for _ in range(3))
        k2, l2, m2 = (int(rng.integers(1, 3)) for _ in range(3))
        f = _rand_int0(rng, k, l, hs[0])
        f2 = _rand_int0(rng, k2, l2, hs[1])
        g = _rand_int0(rng, l, m, hs[2])
        g2 = _rand_int0(rng, l2, m2, hs[3])
        lhs = int_compose(int_tensor(f, f2), int_tensor(g, g2))
        rhs = int_tensor(int_compose(f, g), int_compose(f2, g2))
        sigma = kron(kron(identity(hs[0]), tensor_swap(hs[1], hs[2])),
                     identity(hs[3]))
        return witnessed_distance(lhs.carrier, rhs.carrier, sigma)
    return ev


def _ev_int0_yanking(cfg):
    def ev(rng, idx):
        u = int(rng.integers(1, 3))
        out = canonical_trace(int_symmetry(u, u), u)
        return _pair_distance(out, int_identity(u))
    return ev


def _ev_functor_identity(cfg):
    def ev(rng, idx):
        k = 0 if idx == 0 else int(rng.integers(1, min(3, cfg.max_dim) + 1))
        return _pair_distance(functor_image(unit_automata(k, k)[0]),
                              int_identity(k))
    return ev


def _ev_functor_composition(cfg):
    def ev(rng, idx):
        h1 = int(rng.integers(1, 3))
        h2 = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        t1 = make_unitary_dqta(h1, k, random_isometry(h1 * k, h1 * k, rng))
        t2 = make_unitary_dqta(h2, k, random_isometry(h2 * k, h2 * k, rng))
        lhs = functor_image(cascade(t1, t2))
        rhs = int_compose(functor_image(t1), functor_image(t2))
        sigma = kron(kron(identity(h1), tensor_swap(h2, h1)), identity(h2))
        return witnessed_distance(lhs.carrier, rhs.carrier, sigma)
    return ev


def _ev_functor_dagger(cfg):
    def ev(rng, idx):
        h = int(rng.integers(1, 3))
        k = int(rng.integers(1, 4))
        t = make_unitary_dqta(h, k, random_isometry(h * k, h * k, rng))
        lhs = functor_image(dagger_dqta(t))
        rhs = int_dagger(functor_image(t))
        return witnessed_distance(lhs.carrier, rhs.carrier, tensor_swap(h, h))
    return ev


def _ev_functor_feedback(cfg):
    def ev(rng, idx):
        h = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        u = int(rng.integers(1, k))
        t = make_unitary_dqta(h, k, random_isometry(h * k, h * k, rng))
        lhs = functor_image(feedback_dqta(t, u))
        rhs = canonical_trace(functor_image(t), u)
        return _pair_distance(lhs, rhs)
    return ev


def check_int0_laws(cfg: CheckConfig):
    """Category, compact-closure, dagger, and functor reports."""
    out = []
    if "int0-laws" in cfg.law_set:
        out.extend([
            _run_law("int0-unit-laws", cfg, _ev_int0_units(cfg)),
            _run_law("int0-associativity", cfg, _ev_int0_assoc(cfg)),
            _run_law("int0-triangles", cfg, _ev_int0_triangles(cfg)),
            _run_law("int0-symmetry-coherence", cfg, _ev_int0_symmetry(cfg)),
            _run_law("int0-compound-unit", cfg, _ev_int0_compound_unit(cfg)),
            _run_law("int0-dual-of-counit-is-unit", cfg, _ev_int0_dual_units(cfg)),
            _run_law("int0-dagger-involution", cfg,
                     _ev_int0_dagger_involution(cfg)),
            _run_law("int0-dagger-contravariance", cfg,
                     _ev_int0_dagger_contra(cfg)),
            _run_law("int0-bifunctoriality", cfg, _ev_int0_bifunctorial(cfg)),
            _run_law("int0-yanking", cfg, _ev_int0_yanking(cfg)),
        ])
    if "functor-F" in cfg.law_set:
        out.extend([
            _run_law("functor-preserves-identity", cfg,
                     _ev_functor_identity(cfg)),
            _run_law("functor-preserves-composition", cfg,
                     _ev_functor_composition(cfg)),
            _run_law("functor-preserves-dagger", cfg, _ev_functor_dagger(cfg)),
            _run_law("functor-preserves-feedback", cfg,
                     _ev_functor_feedback(cfg)),
        ])
    return out


# ------------------------------------------------------------- the star laws

def conway_counterexample(cfg: CheckConfig = CheckConfig()) -> LawReport:
    """Probe the two star identities; they fail at a = b = 1 by design.

    Probes: (1, 1) violates both identities with gap exactly 1; (0, 0.7)
    satisfies both; (0.5, 0.5) satisfies both under the case-split star.
    """
    probes = [(1.0, 1.0), (0.0, 0.7), (0.5, 0.5)]
    max_v, worst = 0.0, 0
    for i, (a, b) in enumerate(probes):
        sum_gap = abs(scalar_star(a + b)
                      - scalar_star(scalar_star(a) * b) * scalar_star(a))
        prod_gap = abs(scalar_star(a * b)
                       - (a * scalar_star(b * a) * b + 1.0))
        v = max(sum_gap, prod_gap)
        if v > max_v:
            max_v, worst = v, i
    return LawReport("conway-star-identities", len(probes), float(max_v),
                     max_v <= cfg.tolerance, worst)


# ------------------------------------------------------------ orchestration

def run_checks(cfg: CheckConfig):
    """All reports for the configured law groups, in a fixed order."""
    reports = []
    if "trace-axioms" in cfg.law_set:
        reports.extend(check_trace_axioms(cfg))
    if set(cfg.law_set) & {"dagger", "kit-equivalence", "kleene-equivalence",
                           "tensor-compat"}:
        reports.extend(check_equivalences(cfg))
    if set(cfg.law_set) & {"int0-laws", "functor-F"}:
        reports.extend(check_int0_laws(cfg))
    if "conway-counterexample" in cfg.law_set:
        reports.append(conway_counterexample(cfg))
    return reports


def suite_passed(reports) -> bool:
    """True when every law holds except the designated counterexamples,
    which must actually fail."""
    for r in reports:
        if r.law in EXPECTED_FAIL:
            if r.instances_run > 0 and r.passed:
                return False
        elif not r.passed:
            return False
    return True


def report_line(r: LawReport) -> str:
    flag = "true" if r.passed else "false"
    return ('{"law": "%s", "instances": %d, "max_violation": %.17g, '
            '"pass": %s, "worst_seed": %d}'
            % (r.law, r.instances_run, r.max_violation, flag, r.worst_seed))


def serialize_reports(reports) -> str:
    return "".join(report_line(r) + "\n" for r in reports)
