"""Numerical semantics of quantum Turing automata.

Feedback (trace) on isometries via the Moore-Penrose Schur complement, the
traced monoidal category of directed quantum Turing automata, and the
self-dual Int construction that makes them bidirectional, together with a
seeded property-test harness for the categorical laws.
"""

from .linalg import (
    ISOMETRY_TOL,
    IsometryError,
    Operator,
    RANK_TOL,
    ShapeError,
    adjoint,
    dsum,
    identity,
    isometry_defect,
    kron,
    monomial,
    mp_inverse,
    op_distance,
    random_isometry,
    sum_swap,
    summand_index,
    tensor_swap,
    unitary_defect,
    zeros,
)
from .trace import (
    BlockMap,
    ConvergenceReport,
    kernel_image_trace,
    kleene_feedback,
    schur_feedback,
)
from .dqta import (
    Dqta,
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
from .intcat import (
    Int0Morphism,
    Qta,
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
from .axioms import (
    EXPECTED_FAIL,
    LAW_GROUPS,
    CheckConfig,
    LawReport,
    conway_counterexample,
    instance_seed,
    run_checks,
    serialize_reports,
    suite_passed,
)
from .cli import (
    AutomatonFile,
    build_cell,
    cell_labels,
    chain_cells,
    parse_automaton,
    run_command,
    simulate,
    write_automaton,
)
