"""The package's import surface, the README's library example, and the CI
workflow's reliance on the test suite."""

import os
import re

import qta

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
WORKFLOW = os.path.join(os.path.dirname(__file__), "..", ".github",
                        "workflows", "tests.yml")

SUBMODULES = {"axioms", "cli", "dqta", "intcat", "linalg", "trace"}

# What `from qta import *` exports: every public name of the package, with
# no list kept beside the imports.  Neither trace's block splitter nor
# dqta's boolean witness check is among them; witnessed_distance is the
# one witness comparison.
PUBLIC = SUBMODULES | {
    "AutomatonFile", "BlockMap", "CheckConfig", "ConvergenceReport", "Dqta",
    "EXPECTED_FAIL", "ISOMETRY_TOL", "Int0Morphism", "IsometryError",
    "LAW_GROUPS", "LawReport", "Operator", "Qta", "RANK_TOL", "ShapeError",
    "UnitaryDqta", "adjoint", "as_int0",
    "bidirectionalize", "build_cell", "canonical_trace", "cascade",
    "cell_labels", "chain_cells", "conway_counterexample", "dagger_dqta",
    "dsum", "feedback_dqta", "functor_image", "identity", "instance_seed",
    "int_compose", "int_dagger", "int_identity", "int_symmetry", "int_tensor",
    "int_units", "isometry_defect", "kernel_image_trace", "kleene_feedback",
    "kron", "make_dqta", "make_qta", "make_unitary_dqta", "monomial",
    "mp_inverse", "name_of", "op_distance", "parse_automaton",
    "random_isometry", "run_checks", "run_command",
    "schur_feedback", "serialize_reports", "simulate", "suite_passed",
    "sum_swap", "summand_index", "tensor_swap", "turing_tensor",
    "unit_automata", "unitary_defect", "witnessed_distance",
    "write_automaton", "zeros",
}


def readme_library_example():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from qta import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    assert set(namespace) == {name for name in vars(qta)
                              if not name.startswith("_")}
    imported = re.search(r"from qta import \(([^)]*)\)",
                         readme_library_example()).group(1)
    assert set(imported.replace(",", " ").split()) <= set(namespace)


def test_readme_library_example_runs_as_written():
    namespace = {}
    exec(readme_library_example(), namespace)
    assert (namespace["t"].rows, namespace["t"].cols) == (3, 2)
    assert namespace["closed"].k == namespace["closed"].l == 2
    assert namespace["undirected"].n == 6


def test_the_workflow_runs_no_inline_python_program():
    # a behaviour check belongs in a named test, which every local run of
    # the suite executes; CI keeps only what needs a real process
    with open(WORKFLOW) as fh:
        programs = re.findall(r"\bpython3? -c\b", fh.read())
    assert programs == []
