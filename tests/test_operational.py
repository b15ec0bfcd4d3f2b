"""chain_cells against the walking head of operational.py.

On permutation cells the oracle is exact, so segments must equal it
entry for entry, under both wirings.  Dense (Haar-rule) cells are not
walked.
"""

import glob
import os

import numpy as np
import pytest

from operational import run_segment
from qta.cli import build_cell, chain_cells, parse_automaton
from qta.dqta import make_unitary_dqta
from qta.linalg import random_isometry

from test_cli import CHIRAL_RULE, DATA_DIR

MIRRORS = pytest.mark.parametrize("mirror", [False, True],
                                  ids=["default", "mirror"])
# segments are compared as dense matrices of at most this side
MAX_SIDE = 512


def data_cells():
    """The shipped automata that chain as cells: square, even interface."""
    cells = {}
    for path in sorted(glob.glob(os.path.join(DATA_DIR, "*.json"))):
        f = parse_automaton(path)
        if f.k == f.l and f.k % 2 == 0:
            cells[os.path.basename(path)] = make_unitary_dqta(f.h, f.k, f.tau)
    return cells


# the rule tables of test_cli, as (states, bits, rule)
RULE_CELLS = {
    "chiral": (1, 1, CHIRAL_RULE),
    "state-1 turn": (2, 1, [[["L", 1, 0], ["R", 1, 0]],
                            [["R", 1, 0], ["L", 1, 0]]]),
    "swap": (1, 0, [[["L", 1, 0], ["R", 1, 0]], [["R", 1, 0], ["L", 1, 0]]]),
}


def assert_walked(cell, ns, mirror):
    for n in ns:
        if cell.h ** n * cell.k > MAX_SIDE:
            break
        seg = chain_cells(cell, n, mirror=mirror)
        assert np.array_equal(seg.tau.mat, run_segment(cell, n, mirror)), n


@MIRRORS
def test_a_segment_of_one_cell_is_the_cell(mirror):
    for cell in [build_cell(2, 1), build_cell(1, 1, CHIRAL_RULE),
                 *data_cells().values()]:
        assert np.array_equal(run_segment(cell, 1, mirror), cell.tau.mat)


@MIRRORS
def test_the_pass_through_head_crosses_an_unchanged_tape(mirror):
    cell, n = build_cell(2, 1), 3
    seg = run_segment(cell, n, mirror)
    k, s = cell.k, cell.k // 2
    for tape in range(cell.h ** n):
        for q in range(s):
            # (L, q) at cell 1 leaves as (R, q) past cell n, and back
            for iface, out in ((q, s + q), (s + q, q)):
                column = np.zeros(seg.shape[0])
                column[tape * k + out] = 1
                assert np.array_equal(seg[:, tape * k + iface], column)


def test_the_walk_refuses_a_dense_cell():
    with pytest.raises(ValueError, match="permutation cells only"):
        run_segment(build_cell(1, 1, random_isometry(4, 4, 8)), 2)


@MIRRORS
@pytest.mark.parametrize("states, bits, ns", [
    (1, 1, range(1, 5)), (2, 1, range(1, 5)), (2, 2, range(1, 4))])
def test_default_cell_segments_equal_the_walk(states, bits, ns, mirror):
    assert_walked(build_cell(states, bits), ns, mirror)


@MIRRORS
@pytest.mark.parametrize("name", sorted(data_cells()))
def test_shipped_cell_segments_equal_the_walk(name, mirror):
    assert_walked(data_cells()[name], range(1, 4), mirror)


@MIRRORS
@pytest.mark.parametrize("name", RULE_CELLS)
def test_rule_cell_segments_equal_the_walk(name, mirror):
    states, bits, rule = RULE_CELLS[name]
    assert_walked(build_cell(states, bits, rule), range(1, 5), mirror)
