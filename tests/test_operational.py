"""chain_cells against the walking head of operational.py.

On permutation cells the oracle is exact, so segments must equal it
entry for entry, under both wirings.  On Haar-rule cells both sides
round, so a segment must equal the dense walk within the sum of the two
roundings, each derived, not fitted: the walk's as test_exact derives
kleene_feedback's, chain_cells' as test_exact's 16 eps kappa per closed
form.
"""

import glob
import os

import numpy as np
import pytest

import operational
from operational import run_segment, step_maps, walk_segment
from qta import intcat
from qta.cli import build_cell, chain_cells, parse_automaton
from qta.dqta import make_unitary_dqta
from qta.linalg import random_isometry
from qta.trace import closed_form

from test_cli import CHIRAL_RULE, DATA_DIR
from test_exact import EPS, tolerance

MIRRORS = pytest.mark.parametrize("mirror", [False, True],
                                  ids=["default", "mirror"])
# segments are compared as dense matrices of at most this side
MAX_SIDE = 512
# Haar-rule draws per (states, bits) cell shape
HAAR_CELLS = [(1, 1), (2, 1)]
HAAR_DRAWS = 10


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


@MIRRORS
@pytest.mark.parametrize("states, bits, ns", [
    (1, 1, range(1, 4)), (2, 1, range(1, 4))])
def test_the_dense_walk_of_a_permutation_cell_is_the_exact_walk(
        states, bits, ns, mirror):
    cell = build_cell(states, bits)
    for n in ns:
        walk = walk_segment(cell, n, mirror)
        assert walk.converged and walk.inside == 0.0
        assert np.array_equal(walk.segment, run_segment(cell, n, mirror)), n


def haar_cell(states, bits, seed):
    side = 2 ** bits * 2 * states
    return build_cell(states, bits, random_isometry(side, side, seed))


def walk_allowance(cell, n, mirror, walk):
    """What the walk's own rounding adds, to first order, and what it left
    inside: (steps + 1) eps (1 + 2 |G|) + |G| |inside|, G = b (I - a)^-1
    the segment's response to amplitude inside.

    As test_exact.kleene_allowance, with the product turned round: the
    inside amplitude a^t entry has norm at most 1 (the step [a; b] is an
    isometry), and each step rounds it by about eps/2 of that.  The error
    reaches the segment through the later sums b (I + a + ... + a^m) =
    G (I - a^(m+1)), of norm at most 2 |G|, and each step adds a rounded
    increment, of norm at most 1, to partial sums of that norm.  The
    amplitude left inside would have added G times itself.
    """
    a, b, _ = step_maps(cell, n, mirror)
    g = np.linalg.norm(b @ np.linalg.inv(np.eye(len(a)) - a), 2)
    return (walk.steps + 1) * EPS * (1 + 2 * g) + g * walk.inside


def chained(monkeypatch, cell, n, mirror):
    """chain_cells' segment, and test_exact's 16 eps kappa summed over the
    closed forms of its n - 1 compositions."""
    allowances = []

    def recorded(f, h, u):
        allowances.append(tolerance(f.mat, u, f.cols // h - u,
                                    f.rows // h - u, h))
        return closed_form(f, h, u)

    with monkeypatch.context() as patch:
        patch.setattr(intcat, "closed_form", recorded)
        seg = chain_cells(cell, n, mirror=mirror).tau.mat
    assert len(allowances) == n - 1
    return seg, sum(allowances)


def test_a_walk_out_of_steps_says_so(monkeypatch):
    monkeypatch.setattr(operational, "MAX_STEPS", 3)
    walk = walk_segment(haar_cell(1, 1, 0), 3)
    assert not walk.converged
    assert walk.steps == 3 and walk.inside > operational.INSIDE_NORM


@MIRRORS
@pytest.mark.parametrize("states, bits", HAAR_CELLS)
@pytest.mark.parametrize("seed", range(HAAR_DRAWS))
def test_haar_cell_segments_equal_the_walk_within_both_roundings(
        monkeypatch, seed, states, bits, mirror):
    cell = haar_cell(states, bits, seed)
    for n in range(1, 4):
        walk = walk_segment(cell, n, mirror)
        assert walk.converged, \
            f"n = {n}: {walk.inside:.1e} left inside after {walk.steps} steps"
        seg, allowance = chained(monkeypatch, cell, n, mirror)
        allowance += walk_allowance(cell, n, mirror, walk)
        assert np.max(np.abs(seg - walk.segment)) <= allowance, (n, allowance)
