"""Every acceptance check goes through linalg.check_defect.

Each boundary that takes an operator in (constructors, the trace entry
points, the file loader) or sends one out (the file writer) must reject a
non-isometric input with its exact defect, and a NaN defect too, and must
read the threshold from linalg at call time, so raising
linalg.ISOMETRY_TOL moves them all.
"""

import json
import os

import numpy as np
import pytest

from qta import linalg
from qta.cli import (load_record, parse_automaton, run_command, simulate,
                     write_automaton)
from qta.dqta import (Dqta, UnitaryDqta, dagger_dqta, make_dqta,
                      make_unitary_dqta)
from qta.intcat import make_qta
from qta.linalg import IsometryError, Operator, monomial, owned
from qta.trace import BlockMap, kernel_image_trace, kleene_feedback, schur_feedback

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")

# 1.5 * identity on two dimensions: max|f^dagger f - I| = 2.25 - 1
MAT = 1.5 * np.eye(2)
DEFECT = float(np.max(np.abs(MAT.conj().T @ MAT - np.eye(2))))


def _load(tmp_path, tau):
    path = str(tmp_path / "in.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 2, "l": 2,
                   "matrix": [[[x, 0.0] for x in row] for row in tau.mat.real]},
                  fh)
    return parse_automaton(path)


def _write(tmp_path, tau):
    write_automaton(Dqta(1, 2, 2, tau), str(tmp_path / "out.json"))


# each boundary on a 2x2 transition tau
BOUNDARIES = {
    "make_dqta": lambda tau, tmp: make_dqta(1, 2, 2, tau),
    "make_unitary_dqta": lambda tau, tmp: make_unitary_dqta(1, 2, tau),
    "make_qta": lambda tau, tmp: make_qta(1, 2, tau),
    "dagger_dqta": lambda tau, tmp: dagger_dqta(Dqta(1, 2, 2, tau)),
    "schur_feedback": lambda tau, tmp: schur_feedback(BlockMap(tau, 1, 1, 1)),
    "kernel_image_trace":
        lambda tau, tmp: kernel_image_trace(BlockMap(tau, 1, 1, 1)),
    "kleene_feedback":
        lambda tau, tmp: kleene_feedback(BlockMap(tau, 1, 1, 1)),
    "parse_automaton": lambda tau, tmp: _load(tmp, tau),
    "write_automaton": lambda tau, tmp: _write(tmp, tau),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_rejects_with_the_exact_defect(boundary, tmp_path):
    assert DEFECT == 1.25
    with pytest.raises(IsometryError) as err:
        BOUNDARIES[boundary](Operator(MAT), tmp_path)
    assert err.value.defect == DEFECT


# a NaN defect is not at most the threshold: dense and carried NaN entries
NAN_TRANSITIONS = {
    "dense": lambda: owned(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)),
    "carried": lambda: monomial(2, [0, 1], [np.nan, 1.0]),
}


@pytest.mark.parametrize("form", sorted(NAN_TRANSITIONS))
@pytest.mark.parametrize("boundary",
                         sorted(set(BOUNDARIES) - {"parse_automaton"}))
def test_boundary_rejects_a_nan_transition(boundary, form, tmp_path):
    tau = NAN_TRANSITIONS[form]()
    assert np.isnan(linalg.isometry_defect(tau))
    with pytest.raises(IsometryError) as err:
        BOUNDARIES[boundary](tau, tmp_path)
    assert np.isnan(err.value.defect)
    assert not os.path.exists(tmp_path / "out.json")


def test_loader_refuses_a_nan_entry_before_the_gate(tmp_path):
    # the loader's finite check sees a NaN first, so it never reaches the gate
    with pytest.raises(ValueError, match="must be finite") as err:
        BOUNDARIES["parse_automaton"](NAN_TRANSITIONS["dense"](), tmp_path)
    assert not isinstance(err.value, IsometryError)


def test_simulation_refuses_a_nan_initial_state():
    cell = make_dqta(1, 2, 2, linalg.identity(2))
    with pytest.raises(IsometryError, match="initial state norm nan is not 1"):
        simulate(cell, np.array([np.nan, 0.0]), 1)


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_reads_the_threshold_from_linalg(boundary, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(linalg, "ISOMETRY_TOL", 2.0)
    BOUNDARIES[boundary](Operator(MAT), tmp_path)


def test_unitary_inference_reads_the_threshold_from_linalg(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(linalg, "ISOMETRY_TOL", 2.0)
    assert type(_load(tmp_path, Operator(MAT))) is UnitaryDqta


@pytest.mark.parametrize("labels", [
    {"input": ["a", "b"], "output": ["c", "d"], "extra": []},
    {"input": ["a"], "output": ["c", "d"]},
    {"input": ["a", 2], "output": ["c", "d"]},
    ["a", "b"],
])
def test_writer_rejects_labels_as_the_loader_does(labels, tmp_path):
    loaded, written = str(tmp_path / "loaded.json"), str(tmp_path / "written.json")
    with open(loaded, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 2, "l": 2, "labels": labels,
                   "matrix": [[[1.0, 0.0], [0.0, 0.0]],
                              [[0.0, 0.0], [1.0, 0.0]]]}, fh)
    with pytest.raises(ValueError) as read_err:
        load_record(loaded)
    with pytest.raises(ValueError) as write_err:
        write_automaton(make_dqta(1, 2, 2, linalg.identity(2)), written, labels)
    assert (str(write_err.value).replace(written, "")
            == str(read_err.value).replace(loaded, ""))
    assert not os.path.exists(written)


@pytest.mark.parametrize("command", ["compose", "tensor", "feedback",
                                     "bidir", "chain"])
def test_dqta_commands_refuse_a_qta_record(command, tmp_path, capsys):
    src = os.path.join(DATA_DIR, "cell_2s1b_bidir.json")
    args = {"compose": [src, src], "tensor": [src, src],
            "feedback": [src, "--u", "1"], "bidir": [src],
            "chain": [src, "--n", "2"]}[command]
    out = str(tmp_path / "out.json")
    assert run_command([command, *args, "-o", out]) == 1
    assert f"{command} works on dqta records" in capsys.readouterr().err
    assert not os.path.exists(out)
