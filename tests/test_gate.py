"""Every acceptance check goes through linalg.check_defect.

Each boundary that takes an operator in (constructors, the trace entry
points, the file loader) or sends one out (the file writer) must reject a
non-isometric input with its exact defect, and must read the threshold
from linalg at call time, so raising linalg.ISOMETRY_TOL moves them all.
"""

import json
import os

import numpy as np
import pytest

from qta import linalg
from qta.cli import load_record, parse_automaton, run_command, write_automaton
from qta.dqta import (Dqta, UnitaryDqta, dagger_dqta, make_dqta,
                      make_unitary_dqta)
from qta.intcat import make_qta
from qta.linalg import IsometryError, Operator
from qta.trace import BlockMap, kernel_image_trace, kleene_feedback, schur_feedback

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")

# 1.5 * identity on two dimensions: max|f^dagger f - I| = 2.25 - 1
MAT = 1.5 * np.eye(2)
DEFECT = float(np.max(np.abs(MAT.conj().T @ MAT - np.eye(2))))


def _load(tmp_path):
    path = str(tmp_path / "in.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 2, "l": 2,
                   "matrix": [[[x, 0.0] for x in row] for row in MAT]}, fh)
    return parse_automaton(path)


BOUNDARIES = {
    "make_dqta": lambda tmp: make_dqta(1, 2, 2, Operator(MAT)),
    "make_unitary_dqta": lambda tmp: make_unitary_dqta(1, 2, Operator(MAT)),
    "make_qta": lambda tmp: make_qta(1, 2, Operator(MAT)),
    "dagger_dqta": lambda tmp: dagger_dqta(Dqta(1, 2, 2, Operator(MAT))),
    "schur_feedback": lambda tmp: schur_feedback(BlockMap(Operator(MAT), 1, 1, 1)),
    "kernel_image_trace":
        lambda tmp: kernel_image_trace(BlockMap(Operator(MAT), 1, 1, 1)),
    "kleene_feedback":
        lambda tmp: kleene_feedback(BlockMap(Operator(MAT), 1, 1, 1)),
    "parse_automaton": _load,
    "write_automaton": lambda tmp: write_automaton(
        Dqta(1, 2, 2, Operator(MAT)), str(tmp / "out.json")),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_rejects_with_the_exact_defect(boundary, tmp_path):
    assert DEFECT == 1.25
    with pytest.raises(IsometryError) as err:
        BOUNDARIES[boundary](tmp_path)
    assert err.value.defect == DEFECT


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_boundary_reads_the_threshold_from_linalg(boundary, tmp_path,
                                                  monkeypatch):
    monkeypatch.setattr(linalg, "ISOMETRY_TOL", 2.0)
    BOUNDARIES[boundary](tmp_path)


def test_unitary_inference_reads_the_threshold_from_linalg(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(linalg, "ISOMETRY_TOL", 2.0)
    assert type(_load(tmp_path)) is UnitaryDqta


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
