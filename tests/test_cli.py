import contextlib
import glob
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qta import cli
from qta.cli import (
    AutomatonFile,
    build_cell,
    cell_labels,
    chain_cells,
    load_record,
    parse_automaton,
    run_command,
    simulate,
    write_automaton,
)
from qta import dqta, intcat, linalg, trace
from qta.dqta import (
    Dqta,
    UnitaryDqta,
    dagger_dqta,
    make_dqta,
    make_unitary_dqta,
    turing_tensor,
    unit_automata,
)
from qta.intcat import Qta, as_int0, bidirectionalize, int_compose, make_qta, name_of
from qta.linalg import (
    IsometryError,
    Operator,
    identity,
    isometry_defect,
    kron,
    monomial,
    op_distance,
    random_isometry,
    sum_swap,
    summand_index,
    unitary_defect,
)
from test_dqta import gather_feedback
from test_linalg import dense, random_monomial
from test_trace import theta_blockmap

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def rand_dqta(h, k, l, seed):
    return make_dqta(h, k, l, random_isometry(h * l, h * k, seed))


# ----------------------------------------------------------------- file I/O

def test_round_trip_is_exact_for_dqta(tmp_path):
    t = rand_dqta(2, 3, 4, 11)
    path = str(tmp_path / "t.json")
    labels = {"input": ("a", "b", "c"), "output": ("p", "q", "r", "s")}
    write_automaton(t, path, labels)
    back = parse_automaton(path)
    assert isinstance(back, Dqta)
    assert (back.h, back.k, back.l) == (2, 3, 4)
    assert np.array_equal(back.tau.mat, t.tau.mat)
    record = load_record(path)
    assert record.labels == labels


def test_round_trip_is_exact_for_qta(tmp_path):
    q = make_qta(2, 3, random_isometry(6, 6, 4))
    path = str(tmp_path / "q.json")
    write_automaton(q, path, ("x", "y", "z"))
    back = parse_automaton(path)
    assert isinstance(back, Qta)
    assert (back.h, back.n) == (2, 3)
    assert np.array_equal(back.tau.mat, q.tau.mat)
    assert load_record(path).labels == ("x", "y", "z")


def test_square_unitary_parses_as_unitary_dqta(tmp_path):
    path = str(tmp_path / "u.json")
    write_automaton(unit_automata(2, 2)[0], path)
    assert isinstance(parse_automaton(path), UnitaryDqta)


def test_non_isometric_matrix_is_rejected_with_defect(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 1, "l": 1,
                   "matrix": [[[0.5, 0.0]]]}, fh)
    with pytest.raises(IsometryError, match="defect"):
        parse_automaton(path)


# phases whose parts include -0.0, on a 4x3 form with an empty row
SIGNED = monomial(4, [3, 0, 1], [complex(-0.0, 1.0), complex(1.0, -0.0),
                                 complex(-0.6, -0.8)])

# phases with signed-zero parts: re + 1j * im, as the loaders build entries,
# keeps the sign of the real -0.0 in -0.0 - 1j and drops the other three
SIGNED_ZERO_PHASES = [complex(1.0, -0.0), complex(-0.0, 1.0),
                      complex(-1.0, -0.0), complex(-0.0, -1.0)]


def seeded_carried(seed):
    """(value, labels): a seeded carried isometry with h = 1-3 and l - k =
    0-3 empty rows per state, its phases +-1, uniform unit phases or with
    -0.0 parts by seed % 3, a qta or a dqta when square, labeled or not."""
    rng = np.random.default_rng(seed)
    h, k = 1 + seed // 4 % 3, int(rng.integers(1, 5))
    l = k + seed % 4
    rows, cols = h * l, h * k
    phase = [np.array([1.0, -1.0])[rng.integers(0, 2, cols)],
             np.exp(2j * np.pi * rng.random(cols)),
             np.array(SIGNED_ZERO_PHASES)[rng.integers(0, 4, cols)]][seed % 3]
    tau = monomial(rows, rng.permutation(rows)[:cols], phase)
    names = [f"s{i}" for i in range(k)]
    if k == l and seed % 8 < 4:
        return Qta(h, k, tau), names if seed // 8 % 2 else None
    outputs = names + ["t"] * (l - k)
    return Dqta(h, k, l, tau), ({"input": names, "output": outputs}
                                if seed % 2 else None)


@pytest.mark.parametrize("value, labels", [
    (Dqta(1, 3, 4, SIGNED), {"input": ("a", "b", "c"),
                             "output": ("p", "q", "r", "s")}),
    (Dqta(2, 2, 2, monomial(4, [2, 0, 3, 1], [-1.0, complex(-0.0, -1.0), 1j,
                                             complex(0.8, -0.6)])), None),
    (Qta(1, 3, monomial(3, [1, 2, 0], [-1.0, 1j, complex(-0.0, -1.0)])),
     ("x", "y", "z")),
    (Dqta(1, 0, 2, monomial(2, [])), None),
    *map(seeded_carried, range(24)),
])
def test_writer_builds_the_text_of_the_materialized_record(tmp_path, value,
                                                           labels):
    path = str(tmp_path / "t.json")
    write_automaton(value, path, labels)
    mat = value.tau.mat
    record = {"kind": "qta", "h": value.h, "k": value.n} if isinstance(
        value, Qta) else {"kind": "dqta", "h": value.h, "k": value.k,
                          "l": value.l}
    record["matrix"] = np.stack([mat.real, mat.imag], axis=-1).tolist()
    if labels is not None:
        record["labels"] = labels
    with open(path) as fh:
        assert fh.read() == json.dumps(record) + "\n"
    # and the carried reader reads json's form back, bit for bit
    with open(path, "rb") as fh:
        back = cli._read_carried(fh.read(), path)
    assert (back is not None) == (value.k > 0)
    if back is not None:
        assert_same_form(back.tau, Operator(json_decode(path)[0]))
        assert np.array_equal(back.tau.mat, mat)


def seeded_injection(seed):
    """(rows, target, phase): a seeded partial injection with phases, rows
    1-12 and cols <= rows, its phases 1, +-1 or uniform unit phases by
    seed % 3."""
    rng = np.random.default_rng(seed)
    rows = 1 + seed // 3 % 12
    cols = int(rng.integers(1, rows + 1))
    phase = [np.ones(cols), np.array([1.0, -1.0])[rng.integers(0, 2, cols)],
             np.exp(2j * np.pi * rng.random(cols))][seed % 3]
    return rows, rng.permutation(rows)[:cols], phase


@pytest.mark.parametrize("seed", range(72))
def test_one_matrix_gives_one_result(tmp_path, seed):
    # from code, as a form built by index arithmetic or from a file: the
    # same form, and the same closed form at every u, to the bit
    rows, target, phase = seeded_injection(seed)
    built = monomial(rows, target, phase)
    f = Operator(built.mat)
    assert_same_form(f, built)
    path = str(tmp_path / "f.json")
    write_automaton(Dqta(1, f.cols, rows, f), path)
    loaded = load_record(path).tau
    assert_same_form(loaded, f)
    for u in range(f.cols + 1):
        assert (trace.closed_form(f, 1, u).mat.tobytes()
                == trace.closed_form(loaded, 1, u).mat.tobytes())


@pytest.mark.parametrize("seed", range(3))
def test_a_rule_matrix_chains_as_its_cell_file(tmp_path, seed):
    rng = np.random.default_rng(seed)
    rule = np.zeros((16, 16), dtype=complex)
    rule[rng.permutation(16), np.arange(16)] = np.exp(2j * np.pi * rng.random(16))
    path, cell = str(tmp_path / "rule.json"), str(tmp_path / "cell.json")
    with open(path, "w") as fh:
        json.dump({"matrix": np.stack([rule.real, rule.imag], -1).tolist()}, fh)
    assert run_command(["cell", "--states", "2", "--bits", "2", "--rule", path,
                        "-o", cell]) == 0
    from_file = chain_cells(parse_automaton(cell), 3).tau
    from_code = chain_cells(build_cell(2, 2, Operator(rule)), 3).tau
    assert_same_form(from_code, from_file)
    assert from_code.mat.tobytes() == from_file.mat.tobytes()


def two_by_two_file(tmp_path, matrix):
    return write_text(tmp_path, json.dumps(
        {"kind": "dqta", "h": 1, "k": 2, "l": 2, "matrix": matrix}))


def test_loader_carries_the_form_of_a_monomial_file_exactly(tmp_path):
    swap = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    assert parse_automaton(two_by_two_file(tmp_path, swap)).tau.form is not None
    swap[0][0] = [1e-300, 0.0]
    assert parse_automaton(two_by_two_file(tmp_path, swap)).tau.form is None
    # a repeated target row: tau^dagger tau = [[1, 1], [1, 1]]
    repeated = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    record = load_record(two_by_two_file(tmp_path, repeated))
    assert record.tau.form is None
    with pytest.raises(IsometryError) as err:
        parse_automaton(two_by_two_file(tmp_path, repeated))
    assert err.value.defect == 1.0


def test_malformed_json_reports_position(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"kind": "dqta", \n  oops')
    with pytest.raises(ValueError, match=r"broken\.json:2:3"):
        load_record(path)


def test_missing_and_malformed_fields_are_named(tmp_path):
    path = str(tmp_path / "f.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 1, "l": 1}, fh)
    with pytest.raises(ValueError, match="matrix"):
        load_record(path)
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 1, "l": 1,
                   "matrix": [[[1.0, 0.0, 0.0]]]}, fh)
    with pytest.raises(ValueError, match=r"entry \(0,0\)"):
        load_record(path)
    with open(path, "w") as fh:
        json.dump({"kind": "qta", "h": 1, "k": 2, "l": 2,
                   "matrix": [[[1.0, 0.0]]]}, fh)
    with pytest.raises(ValueError, match="'l' is not allowed"):
        load_record(path)


def test_qta_record_with_wrong_matrix_shape(tmp_path):
    path = str(tmp_path / "q.json")
    with open(path, "w") as fh:
        json.dump({"kind": "qta", "h": 1, "k": 2,
                   "matrix": [[[1.0, 0.0]], [[0.0, 0.0]]]}, fh)
    with pytest.raises(ValueError, match="row 0"):
        load_record(path)


def test_label_length_is_validated(tmp_path):
    path = str(tmp_path / "t.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 1, "l": 1,
                   "matrix": [[[1.0, 0.0]]],
                   "labels": {"input": ["a", "b"], "output": ["c"]}}, fh)
    with pytest.raises(ValueError, match="input labels"):
        load_record(path)


def test_shipped_examples_round_trip(tmp_path):
    files = sorted(glob.glob(os.path.join(DATA_DIR, "*.json")))
    assert files
    for src in files:
        record = load_record(src)
        value = parse_automaton(src)
        dest = str(tmp_path / os.path.basename(src))
        write_automaton(value, dest, record.labels)
        again = load_record(dest)
        assert np.array_equal(again.tau.mat, record.tau.mat)
        assert again.labels == record.labels
        assert (again.kind, again.h, again.k, again.l) == (
            record.kind, record.h, record.k, record.l)


def test_shipped_examples_regenerate_byte_for_byte(tmp_path, capsys):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "make_examples.py")
    spec = importlib.util.spec_from_file_location("make_examples", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(str(tmp_path))
    shipped = sorted(os.path.basename(f)
                     for f in glob.glob(os.path.join(DATA_DIR, "*.json")))
    assert len(shipped) == 5
    assert sorted(os.listdir(tmp_path)) == shipped
    for name in shipped:
        with open(os.path.join(DATA_DIR, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


@pytest.mark.parametrize("entries", [[[["1", "0"]]], [[[True, False]]],
                                     [[[1.0, None]]], [[[0, "0"]]]],
                         ids=["strings", "booleans", "null", "mixed"])
def test_non_numeric_matrix_entries_are_rejected(tmp_path, capsys, entries):
    path = str(tmp_path / "t.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 1, "l": 1,
                   "matrix": entries}, fh)
    with pytest.raises(ValueError, match=r"entry \(0,0\) must be a \[re, im\]"):
        load_record(path)
    assert run_command(["validate", path]) == 1
    rule = str(tmp_path / "rule.json")
    with open(rule, "w") as fh:
        json.dump({"matrix": [entries[0] + [[0, 0]], [[0, 0], [1, 0]]]}, fh)
    assert run_command(["cell", "--states", "1", "--bits", "0", "--rule",
                        rule, "-o", str(tmp_path / "cell.json")]) == 1
    assert "entry (0,0) must be a [re, im] pair" in capsys.readouterr().err


# ------------------------------------------------------------ loader paths

def json_decode(path):
    """The matrix and labels json.load + np.asarray give for one file."""
    with open(path) as fh:
        record = json.load(fh)
    arr = np.asarray(record["matrix"], dtype=float)
    labels = record.get("labels")
    if isinstance(labels, dict):
        labels = {key: tuple(value) for key, value in labels.items()}
    elif labels is not None:
        labels = tuple(labels)
    return arr[..., 0] + 1j * arr[..., 1], labels


def assert_same_form(f, g):
    """f and g carry the same form, to the bit, or both none."""
    assert f.shape == g.shape
    assert (f.form is None) == (g.form is None)
    if f.form is not None:
        for a, b in zip(f.form, g.form):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


def assert_loads_as_json(path, carried_text):
    """load_record gives json's matrix bit for bit, carrying the form
    Operator finds in it; carried_text says whether the carried-text
    reader reads the file."""
    record = load_record(path)
    matrix, labels = json_decode(path)
    assert record.tau.mat.dtype == matrix.dtype
    assert record.tau.mat.shape == matrix.shape
    assert record.tau.mat.tobytes() == matrix.tobytes()
    assert_same_form(record.tau, Operator(matrix))
    assert record.labels == labels
    with open(path, "rb") as fh:
        assert (cli._read_carried(fh.read(), path) is not None) == carried_text


def write_text(tmp_path, text, name="t.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_shipped_examples_load_as_json_does():
    files = sorted(glob.glob(os.path.join(DATA_DIR, "*.json")))
    assert len(files) == 5
    for path in files:
        assert_loads_as_json(path, carried_text=True)


def test_reformatted_records_load_as_json_does(tmp_path):
    with open(os.path.join(DATA_DIR, "cell_2s1b.json")) as fh:
        record = json.load(fh)
    matrix_first = {"matrix": record["matrix"],
                    **{k: v for k, v in record.items() if k != "matrix"}}
    matrix_last = {**{k: v for k, v in record.items() if k != "matrix"},
                   "matrix": record["matrix"]}
    for i, (rec, indent) in enumerate([(record, 2), (matrix_first, None),
                                       (matrix_last, None),
                                       (matrix_last, "\t")]):
        path = write_text(tmp_path, json.dumps(rec, indent=indent), f"{i}.json")
        assert_loads_as_json(path, carried_text=False)
    # ints, exponents, signed zeros and an int beyond 64 bits
    text = ('{"kind": "qta", "h": 1, "k": 2, "matrix": '
            '[[[1E+0, -0.0], [0, 0]], [[-0, 12345678901234567890123], '
            '[ 1e-3 ,-2.5E-1 ]]]}')
    assert_loads_as_json(write_text(tmp_path, text), carried_text=False)


MATRIX = '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]'
SWAPPED = '[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]'
LABELS = '"labels": {"input": ["a", "b"], "output": ["c", "d"]}'


@pytest.mark.parametrize("text, carried_text", [
    ('{"kind": "dqta", "x\\"matrix": ' + SWAPPED + ', "h": 1, "k": 2, '
     '"l": 2, "matrix": ' + MATRIX + '}\n', False),
    ('{"notes": {"matrix": ' + SWAPPED + '}, "kind": "dqta", "h": 1, '
     '"k": 2, "l": 2, "matrix": ' + MATRIX + '}\n', False),
    ('{"kind": "dqta", "h": 1, "k": 2, "l": 2, "matrix": ' + SWAPPED + ', '
     + LABELS + ', "matrix": ' + MATRIX + '}\n', False),
    ('{"kind": "dqta", "h": 1, "k": 2, "l": 2, "matrix": ' + MATRIX + ', '
     '"labels": {"input": ["Infinity", "\\"matrix\\": [[["], '
     '"output": ["]]]", "c"]}}\n', True),
    ('{"kind": "dqta", "h": 1, "k": 2, "l": 2, "matrix": ' + MATRIX + ', '
     '"labels": {"input": ["\\u0049nfinity", "b"], "output": ["c", "d"]}}\n',
     False),
], ids=["escaped-key", "nested-key", "duplicate-key", "placeholder-label",
        "escaped-placeholder-label"])
def test_unusual_layouts_load_as_json_does(tmp_path, text, carried_text):
    # the carried reader takes only the writer's own text: json.dumps
    # escapes no "I", so an escaped one is not that text
    assert_loads_as_json(write_text(tmp_path, text), carried_text)


@pytest.mark.parametrize("k, l, matrix", [(0, 0, "[]"), (1, 0, "[]"),
                                           (0, 1, "[[]]"), (0, 3, "[[],[],[]]")])
def test_zero_size_matrices_take_the_nested_reader(tmp_path, k, l, matrix):
    text = ('{"kind": "dqta", "h": 1, "k": %d, "l": %d, "matrix": %s}'
            % (k, l, matrix))
    path = write_text(tmp_path, text + "\n")
    assert cli._read_carried((text + "\n").encode(), path) is None
    record = load_record(path)
    assert record.tau.shape == (l, k)
    assert record.tau.mat.dtype == complex


@st.composite
def carried_automata(draw):
    """(value, labels): a carried isometry, square or tall, with phases
    +-1, uniform unit phases or signed-zero parts, as a dqta or (square) a
    qta, with or without labels."""
    h, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    l = draw(st.integers(k, k + 3))
    rows, cols = h * l, h * k
    target = draw(st.permutations(range(rows)))[:cols]
    family = draw(st.sampled_from(["sign", "unit", "signed-zero"]))
    if family == "unit":
        angles = draw(st.lists(st.floats(0, 2 * np.pi), min_size=cols,
                               max_size=cols))
        phase = np.exp(1j * np.array(angles))
    else:
        choices = [1.0, -1.0] if family == "sign" else SIGNED_ZERO_PHASES
        phase = draw(st.lists(st.sampled_from(choices), min_size=cols,
                              max_size=cols))
    tau = monomial(rows, target, phase)
    names = st.lists(st.text(max_size=4), min_size=k, max_size=k)
    if k == l and draw(st.booleans()):
        return Qta(h, k, tau), draw(st.none() | names)
    labels = st.fixed_dictionaries({
        "input": names,
        "output": st.lists(st.text(max_size=4), min_size=l, max_size=l)})
    return Dqta(h, k, l, tau), draw(st.none() | labels)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(carried_automata())
def test_carried_reader_reads_the_writer_as_json_does(tmp_path, case):
    value, labels = case
    path = str(tmp_path / "t.json")
    write_automaton(value, path, labels)
    with open(path, "rb") as fh:
        record = cli._read_carried(fh.read(), path)
    assert record is not None
    matrix, json_labels = json_decode(path)
    assert record.tau.mat.tobytes() == matrix.tobytes()
    assert_same_form(record.tau, Operator(matrix))
    assert record.labels == json_labels
    with open(path) as fh:
        header = json.load(fh)
    assert (record.kind, record.h, record.k, record.l) == (
        header["kind"], header["h"], header["k"], header.get("l", header["k"]))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(carried_automata(), st.data())
def test_carried_reader_reads_a_one_byte_edit_as_the_nested_reader(
        tmp_path, case, data):
    # the carried reader declines the edited bytes, or reads them as the
    # nested reader reads them, which then must not fail
    value, labels = case
    path = str(tmp_path / "t.json")
    write_automaton(value, path, labels)
    with open(path, "rb") as fh:
        text = bytearray(fh.read())
    at = data.draw(st.integers(0, len(text) - 1))
    text[at] = data.draw(st.sampled_from(b"0123456789-+.eE[], \"\r\n")
                         | st.integers(0, 255))
    record = cli._read_carried(bytes(text), path)
    if record is not None:
        nested = cli._load_nested(io.TextIOWrapper(io.BytesIO(text)).read(),
                                  path)
        assert_same_record(record, nested)


def assert_falls_back_as_json_does(path):
    """The carried reader declines the file, and load_record raises json's
    error, the finite check's, or loads json's matrix bit for bit."""
    with open(path) as fh:
        text = fh.read()
    assert cli._read_carried(text.encode(), path) is None
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        with pytest.raises(ValueError) as err:
            load_record(path)
        assert str(err.value) == f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        return
    if np.all(np.isfinite(json_decode(path)[0])):
        assert_loads_as_json(path, carried_text=False)
    else:
        assert_non_finite_fails_to_load(path)


# edits of the writer's text for Dqta(1, 3, 4, SIGNED), whose rows are
# [0, 1.0 - 0.0j, 0], [0, 0, -0.6 - 0.8j], [0, 0, 0], [-0.0 + 1.0j, 0, 0]
NEAR_MISSES = {
    "int-token": ("[1.0, -0.0]", "[1, -0.0]"),
    "inner-space": ("[1.0, -0.0]", "[1.0, -0.0 ]"),
    "trailing-zero": ("[-0.6, -0.8]", "[-0.60, -0.8]"),
    "exponent": ("[1.0, -0.0]", "[1E0, -0.0]"),
    "int-signed-zero": ("[[-0.0, 1.0]", "[[-0, 1.0]"),
    "zero-phase": ("[1.0, -0.0]", "[0.0, -0.0]"),
    "nan": ("[1.0, -0.0]", "[nan, -0.0]"),
    "NaN": ("[1.0, -0.0]", "[NaN, -0.0]"),
    "inf": ("[1.0, -0.0]", "[inf, -0.0]"),
    "Infinity": ("[1.0, -0.0]", "[Infinity, -0.0]"),
    "1e999": ("[1.0, -0.0]", "[1e999, -0.0]"),
    "bare-fraction": ("[-0.6, -0.8]", "[-.6, -0.8]"),
    "signed-zero-in-zero-row": ("[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]",
                                "[[0.0, 0.0], [0.0, -0.0], [0.0, 0.0]]"),
    "two-in-a-row": ("[[0.0, 0.0], [1.0, -0.0]", "[[0.5, 0.0], [1.0, -0.0]"),
    "two-in-a-column": ("[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]",
                        "[[0.0, 0.0], [0.0, 0.0], [0.6, 0.8]]"),
    "empty-column": ("[[-0.0, 1.0], [0.0, 0.0]", "[[0.0, 0.0], [0.0, 0.0]"),
    "column-twice": ("[[-0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]",
                     "[[0.0, 0.0], [0.0, 0.0], [-0.0, 1.0]]"),
    "row-separator": ("-0.8]], [[", "-0.8]],[["),
    "zero-row-separator-tab": ("0.0]], [[-0.0", "0.0]],\t[[-0.0"),
    "zero-row-separator-semicolon": ("0.0]], [[-0.0", "0.0]]; [[-0.0"),
    "header-space": ('"h": 1', '"h":1'),
    "header-leading-zero": ('"h": 1', '"h": 01'),
    "leading-space": ('{"kind"', '{ "kind"'),
    "labels-space": ('"input": ', '"input":'),
    "before-labels": ("]]], ", "]]] , "),
    "no-newline": ("}}\n", "}}"),
    "trailing-space": ("}}\n", "}} \n"),
}


@pytest.mark.parametrize("old, new", NEAR_MISSES.values(), ids=NEAR_MISSES)
def test_near_miss_texts_take_the_nested_reader(tmp_path, old, new):
    path = str(tmp_path / "t.json")
    write_automaton(Dqta(1, 3, 4, SIGNED), path,
                    {"input": ("a", "b", "c"), "output": ("p", "q", "r", "s")})
    with open(path) as fh:
        text = fh.read()
    assert cli._read_carried(text.encode(), path) is not None
    assert text.count(old) == 1
    assert_falls_back_as_json_does(write_text(tmp_path, text.replace(old, new)))


def test_a_text_cut_at_a_row_start_takes_the_nested_reader(tmp_path):
    # long phase reprs put the last row's start past the length check's
    # floor, so the cut leaves that row no bytes to scan
    phase = np.exp(1j * np.linspace(0.1, 3.0, 8))
    path = str(tmp_path / "t.json")
    write_automaton(make_unitary_dqta(1, 8, monomial(8, np.arange(8)[::-1],
                                                     phase)), path)
    with open(path) as fh:
        text = fh.read()
    cut = text.rindex("]], [[") + len("]], ")
    assert_falls_back_as_json_does(write_text(tmp_path, text[:cut]))


# phases whose entry text starts as the zero entry's does: the row's first
# byte that differs from the zero row lies at entry offset 9, 1 or 6
LOOKALIKES = [complex(0.0, 0.05), complex(-0.0, 1e-07), complex(0.0, -1.0)]


def lookalike_text(phase, column, rows):
    """The writer's text for a 12-column carried form into rows rows, phase
    in column, 1.0 elsewhere, and the phase's entry text; the writer
    refuses such a form, which is no isometry."""
    target = np.random.default_rng(rows).permutation(rows)[:12]
    tau = monomial(rows, target, [phase if j == column else 1.0
                                  for j in range(12)])
    entry = f"[{phase.real!r}, {phase.imag!r}]".encode()
    return (cli._head_text("dqta", 1, 12, rows) + b"".join(cli._matrix_text(tau))
            + cli._tail_text(None)), entry


@pytest.mark.parametrize("rows", [12, 20], ids=["square", "tall"])
@pytest.mark.parametrize("column", [0, 5, 11])
@pytest.mark.parametrize("phase", LOOKALIKES)
def test_row_scan_reads_lookalike_entries_as_json_does(tmp_path, phase,
                                                       column, rows):
    # the tall form has 8 zero rows
    data, entry = lookalike_text(phase, column, rows)
    assert data.count(entry) == 1
    path = str(tmp_path / "t.json")
    with open(path, "wb") as fh:
        fh.write(data)
    assert_loads_as_json(path, carried_text=True)
    assert load_record(path).tau.form[1][column] == (
        phase.real + 1j * phase.imag)


@pytest.mark.parametrize("byte", [b";", b"\t"])
@pytest.mark.parametrize("offset", [-2, -1, 0, 1], ids=[
    "comma-before", "space-before", "comma-after", "space-after"])
@pytest.mark.parametrize("phase", LOOKALIKES)
def test_row_scan_declines_a_corrupt_separator_by_the_entry(tmp_path, phase,
                                                            offset, byte):
    # a tab for the space is still json, and json's matrix loads; a tab for
    # the comma, or a semicolon, is json's error
    data, entry = lookalike_text(phase, 5, 12)
    at = data.index(entry) + (offset if offset < 0 else len(entry) + offset)
    assert data[at:at + 1] == b", "[offset % 2:offset % 2 + 1]
    path = str(tmp_path / "t.json")
    with open(path, "wb") as fh:
        fh.write(data[:at] + byte + data[at + 1:])
    assert_falls_back_as_json_does(path)


@pytest.mark.parametrize("keep", [1, 100, 150])
def test_row_scan_declines_a_last_row_cut_short(tmp_path, keep):
    # unit phases' texts are longer than the zero entry's, so the file still
    # has room for 12 zero rows when its last row is cut short
    tau = monomial(12, np.arange(12)[::-1], np.exp(1j * np.arange(1, 13)))
    path = str(tmp_path / "t.json")
    write_automaton(Dqta(1, 12, 12, tau), path)
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.rindex(b"]], [[") + 4 + keep
    assert cut - len(cli._head_text("dqta", 1, 12, 12)) > 12 * (12 * 12 + 2)
    with open(path, "wb") as fh:
        fh.write(data[:cut])
    assert_falls_back_as_json_does(path)


# phases that repeat, so that most entry texts were read before; with the
# targets reversed, the last row holds column 0's phase, 1.0
REPEATED_PHASES = {"ones": [1.0] * 8,
                   "signs": [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0]}


@pytest.mark.parametrize("new", ["[1.0, 0.00]", "[1, 0.0]", "[0.0, 0.0]",
                                 "[1.0, -0.0]"],
                         ids=["trailing-zero", "int-token", "zero-last-row",
                              "signed-zero"])
@pytest.mark.parametrize("family", REPEATED_PHASES)
def test_a_later_copy_of_a_repeated_entry_is_checked_as_the_first(
        tmp_path, family, new):
    # the last copy of a text read before is edited; "[0.0, 0.0]" leaves a
    # zero row after the last entry, and column 0 with no entry
    path = str(tmp_path / "t.json")
    write_automaton(Dqta(2, 4, 4, monomial(8, np.arange(8)[::-1],
                                           REPEATED_PHASES[family])), path)
    with open(path) as fh:
        text = fh.read()
    assert cli._read_carried(text.encode(), path) is not None
    one = "[1.0, 0.0]"
    assert text.count(one) > 1
    at = text.rindex(one)
    path = write_text(tmp_path, text[:at] + new + text[at + len(one):],
                      "edit.json")
    if new == "[1.0, -0.0]":
        # the writer's text for the phase 1 - 0j, read as json reads it
        assert_loads_as_json(path, carried_text=True)
    else:
        assert_falls_back_as_json_does(path)


@pytest.mark.parametrize("phased", [False, True])
def test_each_distinct_entry_text_is_parsed_once(tmp_path, monkeypatch,
                                                 phased):
    rule = random_monomial(np.random.default_rng(3), 16, 16) if phased else None
    seg = chain_cells(build_cell(2, 2, rule), 4)
    path = str(tmp_path / "seg.json")
    write_automaton(seg, path)
    phase = seg.tau.form[1]
    texts = set(map(cli._entry_text, phase.real.tolist(), phase.imag.tolist()))
    assert len(texts) > 100 if phased else len(texts) == 1
    calls = []
    entry_text = cli._entry_text
    monkeypatch.setattr(cli, "_entry_text",
                        lambda *pair: calls.append(pair) or entry_text(*pair))
    with open(path, "rb") as fh:
        record = cli._read_carried(fh.read(), path)
    assert_same_form(record.tau, seg.tau)
    assert len(calls) == len(texts)


# ----------------------------------------- the text the nested reader sees

def copy_bytes(tmp_path, src, edit, name="t.json"):
    """Path of a copy of file src with its bytes edited by edit."""
    path = str(tmp_path / name)
    with open(src, "rb") as fh, open(path, "wb") as out:
        out.write(edit(fh.read()))
    return path


def assert_same_record(a, b):
    assert (a.kind, a.h, a.k, a.l, a.labels) == (b.kind, b.h, b.k, b.l,
                                                 b.labels)
    assert_same_form(a.tau, b.tau)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("name", ["cell_2s1b.json", "cell_2s1b_bidir.json"])
def test_crlf_copy_takes_the_carried_reader_with_the_same_bits(
        tmp_path, name, newline):
    # text mode reads the copy as the writer's text; its bytes differ only
    # in the last, the text's one raw newline
    src = os.path.join(DATA_DIR, name)
    path = copy_bytes(tmp_path, src, lambda b: b.replace(b"\n", newline))
    with open(path, "rb") as fh, open(src, "rb") as orig:
        assert fh.read() == orig.read()[:-1] + newline
    with open(path) as fh, open(src) as orig:
        assert fh.read() == orig.read()
    assert_loads_as_json(path, carried_text=True)
    assert_same_record(load_record(path), load_record(src))


@pytest.mark.parametrize("end", [b"\n\r\n", b"\r\n\r\n", b"\n\r", b"\r\r"])
def test_only_the_last_newline_may_be_crlf(tmp_path, end):
    src = os.path.join(DATA_DIR, "cell_2s1b.json")
    path = copy_bytes(tmp_path, src, lambda b: b[:-1] + end)
    assert_loads_as_json(path, carried_text=False)
    assert_same_record(load_record(path), load_record(src))


def test_crlf_copy_of_a_segment_reads_in_place(tmp_path):
    # through the nested reader this copy of the side-1024 segment peaked
    # at 204.7 MiB, against 12.3 MiB for the file as written
    seg = chain_cells(build_cell(2, 2), 4)
    src = str(tmp_path / "seg.json")
    write_automaton(seg, src, {"input": cell_labels(2), "output": cell_labels(2)})
    path = copy_bytes(tmp_path, src, lambda b: b.replace(b"\n", b"\r\n"))
    with open(path, "rb") as fh:
        assert cli._read_carried(fh.read(), path) is not None
    tracemalloc.start()
    try:
        record = load_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_form(record.tau, seg.tau)
    assert peak < 2 * os.path.getsize(path)


@pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
def test_errors_count_lines_as_text_mode_does(tmp_path, newline):
    # text mode reads \r and \r\n as \n, and json's error names the line
    data = (b'{"kind": "dqta", "h": 1,\n "k": 1, "l": 2,\n "matrix": '
            b'[[[.5, 0]], [[0, 1]]]}\n').replace(b"\n", newline)
    path = str(tmp_path / "t.json")
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ValueError) as err:
        load_record(path)
    assert str(err.value) == f"{path}:3:15: Expecting value"


def test_bom_copy_fails_as_json_fails_on_its_text(tmp_path):
    path = copy_bytes(tmp_path, os.path.join(DATA_DIR, "cell_2s1b.json"),
                      lambda b: b"\xef\xbb\xbf" + b)
    with open(path) as fh:
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(fh.read())
    assert exc.value.msg.startswith("Unexpected UTF-8 BOM")
    with open(path, "rb") as fh:
        assert cli._read_carried(fh.read(), path) is None
    with pytest.raises(ValueError) as err:
        load_record(path)
    assert str(err.value) == (
        f"{path}:{exc.value.lineno}:{exc.value.colno}: {exc.value.msg}")


@pytest.mark.parametrize("old, new", [(b'"(R,2)"', b'"(R,\xff)"'),
                                      (b"[0.0, 0.0]", b"[0.0, 0.\xff]")],
                         ids=["in-a-label", "in-the-matrix"])
def test_invalid_utf8_fails_as_reading_the_text_fails(tmp_path, capsys, old,
                                                      new):
    path = copy_bytes(tmp_path, os.path.join(DATA_DIR, "cell_2s1b.json"),
                      lambda b: b.replace(old, new, 1))
    with pytest.raises(UnicodeDecodeError) as exc:
        with open(path) as fh:
            fh.read()
    with open(path, "rb") as fh:
        assert cli._read_carried(fh.read(), path) is None
    with pytest.raises(UnicodeDecodeError) as err:
        load_record(path)
    assert str(err.value) == str(exc.value)
    assert run_command(["validate", path]) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_nested_reader_keeps_no_bytes_while_json_parses(tmp_path):
    # load_record's peak is the text's size over the parse's own peak; the
    # file's bytes, as large again, are dropped before the parse
    path = str(tmp_path / "haar.json")
    write_automaton(make_unitary_dqta(32, 4, random_isometry(128, 128, 5)), path)
    with open(path) as fh:
        text = fh.read()
    peaks = []
    for step in (lambda: cli._load_nested(text, path), lambda: load_record(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1.5 * len(text)


def test_raw_non_ascii_labels_take_the_nested_reader(tmp_path):
    # the writer escapes them (json.dumps), so these bytes are not its text
    labels = {"input": ["α", "b", "c"], "output": ["p", "q", "ρ", "ß"]}
    path = str(tmp_path / "t.json")
    write_automaton(Dqta(1, 3, 4, SIGNED), path, labels)
    written = load_record(path)
    with open(path, "rb") as fh:
        escaped = fh.read()
    head = escaped[:escaped.index(b', "labels": ')]
    with open(path, "wb") as fh:
        fh.write(head + b', "labels": '
                 + json.dumps(labels, ensure_ascii=False).encode() + b"}\n")
    assert_loads_as_json(path, carried_text=False)
    assert load_record(path).labels == {key: tuple(value)
                                        for key, value in labels.items()}
    assert_same_form(load_record(path).tau, written.tau)


@pytest.mark.parametrize("h", [500, 100000])
def test_header_larger_than_the_file_allocates_nothing(tmp_path, h):
    # a 4x4 matrix under a header declaring 4h x 4h: at h = 500 the
    # skeleton would take 16 MB, at h = 100000 about 640 GB
    matrix = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    path = write_text(tmp_path, json.dumps(
        {"kind": "dqta", "h": h, "k": 4, "l": 4, "matrix": matrix}))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            load_record(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"{path}: field 'matrix' must have {4 * h} rows, got 4")
    assert peak < 2 ** 20


def test_matrix_key_inside_labels_is_a_label_error(tmp_path):
    text = ('{"kind": "dqta", "h": 1, "k": 2, "l": 2, "labels": {"matrix": '
            + SWAPPED + ', "input": ["a", "b"], "output": ["c", "d"]}, '
            '"matrix": ' + MATRIX + '}')
    with pytest.raises(ValueError, match="dqta labels must be an object"):
        load_record(write_text(tmp_path, text))


@pytest.mark.parametrize("matrix", [
    "[[[.5, 0]], [[0, 1]]]", "[[[1., 0]], [[0, 1]]]", "[[[+1, 0]], [[0, 1]]]",
    "[[[01, 0]], [[0, 1]]]", "[[[1,]0], [[0, 1]]]", "[[1[, 0]], [[0, 1]]]",
    "[[[1 0, 0]], [[0, 1]]]",
])
def test_non_json_numbers_fail_as_json_does(tmp_path, matrix):
    text = ('{"kind": "dqta", "h": 1, "k": 1,\n "l": 2, "matrix": '
            + matrix + '}')
    path = write_text(tmp_path, text)
    assert cli._read_carried(text.encode(), path) is None
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    expected = f"{path}:{exc.value.lineno}:{exc.value.colno}: {exc.value.msg}"
    with pytest.raises(ValueError) as err:
        load_record(path)
    assert str(err.value) == expected


def assert_non_finite_fails_to_load(path):
    """Neither reader gives a transition: the carried reader declines the
    file and the nested one names it in the finite check's error."""
    with open(path, "rb") as fh:
        assert cli._read_carried(fh.read(), path) is None
    for load in (load_record, parse_automaton):
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: operator entries must be finite"


def test_nan_entries_still_fail_as_non_finite(tmp_path):
    path = write_text(tmp_path, '{"kind": "dqta", "h": 1, "k": 1, "l": 1, '
                                '"matrix": [[[NaN, 0.0]]]}\n')
    assert_non_finite_fails_to_load(path)


@pytest.mark.parametrize("entry", ["Infinity", "1e999"])
def test_non_finite_entries_name_the_file(tmp_path, capsys, entry):
    # json reads 1e999 as inf; the carried reader rejects the token, which
    # is not inf's repr, and the finite check names the file
    path = write_text(tmp_path, '{"kind": "dqta", "h": 1, "k": 1, "l": 1, '
                                f'"matrix": [[[{entry}, 0.0]]]}}\n')
    assert_non_finite_fails_to_load(path)
    assert run_command(["validate", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: operator entries must be finite\n")


_DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("text, argv", [
    (_DEEP, ["validate"]),
    ('{"kind": "dqta", "h": 1, "k": 1, "l": 1, "matrix": [[[1.0, 0.0]]], '
     '"labels": ' + _DEEP + "}", ["validate"]),
    ('{"matrix": ' + _DEEP + "}", ["cell", "--states", "1", "--bits", "0",
                                   "-o", "out.json", "--rule"]),
], ids=["whole-file", "labels", "rule"])
def test_deeply_nested_json_is_an_error_not_a_traceback(tmp_path, text, argv):
    path = write_text(tmp_path, text, "deep.json")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "qta", *argv, path], cwd=tmp_path,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1
    assert done.stderr == f"error: {path}: JSON nested too deeply to parse\n"
    assert not os.path.exists(tmp_path / "out.json")


# -------------------------------------------------------------------- cells

def test_cell_dimensions():
    cell = build_cell(2, 3)
    assert (cell.h, cell.k, cell.l) == (8, 4, 4)
    assert unitary_defect(cell.tau) == 0.0
    assert op_distance(cell.tau, kron(identity(8), sum_swap(2, 2))) == 0.0


def test_cell_labels_layout():
    assert cell_labels(2) == ("(L,1)", "(L,2)", "(R,1)", "(R,2)")


def test_empty_rule_table_gives_identity():
    cell = build_cell(2, 1, [])
    assert op_distance(cell.tau, identity(8)) == 0.0


def test_rule_table_permutation():
    # swap the two directions for state 1 only, symbol 0 only
    rule = [[["L", 1, 0], ["R", 1, 0]], [["R", 1, 0], ["L", 1, 0]]]
    cell = build_cell(2, 1, rule)
    mat = cell.tau.mat.real
    assert mat[2, 0] == 1.0 and mat[0, 2] == 1.0
    assert mat[1, 1] == 1.0
    assert unitary_defect(cell.tau) == 0.0


def test_non_bijective_rule_is_rejected():
    with pytest.raises(ValueError, match="bijection"):
        build_cell(2, 1, [[["L", 1, 0], ["R", 1, 0]]])
    with pytest.raises(ValueError, match="twice"):
        build_cell(2, 1, [[["L", 1, 0], ["R", 1, 0]],
                          [["L", 1, 0], ["R", 2, 0]]])


def test_rule_fields_are_validated():
    with pytest.raises(ValueError, match="direction"):
        build_cell(2, 1, [[["X", 1, 0], ["R", 1, 0]]])
    with pytest.raises(ValueError, match="state"):
        build_cell(2, 1, [[["L", 3, 0], ["R", 1, 0]]])
    with pytest.raises(ValueError, match="symbol"):
        build_cell(2, 1, [[["L", 1, 5], ["R", 1, 0]]])
    # a JSON boolean is no state or symbol, though Python counts True as 1
    with pytest.raises(ValueError, match="source state must be in 1..2, got True"):
        build_cell(2, 1, [[["L", True, 0], ["R", 1, 0]]])
    with pytest.raises(ValueError, match="source symbol must be in 0..1, got False"):
        build_cell(2, 1, [[["L", 1, False], ["R", 1, 0]]])
    with pytest.raises(ValueError, match="target state must be in 1..2, got True"):
        build_cell(2, 1, [[["L", 1, 0], ["R", True, 0]]])
    with pytest.raises(ValueError, match="target symbol must be in 0..1, got True"):
        build_cell(2, 1, [[["L", 1, 0], ["R", 1, True]]])


def test_explicit_matrix_rule():
    tau = kron(identity(2), sum_swap(1, 1))
    cell = build_cell(1, 1, tau)
    assert op_distance(cell.tau, tau) == 0.0


def test_an_array_rule_is_read_as_a_rule_table():
    # a matrix rule is an Operator, which is what the --rule loader builds
    with pytest.raises(ValueError, match=r"must be a \[source, target\] pair"):
        build_cell(1, 1, np.eye(4))


# ------------------------------------------------------------------- chains

def test_chain_of_one_is_the_cell():
    cell = build_cell(2, 1)
    seg = chain_cells(cell, 1)
    assert op_distance(seg.tau, cell.tau) == 0.0


def test_chain_dimensions_and_isometry():
    cell = build_cell(2, 1)
    seg = chain_cells(cell, 3)
    assert (seg.h, seg.k, seg.l) == (8, 4, 4)
    assert isometry_defect(seg.tau) <= 1e-8


def test_chain_of_pass_through_cells_is_pass_through():
    # the internal geometric series collapses: one application carries the
    # control across the whole segment
    cell = build_cell(2, 1)
    seg = chain_cells(cell, 3)
    assert op_distance(seg.tau, kron(identity(8), sum_swap(2, 2))) <= 1e-12


def test_chain_rejects_odd_interfaces():
    bad = rand_dqta(1, 3, 3, 0)
    with pytest.raises(ValueError, match="halves"):
        chain_cells(bad, 2)


def test_mirror_agrees_on_symmetric_cells_and_differs_on_chiral():
    sym = build_cell(2, 1)
    assert op_distance(chain_cells(sym, 2).tau,
                       chain_cells(sym, 2, mirror=True).tau) <= 1e-12
    chiral = build_cell(1, 1, [[["L", 1, 0], ["R", 1, 1]],
                               [["R", 1, 1], ["L", 1, 0]]])
    plain = chain_cells(chiral, 2)
    flipped = chain_cells(chiral, 2, mirror=True)
    assert op_distance(plain.tau, flipped.tau) > 1e-6


def hadamard_edge_cell():
    """(I + 1e-9 e1 e1^dagger)(H (x) H), H the normalised Hadamard, as a
    plain dqta with h = 2, k = l = 2: its isometry defect 5e-10 is within
    the gate, its unitary defect 2e-9 is not."""
    mat = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]) / 2
    mat[0] *= 1 + 1e-9
    return make_dqta(2, 2, 2, Operator(mat))


def write_edge_cell(tmp_path):
    path = str(tmp_path / "edge.json")
    labels = ["(L,1)", "(R,1)"]
    write_automaton(hadamard_edge_cell(), path, {"input": labels, "output": labels})
    return path


@pytest.mark.parametrize("wiring", [[], ["--mirror"]])
def test_chain_refuses_a_cell_that_is_only_an_isometry(
        tmp_path, capsys, monkeypatch, wiring):
    cell = hadamard_edge_cell()
    assert isometry_defect(cell.tau) <= linalg.ISOMETRY_TOL < unitary_defect(cell.tau)
    path, out = write_edge_cell(tmp_path), str(tmp_path / "seg.json")

    def never(*args):
        raise AssertionError("int_compose ran on a cell that is not unitary")

    monkeypatch.setattr(cli, "int_compose", never)
    assert run_command(["chain", path, "--n", "2", *wiring, "-o", out]) == 1
    assert capsys.readouterr().err.startswith(
        "error: transition must be unitary (defect 2.0")
    assert not os.path.exists(out)


def test_edge_cell_is_a_valid_dqta_that_bidir_refuses(tmp_path, capsys):
    path, out = write_edge_cell(tmp_path), str(tmp_path / "bidir.json")
    assert run_command(["validate", path]) == 0
    assert "dqta h=2 k=2 l=2" in capsys.readouterr().out
    for route in ("auto", "name", "functor"):
        assert run_command(["bidir", path, "--route", route, "-o", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)


def test_as_int0_checks_a_plain_dqta_as_a_unitary():
    with pytest.raises(IsometryError, match="transition must be unitary"):
        as_int0(hadamard_edge_cell(), 1)
    t = make_dqta(1, 2, 2, sum_swap(1, 1))  # plain, but unitary
    assert as_int0(t, 1).tau.mat.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize("site", [
    dagger_dqta, lambda t: as_int0(t, 1), lambda t: chain_cells(t, 2),
], ids=["dagger_dqta", "as_int0", "chain_cells"])
def test_one_trust_rule_for_unitaries(site):
    # a UnitaryDqta is trusted; a plain Dqta is checked as a unitary
    with pytest.raises(IsometryError) as err:
        site(hadamard_edge_cell())
    assert str(err.value).startswith("transition must be unitary (defect 2.0")
    assert isinstance(site(make_dqta(1, 2, 2, sum_swap(1, 1))), UnitaryDqta)


def gather_chain(cell, n, mirror=False):
    """Reference chain_cells: each merge gathers the internal pair of the
    tensored chain and cell into leading position in its own summand
    orders."""
    s = cell.k // 2
    in_order = [2, 1, 0, 3]
    out_order = [0, 3, 2, 1] if mirror else [1, 2, 0, 3]
    chain = cell
    for _ in range(n - 1):
        x = turing_tensor(chain, cell)
        rows = summand_index(x.h, [s] * 4, out_order)
        cols = summand_index(x.h, [s] * 4, in_order)
        routed = Operator(x.tau.mat[np.ix_(rows, cols)])
        chain = gather_feedback(Dqta(x.h, x.k, x.l, routed), 2 * s)
    return chain


CHIRAL_RULE = [[["L", 1, 0], ["R", 1, 1]], [["R", 1, 1], ["L", 1, 0]]]
# ids as (mirror, ring) while chain had a ring, so the cases keep their names
MIRRORS = pytest.mark.parametrize("mirror", [False, True],
                                  ids=["False-False", "True-False"])


@MIRRORS
@pytest.mark.parametrize("states, bits", [(2, 1), (2, 2), (1, 2)])
def test_chain_equals_the_gathered_wiring_bit_for_bit(states, bits, mirror):
    cell = build_cell(states, bits)
    for n in (1, 2, 3):
        seg = chain_cells(cell, n, mirror=mirror)
        ref = gather_chain(cell, n, mirror=mirror)
        assert type(seg) is UnitaryDqta
        assert (seg.h, seg.k, seg.l) == (cell.h ** n, cell.k, cell.k)
        assert np.array_equal(seg.tau.mat, ref.tau.mat)


@MIRRORS
def test_chain_matches_the_gathered_wiring_on_rule_cells(mirror):
    # a Haar rule and the chiral rule leave loops the SVD must cut, where
    # the composite's loop block is the reference's with its halves swapped
    for cell in (build_cell(2, 1, random_isometry(8, 8, 7)),
                 build_cell(1, 1, random_isometry(4, 4, 8)),
                 build_cell(1, 1, CHIRAL_RULE)):
        for n in (1, 2, 3):
            seg = chain_cells(cell, n, mirror=mirror)
            ref = gather_chain(cell, n, mirror=mirror)
            assert op_distance(seg.tau, ref.tau) <= 1e-12


# --------------------------------------------------------------- simulation

def same_bits(a, b):
    """Two float64 arrays of one shape, equal bit for bit."""
    return (a.dtype == b.dtype == np.float64 and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def test_simulation_echoes_initial_on_zero_steps():
    cell = build_cell(2, 1)
    masses = simulate(cell, (1, 0), 0)
    assert masses.dtype == np.float64 and masses.shape == (1, 4)
    assert masses.tolist() == [[0.0, 1.0, 0.0, 0.0]]
    assert masses.sum(axis=1).tolist() == [1.0]


def test_simulation_moves_the_control_across():
    cell = build_cell(2, 1)
    masses = simulate(cell, (0, 0), 3)
    assert masses.shape == (4, 4)
    # pass-through rule: (L,1) and (R,1) alternate
    assert masses[0][0] == 1.0
    assert masses[1][2] == 1.0
    assert masses[2][0] == 1.0
    assert all(abs(n - 1.0) <= 1e-9 for n in masses.sum(axis=1))


def test_simulation_norm_is_conserved_on_shipped_examples():
    for src in sorted(glob.glob(os.path.join(DATA_DIR, "*.json"))):
        value = parse_automaton(src)
        if isinstance(value, Dqta) and value.k != value.l:
            continue
        masses = simulate(value, (0, 0), 100)
        assert all(abs(n - 1.0) <= 1e-9 for n in masses.sum(axis=1))


def test_simulation_accepts_state_vectors_and_checks_norm():
    cell = build_cell(2, 1)
    v = np.zeros(8)
    v[0] = v[4] = 1.0 / np.sqrt(2.0)
    masses = simulate(cell, v, 1)
    assert abs(masses.sum(axis=1)[1] - 1.0) <= 1e-9
    with pytest.raises(ValueError, match="norm"):
        simulate(cell, 2.0 * v, 1)
    with pytest.raises(ValueError, match="length"):
        simulate(cell, np.ones(3), 1)


@pytest.mark.parametrize("phased", [False, True])
def test_simulation_of_a_carried_form_equals_the_dense_product(phased):
    rng = np.random.default_rng(3)
    tau = random_monomial(rng, 24, 24, phased)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    v /= np.linalg.norm(v)
    for start in ((5, 2), v):
        out = simulate(UnitaryDqta(4, 6, 6, tau), start, 50)
        ref = simulate(UnitaryDqta(4, 6, 6, dense(tau)), start, 50)
        if phased:
            assert np.allclose(out, ref, rtol=0, atol=1e-12)
        else:
            assert same_bits(out, ref)


def test_simulation_of_a_qta_is_that_of_its_unitary_dqta():
    for q in (parse_automaton(os.path.join(DATA_DIR, "cell_2s1b_bidir.json")),
              make_qta(2, 3, random_isometry(6, 6, 24))):
        assert isinstance(q, Qta)
        want = simulate(UnitaryDqta(q.h, q.n, q.n, q.tau), (1, 0), 50)
        assert same_bits(simulate(q, (1, 0), 50), want)


def test_simulation_rejects_rectangular_automata():
    with pytest.raises(ValueError, match="square"):
        simulate(rand_dqta(1, 2, 3, 0), (0, 0), 1)


def loop_simulate(q, initial, steps):
    """simulate as a per-step loop over the whole state vector, with each
    step's masses stacked as they are summed: the reference for the
    particle walk."""
    h, n, tau = q.h, q.k, q.tau
    if isinstance(initial, tuple):
        v = np.zeros(h * n, dtype=complex)
        v[initial[1] * n + initial[0]] = 1.0
    else:
        v = np.asarray(initial, dtype=complex).reshape(-1)
    masses = []
    for step in range(steps + 1):
        if step > 0 and tau.form is None:
            v = tau.mat @ v
        elif step > 0:
            w = np.empty_like(v)
            w[tau.form[0]] = tau.form[1] * v
            v = w
        masses.append((np.abs(v.reshape(h, n)) ** 2).sum(axis=0))
    return np.stack(masses)


@pytest.mark.parametrize("mirror", [False, True])
def test_walk_on_a_segment_equals_the_loop_bit_for_bit(mirror):
    seg = chain_cells(build_cell(2, 2), 4, mirror=mirror)
    for start in range(seg.k):
        assert same_bits(simulate(seg, (start, 0), 1000),
                         loop_simulate(seg, (start, 0), 1000))


def unit_vector(rng, side, keep):
    v = rng.standard_normal(side) + 1j * rng.standard_normal(side)
    v[~keep] = 0.0
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_simulation_of_a_phased_monomial_equals_the_loop_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    for h in (1, 3):
        q = UnitaryDqta(h, n, n, random_monomial(rng, h * n, h * n))
        one = np.zeros(h * n, dtype=complex)
        one[h * n - 1] = np.exp(0.7j)
        starts = [(i, b) for i in range(n) for b in range(h)] + [
            unit_vector(rng, h * n, np.ones(h * n, dtype=bool)),
            unit_vector(rng, h * n, np.arange(h * n) % 2 == 0),
            one]
        for start in starts:
            assert same_bits(simulate(q, start, 300),
                             loop_simulate(q, start, 300))


def test_simulation_of_a_dense_automaton_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(9)
    q = rand_dqta(3, 4, 4, 12)
    for start in ((2, 1), unit_vector(rng, 12, np.ones(12, dtype=bool))):
        for steps in (0, 200):
            assert same_bits(simulate(q, start, steps),
                             loop_simulate(q, start, steps))
    seg = chain_cells(build_cell(2, 2), 2)
    assert same_bits(simulate(seg, (3, 0), 0), loop_simulate(seg, (3, 0), 0))


@pytest.fixture(scope="module")
def wide_segment():
    # side 262144: a state vector is 4 MiB
    return chain_cells(build_cell(2, 2), 8)


def peak_growth_per_entry(run, n, steps):
    """The growth of tracemalloc's peak per added trace entry (n masses and
    a total per step) from run(steps[0]) to run(steps[1])."""
    peaks = []
    for s in steps:
        tracemalloc.start()
        try:
            run(s)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / ((steps[1] - steps[0]) * (n + 1))


def test_a_walk_costs_its_trace_not_the_side(wide_segment, tmp_path):
    seg = wide_segment
    masses = simulate(seg, (0, 0), 1000)
    assert same_bits(masses[:20], loop_simulate(seg, (0, 0), 19))
    assert all(abs(t - 1.0) <= 1e-9 for t in masses.sum(axis=1))
    assert peak_growth_per_entry(lambda s: simulate(seg, (0, 0), s), seg.k,
                                 (1000, 4000)) <= cli.TRACE_BYTES_PER_ENTRY
    # the charge covers the walk, the dense loop, and qta simulate on each
    path = str(tmp_path / "q.json")

    def command(s):
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert run_command(["simulate", path, "--steps", str(s)]) == 0

    rng = np.random.default_rng(35)
    for n in (1, 2, 4):
        for tau in (random_monomial(rng, 8 * n, 8 * n, phased=False),
                    random_isometry(8 * n, 8 * n, n)):
            q = UnitaryDqta(8, n, n, tau)
            write_automaton(q, path)
            assert (parse_automaton(path).tau.form is None) == (tau.form is None)
            for run in (lambda s: simulate(q, (0, 0), s), command):
                assert (peak_growth_per_entry(run, n, (1000, 10000))
                        <= cli.TRACE_BYTES_PER_ENTRY)


def test_a_walk_that_fits_in_memory_is_not_refused(monkeypatch):
    # 64 MiB of physical memory; 200000 steps at n = 4 are 1000005 entries
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2 ** 14}
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf",
                        lambda name: memory.get(name) or sysconf(name))
    seg = chain_cells(build_cell(2, 2), 2)
    assert seg.k == 4 and seg.tau.form is not None
    tracemalloc.start()
    try:
        masses = simulate(seg, (0, 0), 200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masses.shape == (200001, 4)
    assert peak < 2 ** 26


def test_a_pair_start_builds_no_state_vector(wide_segment):
    # the state vector is 4 MiB
    seg = wide_segment
    tracemalloc.start()
    try:
        masses = simulate(seg, (1, 2), 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert same_bits(masses, loop_simulate(seg, (1, 2), 10))


@pytest.mark.parametrize("start", ["pair", "vector"])
def test_a_trace_past_memory_is_refused_before_the_first_step(wide_segment,
                                                              start):
    seg = wide_segment
    side = seg.h * seg.k
    initial = (0, 0) if start == "pair" else np.eye(1, side, 5)[0]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            simulate(seg, initial, 10 ** 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith(
        f"simulate: refusing to simulate {10 ** 15} steps over {seg.k} "
        "interfaces: holding the trace needs ")
    assert "GiB of physical memory" in str(err.value)
    # a state vector is 4 MiB, so no step was taken
    assert peak < 2 ** 20


def test_simulate_command_refuses_a_trace_past_memory(capsys):
    cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    assert run_command(["simulate", cell, "--steps", str(10 ** 15)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {cell}: refusing to simulate {10 ** 15} "
                          "steps over 4 interfaces: holding the trace needs ")


# ----------------------------------------------------------------- commands

def test_chaining_commutes_with_bidirectionalization():
    # assembling two cells and then flattening agrees with flattening one
    # cell and composing the flattened morphisms
    for cell in (build_cell(2, 1),
                 build_cell(2, 1, random_isometry(8, 8, 99))):
        via_chain = name_of(as_int0(chain_cells(cell, 2), 2))
        f = as_int0(cell, 2)
        via_int0 = name_of(int_compose(f, f))
        assert (via_chain.h, via_chain.n) == (via_int0.h, via_int0.n) == (4, 4)
        assert op_distance(via_chain.tau, via_int0.tau) <= 1e-7


def test_usage_errors_exit_2(capsys):
    assert run_command([]) == 2
    assert run_command(["frobnicate"]) == 2
    assert run_command(["feedback", "x.json"]) == 2
    capsys.readouterr()


def test_one_parser_serves_every_command_as_a_fresh_one_would(capsys,
                                                               monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    argvs = [["feedback", "x.json"], ["--help"], ["chain", "--help"],
             ["frobnicate"], ["validate", cell], [],
             ["simulate", cell, "--steps", "x"],
             ["simulate", cell, "--steps", "2", "--start", "1"]] * 2

    def outcomes():
        # run_command's exit code, standard output and error for each argv
        return [(run_command(argv), *capsys.readouterr()) for argv in argvs]

    reused = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == reused
    assert [code for code, _, _ in reused] == [2, 0, 0, 2, 0, 2, 2, 0] * 2
    assert reused[1][1].startswith("usage: qta ")
    assert "invalid choice: 'frobnicate'" in reused[3][2]


def _record_text(kind="dqta", h=1, k=1, l=1, matrix=(), **extra):
    return json.dumps({"kind": kind, "h": h, "k": k, "l": l,
                       "matrix": list(matrix), **extra})


# a square transition inside the isometry gate whose adjoint is outside it:
# its first row, not a column, carries the 1.5e-9 stretch
_STRETCHED = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
_STRETCHED[0] *= np.sqrt(1 + 1.5e-9)
_LR = ["(L,1)", "(R,1)"]
_IDENTITY_2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_CELL = ["cell", "--states", "1", "--bits", "0", "-o", "{t}/out.json"]


# (text of {t}/f.json or None, argv, message); {t} is the temporary
# directory and {d} the data directory
@pytest.mark.parametrize("text, argv, message", [
    ("[1]", ["validate", "{t}/f.json"],
     "{t}/f.json: top level must be an object"),
    (_record_text(kind="x", matrix=[[[1, 0]]]),
     ["validate", "{t}/f.json"],
     "{t}/f.json: field 'kind' must be 'dqta' or 'qta'"),
    (_record_text(h=0), ["validate", "{t}/f.json"],
     "{t}/f.json: field 'h' must be positive"),
    (_record_text(k=-1), ["validate", "{t}/f.json"],
     "{t}/f.json: field 'k' must be a nonnegative integer"),
    (_record_text(h=True), ["validate", "{t}/f.json"],
     "{t}/f.json: field 'h' must be a nonnegative integer"),
    ('{"matrix": [', _CELL + ["--rule", "{t}/f.json"],
     "{t}/f.json:1:13: Expecting value"),
    ('{"matrix": []}', _CELL + ["--rule", "{t}/f.json"],
     "{t}/f.json: rule matrix must be a nonempty list"),
    ('{"rule": []}', _CELL + ["--rule", "{t}/f.json"],
     "{t}/f.json: rule must be a list of pairs or an object with a "
     "'matrix' field"),
    ('[[["L", 1], ["R", 1, 0]]]', _CELL + ["--rule", "{t}/f.json"],
     "rule source ['L', 1] must be [dir, state, symbol]"),
    ('[["L", 1, 0]]', _CELL + ["--rule", "{t}/f.json"],
     "rule entry ['L', 1, 0] must be a [source, target] pair"),
    (None, ["cell", "--states", "0", "--bits", "0", "-o", "{t}/out.json"],
     "states must be positive, got 0"),
    (None, ["cell", "--states", "1", "--bits", "-1", "-o", "{t}/out.json"],
     "alphabet_bits must be nonnegative, got -1"),
    (None, ["chain", "{d}/cell_2s1b.json", "--n", "0", "-o", "{t}/out.json"],
     "n must be positive, got 0"),
    (_record_text(h=2, k=0, l=0),
     ["simulate", "{t}/f.json", "--steps", "1"],
     "automaton has no interface to carry the control"),
    (None, ["simulate", "{d}/cell_2s1b.json", "--steps", "-1"],
     "steps must be nonnegative, got -1"),
    (None, ["simulate", "{d}/cell_2s1b.json", "--steps", "1", "--start", "4"],
     "interface index 4 out of range 0..3"),
    (_record_text(
        k=2, l=2, matrix=np.stack([_STRETCHED, 0 * _STRETCHED], -1).tolist(),
        labels={"input": _LR, "output": _LR}),
     ["bidir", "{t}/f.json", "--route", "name", "-o", "{t}/out.json"],
     "{t}/f.json: the name route needs a unitary square transition"),
    (_record_text(k=2, l=2, matrix=_IDENTITY_2,
                  labels={"input": _LR, "output": _LR[::-1]}),
     ["chain", "{t}/f.json", "--n", "2", "-o", "{t}/out.json"],
     "{t}/f.json: chain needs interfaces labeled as matching (L,*) and "
     "(R,*) halves"),
    (_record_text(k=2, l=2, matrix=_IDENTITY_2,
                  labels={"input": _LR[::-1], "output": _LR[::-1]}),
     ["chain", "{t}/f.json", "--n", "2", "-o", "{t}/out.json"],
     "{t}/f.json: chain needs interfaces labeled as matching (L,*) and "
     "(R,*) halves"),
    # the syntax error lies after the matrix: it is json's error, as is
    # every error the carried reader leaves to the nested one
    ('{"kind": "dqta", "h": 1, "k": 1, "l": 1, "matrix": [[[1, 0]]], oops}',
     ["validate", "{t}/f.json"],
     "{t}/f.json:1:64: Expecting property name enclosed in double quotes"),
    ('{"kind": "dqta", "h": 1, "k": 1, "l": 1, "matrix": [[["é", 0]]]}',
     ["validate", "{t}/f.json"],
     "{t}/f.json: matrix entry (0,0) must be a [re, im] pair"),
    # a JSON boolean is no state or symbol of a rule table
    ('[[["L", true, 0], ["R", 1, 0]]]', _CELL + ["--rule", "{t}/f.json"],
     "rule source state must be in 1..1, got True"),
    ('[[["L", 1, false], ["R", 1, 0]]]', _CELL + ["--rule", "{t}/f.json"],
     "rule source symbol must be in 0..0, got False"),
    ('[[["L", 1, 0], ["R", true, 0]]]', _CELL + ["--rule", "{t}/f.json"],
     "rule target state must be in 1..1, got True"),
    ('[[["L", 1, 0], ["R", 1, false]]]', _CELL + ["--rule", "{t}/f.json"],
     "rule target symbol must be in 0..0, got False"),
    # a matrix rule that does not fit the cell names its file
    ('{"matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], '
     '[[0, 0], [0, 0], [1, 0]]]}', _CELL + ["--rule", "{t}/f.json"],
     "{t}/f.json: transition is 3x3, expected 2x2"),
    ('{"matrix": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}',
     _CELL + ["--rule", "{t}/f.json"],
     "{t}/f.json: transition must be unitary (defect 1.000e+00)"),
    # but an argument error stays the argument's
    ('{"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}',
     ["cell", "--states", "0", "--bits", "0", "--rule", "{t}/f.json",
      "-o", "{t}/out.json"],
     "states must be positive, got 0"),
])
def test_command_errors_exit_1_with_their_message(tmp_path, capsys, text,
                                                  argv, message):
    if text is not None:
        write_text(tmp_path, text, "f.json")
    fill = lambda s: s.format(t=tmp_path, d=DATA_DIR)
    assert run_command([fill(a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {fill(message)}\n"
    assert not os.path.exists(tmp_path / "out.json")


@pytest.mark.parametrize("argv", [
    ["compose", "{q}", "{q}"],
    ["tensor", "{q}", "{q}"],
    ["feedback", "{q}", "--u", "1"],
    ["bidir", "{q}"],
    ["chain", "{q}", "--n", "2"],
])
def test_directed_commands_refuse_a_qta_record(tmp_path, capsys, argv):
    q = os.path.join(DATA_DIR, "cell_2s1b_bidir.json")
    out = tmp_path / "out.json"
    assert run_command([a.format(q=q) for a in argv] + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {q}: {argv[0]} works on dqta records\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("value, initial, message", [
    ("cell", (0, 0), "cannot simulate str"),
    (build_cell(2, 1), (0, 2), "basis index 2 out of range 0..1"),
    # a bool is an Integral, but no index
    (build_cell(2, 1), (True, 0),
     "start pair (True, 0) must hold integers, not booleans"),
    # the message holds the pair's repr, which numpy 1 and 2 print apart
    (build_cell(2, 1), (np.int64(1), False),
     f"start pair {(np.int64(1), False)!r} must hold integers, not booleans"),
])
def test_simulate_rejects_what_no_command_sends(value, initial, message):
    with pytest.raises(ValueError) as err:
        simulate(value, initial, 1)
    assert str(err.value) == message


def test_simulate_reads_a_start_pair_of_numpy_integers():
    cell = build_cell(2, 1)
    assert same_bits(simulate(cell, (np.int64(3), np.int32(1)), 3),
                     simulate(cell, (3, 1), 3))


def test_writer_builds_dense_text_before_opening_the_file(tmp_path,
                                                         monkeypatch):
    # only a carried form's text is streamed into the open file
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli.np, "stack", out_of_memory)
    with pytest.raises(MemoryError):
        write_automaton(rand_dqta(1, 2, 2, 3), str(tmp_path / "out.json"))
    assert not os.path.exists(tmp_path / "out.json")


def test_segment_goes_to_the_file_in_few_writes(tmp_path, monkeypatch):
    # the side-1024 segment's 12.6 MB of row pieces; through the default
    # buffer each 6 KB zero-row slice was a write of its own, 2048 in all
    writes = []

    class CountingFile(io.RawIOBase):
        def __init__(self, raw):
            self.raw = raw

        def writable(self):
            return True

        def write(self, b):
            writes.append(len(b))
            return self.raw.write(b)

        # the one raw call, other than writes, of a rewrite in place
        def truncate(self, size=None):
            return self.raw.truncate(size)

        def close(self):
            self.raw.close()
            super().close()

    def counting_open(path, mode="r", buffering=-1):
        if mode != "wb":
            return open(path, mode, buffering)
        raw = CountingFile(open(path, mode, buffering=0))
        return io.BufferedWriter(raw, buffering)

    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "2",
                        "-o", cell]) == 0
    out = str(tmp_path / "seg.json")
    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    tau = chain_cells(build_cell(2, 2), 4).tau
    text = (cli._head_text("dqta", 256, 4, 4) + b"".join(cli._matrix_text(tau))
            + cli._tail_text(load_record(cell).labels))
    # a new file, then a rewrite of it in place
    for _ in range(2):
        writes.clear()
        assert run_command(["chain", cell, "--n", "4", "-o", out]) == 0
        with open(out, "rb") as fh:
            assert fh.read() == text
        assert sum(writes) == len(text) == 12_585_122
        assert len(writes) <= 16


def _segment_bytes(cell, n, out):
    assert run_command(["chain", cell, "--n", str(n), "-o", out]) == 0
    with open(out, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("before", [4, 2, 3], ids=["longer", "shorter", "same"])
def test_a_rewrite_equals_a_fresh_write(tmp_path, before):
    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "2",
                        "-o", cell]) == 0
    fresh = _segment_bytes(cell, 3, str(tmp_path / "fresh.json"))
    out = str(tmp_path / "seg.json")
    old = _segment_bytes(cell, before, out)
    assert (len(old) > len(fresh), old == fresh) == (before > 3, before == 3)
    assert _segment_bytes(cell, 3, out) == fresh


def test_a_rewrite_keeps_the_file_its_mode_and_its_links(tmp_path):
    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "2",
                        "-o", cell]) == 0
    out, link = str(tmp_path / "seg.json"), str(tmp_path / "link.json")
    _segment_bytes(cell, 4, out)
    os.chmod(out, 0o640)
    os.link(out, link)
    inode = os.stat(out).st_ino
    text = _segment_bytes(cell, 2, out)
    assert os.stat(out).st_ino == inode
    assert os.stat(out).st_mode & 0o777 == 0o640
    with open(link, "rb") as fh:
        assert fh.read() == text


def test_a_new_file_gets_the_mode_open_gives(tmp_path):
    mask = os.umask(0o027)
    try:
        write_automaton(build_cell(1, 1), str(tmp_path / "new.json"))
        with open(tmp_path / "opened.json", "wb"):
            pass
    finally:
        os.umask(mask)
    mode = os.stat(tmp_path / "new.json").st_mode & 0o777
    assert mode == os.stat(tmp_path / "opened.json").st_mode & 0o777 == 0o640


def test_an_unfinished_rewrite_is_refused(tmp_path, monkeypatch):
    # over an equal file, new text before the old tail is the whole file
    value = chain_cells(build_cell(2, 2), 3)
    out = str(tmp_path / "seg.json")
    write_automaton(value, out)
    carried_text = cli._carried_text

    def unfinished(op):
        pieces = list(carried_text(op))
        yield from pieces[:len(pieces) // 2]
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli, "_carried_text", unfinished)
    with pytest.raises(RuntimeError, match="interrupted"):
        write_automaton(value, out)
    with pytest.raises(ValueError):
        load_record(out)


def test_a_device_is_written_as_a_stream(capsys):
    assert run_command(["cell", "--states", "1", "--bits", "1",
                        "-o", os.devnull]) == 0
    assert capsys.readouterr().out == f"wrote {os.devnull}: dqta h=2 k=2 l=2\n"


def test_writer_rejects_what_no_command_sends(tmp_path):
    with pytest.raises(ValueError) as err:
        write_automaton(3, str(tmp_path / "out.json"))
    assert str(err.value) == "cannot serialize int"
    assert not os.path.exists(tmp_path / "out.json")


def test_validation_failure_exits_1(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump({"kind": "dqta", "h": 1, "k": 1, "l": 1,
                   "matrix": [[[0.5, 0.0]]]}, fh)
    assert run_command(["validate", path]) == 1
    assert "defect" in capsys.readouterr().err


def test_validate_reports_shape_and_defect(capsys):
    src = os.path.join(DATA_DIR, "cell_2s1b.json")
    assert run_command(["validate", src]) == 0
    out = capsys.readouterr().out
    assert "dqta h=2 k=4 l=4" in out


@pytest.mark.parametrize("name, products", [
    ("cell_2s1b.json", 2), ("cell_2s1b_bidir.json", 2), ("rectangular", 1)])
def test_validate_computes_each_gram_product_once(tmp_path, capsys,
                                                 monkeypatch, name, products):
    # a square dqta needs tau's gram product and its adjoint's, a qta the
    # same two, a rectangular dqta only tau's
    path = os.path.join(DATA_DIR, name)
    if name == "rectangular":
        path = str(tmp_path / "t.json")
        write_automaton(rand_dqta(2, 2, 3, 5), path)
    value = parse_automaton(path)
    if isinstance(value, Qta):
        expected = (f"{path}: qta h={value.h} k={value.n} "
                    f"unitary defect {unitary_defect(value.tau):.3g}\n")
    else:
        expected = (f"{path}: dqta h={value.h} k={value.k} l={value.l} "
                    f"isometry defect {isometry_defect(value.tau):.3g}\n")
    calls = []

    def counted(f):
        calls.append(f)
        return isometry_defect(f)

    for module in (linalg, trace, dqta, intcat, cli):
        if hasattr(module, "isometry_defect"):
            monkeypatch.setattr(module, "isometry_defect", counted)
    assert run_command(["validate", path]) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) == products


def test_integer_entry_beyond_float_range_is_a_load_error(tmp_path, capsys):
    path = write_text(tmp_path, '{"kind": "dqta", "h": 1, "k": 1, "l": 1, '
                                '"matrix": [[[1' + "0" * 400 + ', 0]]]}')
    with pytest.raises(ValueError, match="too large for a float"):
        load_record(path)
    assert run_command(["validate", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "too large" in err


def test_memory_error_is_reported_without_a_traceback(tmp_path, capsys,
                                                      monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB for an array")

    # n = 2 (side 256) passes the argument-sized refusal on any host
    monkeypatch.setattr(cli, "chain_cells", out_of_memory)
    out = str(tmp_path / "seg.json")
    assert run_command(["chain", os.path.join(DATA_DIR, "cell_2s3b.json"),
                        "--n", "2", "-o", out]) == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 16.0 GiB "
                   "for an array\n")
    assert not os.path.exists(out)


def test_compose_tensor_feedback_commands(tmp_path, capsys):
    cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    composed = str(tmp_path / "composed.json")
    assert run_command(["compose", cell, cell, "-o", composed]) == 0
    value = parse_automaton(composed)
    assert (value.h, value.k, value.l) == (4, 4, 4)
    assert load_record(composed).labels == {
        "input": cell_labels(2), "output": cell_labels(2)}

    tensored = str(tmp_path / "tensored.json")
    assert run_command(["tensor", cell, cell, "-o", tensored]) == 0
    value = parse_automaton(tensored)
    assert (value.h, value.k, value.l) == (4, 8, 8)

    fed = str(tmp_path / "fed.json")
    assert run_command(["feedback", cell, "--u", "1", "-o", fed]) == 0
    value = parse_automaton(fed)
    assert (value.h, value.k, value.l) == (2, 3, 3)
    assert load_record(fed).labels == {
        "input": ("(L,2)", "(R,1)", "(R,2)"),
        "output": ("(L,2)", "(R,1)", "(R,2)")}
    capsys.readouterr()


def test_feedback_yanking_via_files(tmp_path, capsys):
    swap = os.path.join(DATA_DIR, "swap.json")
    out = str(tmp_path / "ident.json")
    assert run_command(["feedback", swap, "--u", "1", "-o", out]) == 0
    value = parse_automaton(out)
    assert (value.h, value.k, value.l) == (1, 1, 1)
    assert op_distance(value.tau, identity(1)) == 0.0
    capsys.readouterr()


@pytest.mark.parametrize("theta", [1e-3, 3e-4, 2e-4, 1e-4, 5e-5])
def test_feedback_writes_only_files_validate_accepts(tmp_path, capsys, theta):
    # the closed form loses up to about eps / theta^2 on this valid input;
    # a result the loader would reject must not be written
    src, out = str(tmp_path / "theta.json"), str(tmp_path / "closed.json")
    write_automaton(make_unitary_dqta(1, 4, theta_blockmap(theta).op), src)
    code = run_command(["feedback", src, "--u", "2", "-o", out])
    if code == 0:
        assert run_command(["validate", out]) == 0
    else:
        assert code == 1 and "defect" in capsys.readouterr().err
        assert not os.path.exists(out)
    capsys.readouterr()


def test_bidir_routes(tmp_path, capsys):
    cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    named = str(tmp_path / "named.json")
    assert run_command(["bidir", cell, "-o", named]) == 0
    assert "name route" in capsys.readouterr().out
    q = parse_automaton(named)
    assert isinstance(q, Qta)
    assert q.tau.mat.shape == (8, 8)
    assert np.array_equal(q.tau.mat, parse_automaton(cell).tau.mat)

    functored = str(tmp_path / "functored.json")
    assert run_command(["bidir", cell, "--route", "functor",
                        "-o", functored]) == 0
    qf = parse_automaton(functored)
    assert (qf.h, qf.n) == (4, 8)
    assert op_distance(qf.tau, bidirectionalize(parse_automaton(cell)).tau) == 0.0
    capsys.readouterr()


def test_bidir_name_route_needs_labels(tmp_path, capsys):
    plain = str(tmp_path / "plain.json")
    write_automaton(unit_automata(2, 2)[0], plain)
    assert run_command(["bidir", plain, "--route", "name", "-o",
                        str(tmp_path / "x.json")]) == 1
    assert "labels" in capsys.readouterr().err
    # auto falls back to the functor route
    out = str(tmp_path / "y.json")
    assert run_command(["bidir", plain, "-o", out]) == 0
    assert "functor route" in capsys.readouterr().out


def test_cell_and_chain_commands(tmp_path, capsys):
    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "1",
                        "-o", cell]) == 0
    seg = str(tmp_path / "seg.json")
    assert run_command(["chain", cell, "--n", "2", "-o", seg]) == 0
    value = parse_automaton(seg)
    assert (value.h, value.k, value.l) == (4, 4, 4)
    assert load_record(seg).labels == {
        "input": cell_labels(2), "output": cell_labels(2)}
    capsys.readouterr()


def test_chain_has_no_ring_option(tmp_path, capsys):
    out = str(tmp_path / "ring.json")
    argv = ["chain", os.path.join(DATA_DIR, "cell_2s1b.json"), "--n", "2",
            "--ring", "-o", out]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.endswith(
        "qta: error: unrecognized arguments: --ring\n")
    assert not os.path.exists(out)


def test_oversized_segment_is_refused_before_any_text(tmp_path, capsys):
    # side 4 * 4 ** 8 = 262144: the carried chain takes tens of megabytes,
    # reading a dense copy back would take 19 TiB; the refusal comes from
    # the arguments
    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "2",
                        "-o", cell]) == 0
    capsys.readouterr()
    out = str(tmp_path / "seg.json")
    tracemalloc.start()
    try:
        code = run_command(["chain", cell, "--n", "8", "-o", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: refusing to write a 262144x262144 "
                          "transition: reading it back needs 19200.0 GiB")
    assert not os.path.exists(out)
    assert peak < 2 ** 20


@pytest.mark.parametrize("n", [100_000, 10_000_000])
def test_argument_sized_segment_is_refused_without_building_its_side(
        tmp_path, capsys, n):
    # side 4 * 4 ** n has over 60 000 digits: it is named by its factors,
    # never built or converted to text
    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "2",
                        "-o", cell]) == 0
    capsys.readouterr()
    out = str(tmp_path / "seg.json")
    tracemalloc.start()
    try:
        code = run_command(["chain", cell, "--n", str(n), "-o", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: refusing to write")
    assert not os.path.exists(out)
    assert peak < 2 ** 20


def test_segment_refusal_in_a_fresh_interpreter_stays_small(tmp_path, capsys):
    # nothing the refusal needs may pull in a large module on first use
    # (numpy's np.unique imports numpy.ma, about 1 MB)
    cell = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "2", "--bits", "2",
                        "-o", cell]) == 0
    capsys.readouterr()
    out = str(tmp_path / "seg.json")
    script = ("import sys, tracemalloc\n"
              "from qta.cli import run_command\n"
              "tracemalloc.start()\n"
              "code = run_command(sys.argv[1:])\n"
              "print(code, tracemalloc.get_traced_memory()[1])\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script, "chain", cell, "--n", "8", "-o", out],
        capture_output=True, text=True, env=env, check=True)
    code, peak = map(int, done.stdout.split())
    assert code == 1
    assert f"error: {out}: refusing to write" in done.stderr
    assert not os.path.exists(out)
    assert peak < 2 ** 20


@pytest.mark.parametrize("argv, builder", [
    (["compose", "cell_2s1b.json", "cell_2s1b.json"], "cascade"),
    (["tensor", "cell_2s1b.json", "cell_2s1b.json"], "turing_tensor"),
    (["bidir", "cell_2s1b.json", "--route", "functor"], "bidirectionalize"),
    (["chain", "cell_2s1b.json", "--n", "2"], "chain_cells"),
])
def test_oversized_result_is_refused_before_it_is_computed(
        tmp_path, capsys, monkeypatch, argv, builder):
    # with one byte of physical memory every result is oversized
    def never(*args):
        raise AssertionError(f"{builder} ran before the refusal")

    monkeypatch.setattr(cli.os, "sysconf", lambda name: 1)
    monkeypatch.setattr(cli, builder, never)
    out = str(tmp_path / "out.json")
    argv = [os.path.join(DATA_DIR, a) if a.endswith(".json") else a
            for a in argv]
    assert run_command(argv + ["-o", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: refusing to write")
    assert not os.path.exists(out)


@pytest.mark.parametrize("bits", [20, 600, 20000])
def test_oversized_cell_is_refused_before_it_is_built(tmp_path, capsys, bits):
    # side 2 * 2 ** 20: the cell's index map alone would take tens of
    # megabytes; at 600 bits the side fits no array and no float; at 20000
    # bits it has more digits than the interpreter converts to text
    out = str(tmp_path / "cell.json")
    tracemalloc.start()
    try:
        code = run_command(["cell", "--states", "1", "--bits", str(bits),
                            "-o", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: refusing to write")
    assert not os.path.exists(out)
    assert peak < 2 ** 20


def test_writing_and_reading_back_stay_within_the_refusal_cost(tmp_path):
    # the refusal charges READ_BACK_BYTES_PER_ENTRY per dense entry; a
    # dense side-256 file, which the nested reader reads, must write and
    # load below that
    cell = make_unitary_dqta(64, 4, random_isometry(256, 256, 5))
    labels = ["a", "b", "c", "d"]
    path = str(tmp_path / "haar.json")
    budget = cli.READ_BACK_BYTES_PER_ENTRY * 256 * 256
    peaks = []
    for step in (lambda: write_automaton(cell, path, {"input": labels,
                                                      "output": labels}),
                 lambda: load_record(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < budget
    assert np.array_equal(load_record(path).tau.mat, cell.tau.mat)


def test_chain_command_requires_labels(tmp_path, capsys):
    plain = str(tmp_path / "plain.json")
    write_automaton(build_cell(2, 1), plain)
    assert run_command(["chain", plain, "--n", "2",
                        "-o", str(tmp_path / "x.json")]) == 1
    assert "label" in capsys.readouterr().err


def test_non_finite_rule_entries_name_the_rule_file(tmp_path, capsys):
    rule = write_text(tmp_path, '{"matrix": [[[NaN, 0]]]}', "rule.json")
    out = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "1", "--bits", "0",
                        "--rule", rule, "-o", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {rule}: operator entries must be finite\n")
    assert not os.path.exists(out)


def test_cell_command_with_rule_file(tmp_path, capsys):
    rule_path = str(tmp_path / "rule.json")
    with open(rule_path, "w") as fh:
        json.dump([[["L", 1, 0], ["R", 1, 0]], [["R", 1, 0], ["L", 1, 0]]], fh)
    out = str(tmp_path / "cell.json")
    assert run_command(["cell", "--states", "1", "--bits", "0",
                        "--rule", rule_path, "-o", out]) == 0
    value = parse_automaton(out)
    assert op_distance(value.tau, sum_swap(1, 1)) == 0.0
    bad_rule = str(tmp_path / "bad.json")
    with open(bad_rule, "w") as fh:
        json.dump([[["L", 1, 0], ["L", 1, 0]], [["R", 1, 0], ["L", 1, 0]]], fh)
    assert run_command(["cell", "--states", "1", "--bits", "0",
                        "--rule", bad_rule, "-o", out]) == 1
    capsys.readouterr()


def json_lines(masses):
    """json.dumps of each step's record, one line each, with the row sums
    as totals."""
    return "".join(json.dumps({"step": step, "masses": row,
                               "total_norm": total}) + "\n"
                   for step, (row, total) in enumerate(
                       zip(masses.tolist(), masses.sum(axis=1).tolist())))


@pytest.mark.parametrize("steps", [0, 1, 300])
@pytest.mark.parametrize("which", ["haar-cell", "segment"])
def test_simulate_prints_json_dumps_of_each_step(tmp_path, capsys, which,
                                                 steps):
    # a dense Haar-rule cell, whose masses print as long float reprs, and
    # a carried segment, on the walk
    path = str(tmp_path / "a.json")
    write_automaton(build_cell(2, 1, random_isometry(8, 8, 99))
                    if which == "haar-cell" else
                    chain_cells(build_cell(2, 2), 2), path)
    for start in (0, 3):
        masses = simulate(parse_automaton(path), (start, 0), steps)
        assert run_command(["simulate", path, "--steps", str(steps),
                            "--start", str(start)]) == 0
        assert capsys.readouterr().out == json_lines(masses)
    assert (parse_automaton(path).tau.form is None) == (which == "haar-cell")
    if steps and which == "haar-cell":
        assert any(len(repr(m)) > 15 for m in masses[-1].tolist())


def test_simulate_command_prints_json_steps(capsys):
    cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    assert run_command(["simulate", cell, "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert abs(record["total_norm"] - 1.0) <= 1e-9


def test_axioms_command(capsys):
    assert run_command(["axioms", "--instances", "0"]) == 0
    capsys.readouterr()
    assert run_command(["axioms", "--seed", "3", "--instances", "5",
                        "--laws", "tensor-compat",
                        "conway-counterexample"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["law"] == "feedback-tensor-compat"
    assert first["pass"] is True
    assert json.loads(lines[1])["pass"] is False


def test_axioms_command_rejects_max_dim_below_two(capsys):
    assert run_command(["axioms", "--max-dim", "1"]) == 1
    assert "max_dim must be at least 2, got 1" in capsys.readouterr().err


def test_axioms_command_judges_the_counterexample_at_its_tolerance(capsys):
    # a designated counterexample that passes fails the suite
    assert run_command(["axioms", "--laws", "conway-counterexample",
                        "--tol", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["max_violation"] == 1
    assert report["pass"] is True


def test_axioms_command_passes_at_max_dim_two(capsys):
    # every group, its draws at most 2 wide
    assert run_command(["axioms", "--max-dim", "2", "--instances", "5"]) == 0
    reports = capsys.readouterr().out.splitlines()
    assert all(json.loads(r)["instances"] == 5 for r in reports[:-1])


def entries(m):
    """The [[[re, im], ...], ...] entries of the complex matrix m."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def write_json(tmp_path, record, name):
    return write_text(tmp_path, json.dumps(record), name)


def test_bidir_writes_the_shipped_qta_and_simulate_walks_each_qta(tmp_path,
                                                                  capsys):
    # the name route writes the cell's own transition, pinned by the
    # shipped file; a qta simulates as its unitary dqta
    cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    shipped = os.path.join(DATA_DIR, "cell_2s1b_bidir.json")
    named, functored = str(tmp_path / "named.json"), str(tmp_path / "f.json")
    assert run_command(["bidir", cell, "-o", named]) == 0
    with open(shipped, "rb") as fh:
        assert (tmp_path / "named.json").read_bytes() == fh.read()
    assert run_command(["bidir", cell, "--route", "functor",
                        "-o", functored]) == 0
    capsys.readouterr()
    for path in (named, functored, shipped):
        assert run_command(["simulate", path, "--steps", "3"]) == 0
        q = parse_automaton(path)
        assert isinstance(q, Qta)
        assert capsys.readouterr().out == json_lines(simulate(q, (0, 0), 3))


def test_a_haar_rule_cell_runs_through_every_directed_command(tmp_path,
                                                              capsys):
    # a dense Haar-rule cell: feedback at h > 1 takes the closed form's
    # dense path, chain int_compose's dense path and, mirrored, its direct
    # morphism; bidir's name route reads a dense segment and a carried one
    rule = write_json(tmp_path, {"matrix": entries(
        random_isometry(8, 8, 5).mat)}, "rule.json")
    t = lambda name: str(tmp_path / f"{name}.json")
    data_cell = os.path.join(DATA_DIR, "cell_2s1b.json")
    for argv in (["cell", "--states", "2", "--bits", "1", "--rule", rule,
                  "-o", t("haar")],
                 ["feedback", t("haar"), "--u", "1", "-o", t("haar_feedback")],
                 ["chain", t("haar"), "--n", "3", "-o", t("haar_seg")],
                 ["chain", t("haar"), "--n", "3", "--mirror",
                  "-o", t("haar_mirror")],
                 ["compose", t("haar"), t("haar"), "-o", t("haar_compose")],
                 ["tensor", t("haar"), t("haar"), "-o", t("haar_tensor")],
                 ["bidir", t("haar_seg"), "--route", "name",
                  "-o", t("haar_seg_bidir")],
                 ["chain", data_cell, "--n", "3", "-o", t("data_seg")],
                 ["bidir", t("data_seg"), "--route", "name",
                  "-o", t("data_seg_bidir")]):
        assert run_command(argv) == 0, argv
    assert parse_automaton(t("haar_seg")).tau.form is None
    assert parse_automaton(t("data_seg")).tau.form is not None
    for name in ("haar", "haar_feedback", "haar_seg", "haar_mirror",
                 "haar_compose", "haar_tensor", "haar_seg_bidir",
                 "data_seg_bidir"):
        assert run_command(["validate", t(name)]) == 0, name
    for name in ("haar_seg_bidir", "data_seg_bidir"):
        assert run_command(["simulate", t(name), "--steps", "3"]) == 0, name
    capsys.readouterr()


def test_a_phased_monomial_closes_to_the_same_bits_from_its_file(tmp_path,
                                                                 capsys):
    rng = np.random.default_rng(0)
    m = np.zeros((8, 8), complex)
    m[rng.permutation(8), np.arange(8)] = np.exp(2j * np.pi * rng.random(8))
    src = write_json(tmp_path, {"kind": "dqta", "h": 1, "k": 8, "l": 8,
                                "matrix": entries(m)}, "phased8.json")
    out = str(tmp_path / "closed.json")
    assert run_command(["feedback", src, "--u", "3", "-o", out]) == 0
    from_code = dqta.feedback_dqta(Dqta(1, 8, 8, Operator(m)), 3).tau.mat
    assert load_record(out).tau.mat.tobytes() == from_code.tobytes()
    capsys.readouterr()


def test_a_dense_file_keeps_an_infinity_label_a_string(tmp_path, capsys):
    # the nested reader reads this file; the label "Infinity", json's
    # name for inf, stays the string it is in the file
    labels = ["Infinity", "(L,2)", "(R,1)", "(R,2)"]
    path = write_json(tmp_path, {
        "kind": "dqta", "h": 2, "k": 4, "l": 4,
        "matrix": entries(random_isometry(8, 8, 6).mat),
        "labels": {"input": labels, "output": labels}}, "infinity.json")
    assert run_command(["validate", path]) == 0
    assert load_record(path).labels == {"input": tuple(labels),
                                        "output": tuple(labels)}
    capsys.readouterr()


def test_a_wide_dense_qta_file_is_checked_in_column_blocks(tmp_path, capsys):
    # side 256 > linalg.GRAM_BLOCK: both grams of the unitary check are
    # formed in column blocks, and one entry moved by 1e-6 is refused
    m = random_isometry(256, 256, 7).mat.copy()
    assert m.shape[1] > linalg.GRAM_BLOCK

    def save(name):
        return write_json(tmp_path, {"kind": "qta", "h": 1, "k": 256,
                                     "matrix": entries(m)}, name)

    assert run_command(["validate", save("wide.json")]) == 0
    m[200, 3] += 1e-6
    assert run_command(["validate", save("wide_moved.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ------------------------------------- the side-1024 segment and its walks

# sha256 of `qta chain --n 4` of the 2-state, 2-bit cell, and of `qta
# simulate --steps 1000` on it by start; a phased segment's masses go
# through np.exp, so only these phase-1 walks are pinned
SEGMENT_SHA256 = ("2aeb0564205914ffb69e4471f3fed98c"
                  "633b003c9e8a02fba8f9ab6e4260365c")
WALK_SHA256 = {0: "e3092aa2ab30daddb20f7190087d2e76"
                  "497184300a56228fdf388141d696c165",
               3: "e9dbc6e78033e63adc9711430ba36e80"
                  "ef8d253d4f9d72d5686a0e57ffbfdc89"}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def written_segment(tmp_path_factory):
    """Path of the side-1024 segment as `qta chain --n 4` writes it."""
    tmp = tmp_path_factory.mktemp("segment")
    cell, seg = str(tmp / "cell.json"), str(tmp / "seg.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command(["cell", "--states", "2", "--bits", "2",
                            "-o", cell]) == 0
        assert run_command(["chain", cell, "--n", "4", "-o", seg]) == 0
    return seg


def walk_text(capsys, path, start=0):
    """What `qta simulate path --steps 1000 --start start` prints."""
    capsys.readouterr()
    assert run_command(["simulate", path, "--steps", "1000",
                        "--start", str(start)]) == 0
    return capsys.readouterr().out


def test_a_segment_and_its_walks_keep_their_bytes(written_segment, capsys):
    with open(written_segment, "rb") as fh:
        assert sha256(fh.read()) == SEGMENT_SHA256
    assert run_command(["validate", written_segment]) == 0
    for start, digest in WALK_SHA256.items():
        walk = walk_text(capsys, written_segment, start)
        assert sha256(walk.encode()) == digest


def test_the_dense_twin_of_a_segment_walks_to_the_same_bytes(written_segment):
    q = parse_automaton(written_segment)
    twin = UnitaryDqta(q.h, q.k, q.l, dense(q.tau))
    assert twin.tau.form is None
    masses = simulate(twin, (0, 0), 1000)
    assert sha256(json_lines(masses).encode()) == WALK_SHA256[0]


def nested_copy(tmp_path, src, name="nested.json"):
    """Path of a copy of src with one space after '"matrix": [': still
    json, but not the writer's text, so the nested reader reads it."""
    path = copy_bytes(tmp_path, src, lambda b: b.replace(
        b'"matrix": [', b'"matrix": [ ', 1), name)
    with open(path, "rb") as fh:
        assert cli._read_carried(fh.read(), path) is None
    return path


def test_a_segment_read_by_the_nested_reader_walks_to_the_same_bytes(
        written_segment, tmp_path, capsys):
    path = nested_copy(tmp_path, written_segment)
    assert sha256(walk_text(capsys, path).encode()) == WALK_SHA256[0]


def test_a_phased_segment_walks_alike_from_its_nested_and_crlf_copies(
        tmp_path, capsys):
    # a seeded 16x16 monomial rule with unit phases chains to a carried
    # segment with 167 distinct entry texts
    rng = np.random.default_rng(3)
    rule = np.zeros((16, 16), complex)
    target = rng.permutation(16)  # drawn before the phases
    rule[target, np.arange(16)] = np.exp(2j * np.pi * rng.random(16))
    cell, seg = str(tmp_path / "cell.json"), str(tmp_path / "phased.json")
    assert run_command(["cell", "--states", "2", "--bits", "2", "--rule",
                        write_json(tmp_path, {"matrix": entries(rule)},
                                   "rule.json"), "-o", cell]) == 0
    assert run_command(["chain", cell, "--n", "4", "-o", seg]) == 0
    assert run_command(["validate", seg]) == 0
    crlf = copy_bytes(tmp_path, seg, lambda b: b.replace(b"\n", b"\r\n"),
                      "crlf.json")
    for path in (seg, crlf):
        with open(path, "rb") as fh:
            assert cli._read_carried(fh.read(), path) is not None
    walks = [sha256(walk_text(capsys, path).encode())
             for path in (seg, nested_copy(tmp_path, seg), crlf)]
    assert walks[0] == walks[1] == walks[2]
    phase = parse_automaton(seg).tau.form[1]
    assert len(set(map(cli._entry_text, phase.real.tolist(),
                       phase.imag.tolist()))) == 167


@pytest.mark.parametrize("states, bits, n", [(2, 1, 3), (2, 2, 4)])
def test_a_mirrored_segment_is_written_valid_and_walks_as_built(
        tmp_path, capsys, states, bits, n):
    cell, seg = str(tmp_path / "cell.json"), str(tmp_path / "seg.json")
    assert run_command(["cell", "--states", str(states), "--bits", str(bits),
                        "-o", cell]) == 0
    assert run_command(["chain", cell, "--n", str(n), "--mirror",
                        "-o", seg]) == 0
    assert run_command(["validate", seg]) == 0
    built = chain_cells(build_cell(states, bits), n, mirror=True)
    assert (sha256(walk_text(capsys, seg).encode())
            == sha256(json_lines(simulate(built, (0, 0), 1000)).encode()))
