"""Command line front end.

Automaton files are JSON: {"kind": "dqta"|"qta", "h": .., "k": .., "l": ..,
"matrix": [[[re, im], ...], ...], "labels": ...} with the matrix row-major
over the H (x) interface basis (state factor outermost) and every entry a
two-element [re, im] pair of JSON numbers.  A qta record omits "l" and
stores its rank in "k".  Labels are optional: {"input": [...], "output":
[...]} for dqta, a single list for qta, validated against the interface
dims.  No algebra reads them, but chain and bidir's name route take their
(L,*)-then-(R,*) split from them, and compose, tensor, feedback, bidir
and chain carry them into their output.
The writer checks labels and transition with the loader's own code, so
every file qta writes can be read back, and refuses a transition whose
read-back (READ_BACK_BYTES_PER_ENTRY bytes per dense entry) exceeds
physical memory before building any text; cell, chain, compose, tensor
and bidir's functor route refuse it from the dims of their valid
arguments, before any algebra runs.

The writer gives a carried form's (see linalg) text in two pieces per
row, a slice of two zero rows from the last entry through ", " to the
row's entry and the entry, through a buffer of WRITE_BUFFER bytes.  It
writes a regular file in place, over any old one, and cuts it to length
before it writes the opening "{"; a device or pipe is a plain stream.
The loader reads the file's bytes and reads exactly that text, or a CRLF
copy of it, back in place as the form (_read_carried), with no decoding,
no dense matrix and one parse per distinct entry text.  Any other file is
decoded, as open(path).read() decodes it, parsed whole as nested lists
and checked entry by entry, which raises every loader error; both give
the bits that Operator gives the same matrix built in code.

The cell builder makes one tape cell: state space of alphabet_bits qubits,
input and output interfaces split as left summands "(L,i)" then right
summands "(R,i)" for i = 1..states.  The default rule is the pass-through
permutation (enter left, leave right, keep state and symbol).  A rule
table lists [[dir, state, symbol], [dir', state', symbol']] pairs; missing
configurations stay fixed, and the total map must be a bijection.

Chaining is composition in the Int construction: a segment is the n-fold
int_compose of the cell, a morphism from its left boundary to its right
one, which wires the right output of cell i to the left input of cell i+1
and the left output of cell i+1 back to the right input of cell i.
--mirror flips which neighbour a left-moving output feeds: left outputs
then wire forward and right outputs backward, so labels track direction
of motion instead of the boundary being crossed.  Default, rule-table and
monomial matrix-rule cells carry their form, so a segment is built by
index arithmetic and path following, with no dense matrix.

Exit codes: 0 success or all laws pass, 1 validation or law failure or
running out of memory, 2 usage errors.  One argument parser per process
serves every run_command; parsing does not change it.
"""

import argparse
import functools
import io
import json
import math
import numbers
import os
import stat
import sys
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .axioms import (
    LAW_GROUPS,
    CheckConfig,
    run_checks,
    serialize_reports,
    suite_passed,
)
from .dqta import (
    Dqta,
    UnitaryDqta,
    as_unitary,
    cascade,
    feedback_dqta,
    make_unitary_dqta,
    turing_tensor,
)
from .intcat import (Int0Morphism, Qta, as_int0, bidirectionalize,
                     int_compose, name_of)
from . import linalg
from .linalg import (
    Operator,
    adjoint,
    check_defect,
    identity,
    isometry_defect,
    kron,
    monomial,
    sum_swap,
    unitary_defect,
)

DIRECTIONS = ("L", "R")


@dataclass(frozen=True)
class AutomatonFile:
    """One parsed record; labels kept verbatim (None when absent)."""
    kind: str
    h: int
    k: int
    l: int
    tau: Operator
    labels: object


@dataclass(frozen=True)
class SimulationTrace:
    steps: int
    masses: tuple
    total_norm: tuple


# ------------------------------------------------------------------ file I/O

def _entries_to_matrix(rows, shape, path):
    expected_rows, expected_cols = shape
    if not isinstance(rows, list) or len(rows) != expected_rows:
        raise ValueError(
            f"{path}: field 'matrix' must have {expected_rows} rows, "
            f"got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != expected_cols:
            raise ValueError(
                f"{path}: matrix row {i} must have {expected_cols} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or type(entry[0]) not in (int, float)
                    or type(entry[1]) not in (int, float)):
                raise ValueError(
                    f"{path}: matrix entry ({i},{j}) must be a [re, im] pair")
    try:
        arr = np.array(rows, dtype=float).reshape(expected_rows, expected_cols, 2)
    except OverflowError as exc:
        raise ValueError(f"{path}: matrix entry too large for a float") from exc
    return arr[..., 0] + 1j * arr[..., 1]


_ZERO_ENTRY = b"[0.0, 0.0]"
# entry j of a row starts _STRIDE * j bytes after the row's first entry
_STRIDE = len(_ZERO_ENTRY) + len(", ")


def _zero_rows(cols):
    """Two zero rows of cols entries joined by ", ", and one's length."""
    zero = b"[" + b", ".join([_ZERO_ENTRY] * cols) + b"]"
    return memoryview(zero + b", " + zero), len(zero)


def _entry_text(re_, im):
    """The text of the entry [re_, im] of two floats, as json writes it."""
    return f"[{re_!r}, {im!r}]".encode()


def _head_text(kind, h, k, l):
    """The text of an automaton file up to its matrix; a qta stores no l."""
    record = {"kind": kind, "h": h, "k": k, **({} if kind == "qta" else {"l": l})}
    return json.dumps(record)[:-1].encode() + b', "matrix": '


def _tail_text(labels):
    """The text of an automaton file after its matrix."""
    return (b"}\n" if labels is None
            else f', "labels": {json.dumps(labels)}}}\n'.encode())


def _matrix_text(op):
    """json.dumps of op's [[[re, im], ...], ...] entries, in pieces."""
    if op.form is None:
        return [json.dumps(
            np.stack([op.mat.real, op.mat.imag], axis=-1).tolist()).encode()]
    return _carried_text(op)


def _carried_text(op):
    """A carried form's text in pieces; a row with no entry is one slice."""
    target, phase = op.form
    source = np.full(op.rows, -1)
    source[target] = np.arange(op.cols)
    double, n = _zero_rows(op.cols)
    entries = list(map(_entry_text, phase.real.tolist(), phase.imag.tolist()))
    pieces, at = [b"["], n + 2  # the next slice's start: row 0 has no ", "
    for j in source.tolist():
        if j < 0:
            pieces.append(double[at:2 * n + 2])
            at = n
        else:
            cut = 1 + _STRIDE * j
            pieces += (double[at:n + 2 + cut], entries[j])
            at = cut + len(_ZERO_ENTRY)
    pieces += (double[at:n], b"]")
    return pieces


def _require_int(record, field, path):
    value = record.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{path}: field '{field}' must be a nonnegative integer")
    return value


def _check_label_list(values, n, where, path):
    # a tuple is what the writer is handed; json reads it back as a list
    if (not isinstance(values, (list, tuple)) or len(values) != n
            or not all(isinstance(s, str) for s in values)):
        raise ValueError(
            f"{path}: {where} labels must be a list of {n} strings")
    return tuple(values)


def _check_header(record, path):
    """(kind, h, k, l) of a parsed record."""
    if not isinstance(record, dict):
        raise ValueError(f"{path}: top level must be an object")
    kind = record.get("kind")
    if kind not in ("dqta", "qta"):
        raise ValueError(f"{path}: field 'kind' must be 'dqta' or 'qta'")
    h = _require_int(record, "h", path)
    k = _require_int(record, "k", path)
    if h < 1:
        raise ValueError(f"{path}: field 'h' must be positive")
    if kind == "qta" and "l" in record:
        raise ValueError(f"{path}: qta records store their rank in 'k'; "
                         "field 'l' is not allowed")
    return kind, h, k, _require_int(record, "l", path) if kind == "dqta" else k


def _check_labels(record, kind, k, l, path):
    labels = record.get("labels")
    if labels is None:
        return None
    if kind == "qta":
        return _check_label_list(labels, k, "interface", path)
    if not isinstance(labels, dict) or set(labels) != {"input", "output"}:
        raise ValueError(f"{path}: dqta labels must be an object with "
                         "'input' and 'output' lists")
    return {"input": _check_label_list(labels["input"], k, "input", path),
            "output": _check_label_list(labels["output"], l, "output", path)}


def _read_carried(data, path):
    """The record, its transition a carried form, when the bytes data are
    exactly what write_automaton writes for one; None for any others.

    Each row is the zero row or has entry j replaced (_entry_text) by a
    nonzero finite [re, im] in floats' reprs, j distinct.  One numpy scan
    per row finds its first byte that differs from the zero row, which lies
    in entry j, within its first 10 bytes; a row with none is the zero row
    if its ", " follows.  Each distinct entry text is parsed and checked
    once; the rest of the row is checked in place as one slice of the
    writer's zero rows.  Phases are built as _entries_to_matrix builds
    entries, so the form is Operator's on json's matrix, bit for bit.
    Nothing sized by the header is built before the file is long enough
    for that many entries.  The text's one raw newline is its last byte
    (json escapes the others), so a CRLF or CR copy, which text mode reads
    as the writer's text, differs only there and is read too."""
    try:
        # the writer's header is far shorter than 200 bytes
        record = json.loads(data[:data.index(b', "matrix": ', 0, 200)] + b"}")
        kind, h, k, l = _check_header(record, path)
    except ValueError:
        return None
    head = _head_text(kind, h, k, l) + b"["
    rows, cols = h * l, h * k
    if (not rows or not cols or not data.startswith(head)
            or len(data) - len(head) < rows * (_STRIDE * cols + 2)):
        return None
    p = len(head)
    double, n = _zero_rows(cols)
    view, zeros = np.frombuffer(data, np.uint8), np.frombuffer(double[:n], np.uint8)
    target, pairs, parsed = [None] * cols, [None] * cols, {}  # text: (re, im)
    for i in range(rows):
        end = n + 2 if i + 1 < rows else n  # with ", ", but not the last "]"
        try:  # data that end at a row's start leave no span, no argmax
            differ = view[p:p + n] != zeros[:len(data) - p]
            j = int(differ.argmax())
            if not differ[j]:  # the zero row, or a row cut short
                if not data.startswith(double[n:end], p + n):
                    return None
                p += end
                continue
            j = (j - 1) // _STRIDE
            if j < 0 or target[j] is not None:
                return None
            entry = p + 1 + _STRIDE * j
            text = data[entry:data.find(b"]", entry) + 1]
            if text not in parsed:
                re_, im = map(float, text[1:-1].split(b", "))
                if (re_ == im == 0 or not (math.isfinite(re_) and math.isfinite(im))
                        or _entry_text(re_, im) != text):
                    return None
                parsed[text] = re_, im
        except ValueError:
            return None
        if not data.startswith(double[entry - p + len(_ZERO_ENTRY):end],
                               entry + len(text)):
            return None
        target[j], pairs[j] = i, parsed[text]
        p += end + len(text) - len(_ZERO_ENTRY)
    tail = data[p:]  # from the matrix's "]"
    try:
        rest = json.loads(b"{" + tail[1:].removeprefix(b", "))
        labels = _check_labels(rest, kind, k, l, path)
    except (ValueError, RecursionError):
        return None
    text = b"]" + _tail_text(labels)
    if None in target or tail not in (text, text[:-1] + b"\r\n",
                                      text[:-1] + b"\r"):
        return None
    res, ims = map(np.array, zip(*pairs))
    return AutomatonFile(kind, h, k, l, monomial(rows, target, res + 1j * ims),
                         labels)


def _parse_json(text, path):
    """json.loads(text), its failures as a ValueError naming path."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _operator(build, matrix, path):
    """build(matrix), its ValueError naming path."""
    try:
        return build(matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_nested(text, path):
    """The record of any file: parsed whole as nested lists, checked entry
    by entry, its transition carrying the form Operator finds."""
    record = _parse_json(text, path)
    kind, h, k, l = _check_header(record, path)
    if "matrix" not in record:
        raise ValueError(f"{path}: missing field 'matrix'")
    # popped, so that the lists are freed before Operator copies the array
    matrix = _entries_to_matrix(record.pop("matrix"), (h * l, h * k), path)
    labels = _check_labels(record, kind, k, l, path)
    return AutomatonFile(kind, h, k, l, _operator(Operator, matrix, path), labels)


def load_record(path) -> AutomatonFile:
    """Read and structurally validate one automaton file.

    The bytes that write_automaton wrote for a carried form are read by
    _read_carried; every other file, including every malformed one, is
    decoded as open(path).read() decodes it and parsed whole as nested
    lists, which raises the errors."""
    with open(path, "rb") as fh:
        data = fh.read()
    if record := _read_carried(data, path):
        return record
    text = io.TextIOWrapper(io.BytesIO(data)).read()
    del data  # before json parses the text
    return _load_nested(text, path)


def _checked_value(record: AutomatonFile):
    """(value, defect) of a loaded record, checked as its constructor
    checks it: a qta's unitary or a dqta's isometry defect, with a unitary
    dqta as a UnitaryDqta.  No gram product is computed twice."""
    tau = record.tau
    if record.kind == "qta":
        defect = check_defect(unitary_defect(tau), "transition must be unitary")
        return Qta(record.h, record.k, tau), defect
    defect = check_defect(isometry_defect(tau), "transition must be an isometry")
    if (record.k == record.l
            and isometry_defect(adjoint(tau)) <= linalg.ISOMETRY_TOL):
        return UnitaryDqta(record.h, record.k, record.l, tau), defect
    return Dqta(record.h, record.k, record.l, tau), defect


def parse_automaton(path):
    """Dqta or Qta from a file; unitary square transitions come back as
    UnitaryDqta."""
    return _checked_value(load_record(path))[0]


def _read_dqta(command, *paths):
    """(record, value) of each dqta file, checked as parse_automaton checks
    it; every file is read and kind-checked before any transition is."""
    records = [load_record(path) for path in paths]
    for record, path in zip(records, paths):
        if record.kind != "dqta":
            raise ValueError(f"{path}: {command} works on dqta records")
    return [(r, _checked_value(r)[0]) for r in records]


# Peak bytes per dense entry of reading a file back, 238.7 (writing: 220.8)
# by tracemalloc on dense Haar files of side 256 and 512, with 25% to spare.
READ_BACK_BYTES_PER_ENTRY = 300

# write_automaton's buffer: on 2 cores, rewriting the side-1024 segment's
# 12.6 MB in place took 5.3-16.1 / 3.7-6.1 / 3.6-5.3 / 3.8-6.0 / 4.2-6.6 ms
# (medians of 30-40, six runs) in 2048 / 205 / 49 / 13 / 4 writes at 8 KiB
# (the default) / 64 KiB / 256 KiB / 1 MiB / 4 MiB, with no copy of the
# whole text.  256 KiB and 1 MiB are level; 1 MiB makes the fewest writes.
WRITE_BUFFER = 2 ** 20


# Peak bytes per trace entry (n masses and a total per step) of qta simulate,
# by tracemalloc: 80.6 / 69.7 / 61.0 at n = 1 / 2 / 4, with 25% to spare.
TRACE_BYTES_PER_ENTRY = 102


def _refuse(need, what, where):
    """ValueError "where: refusing what needs ..." when what needs more than
    physical memory: need bytes, None when past any memory."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need is None or need > memory:  # Decimal: need can be past a float
        amount = "more than physical memory" if need is None else (
            f"{Decimal(need) / 2 ** 30:.1f} GiB, more than the "
            f"{memory / 2 ** 30:.1f} GiB of physical memory")
        raise ValueError(f"{where}: refusing {what} needs {amount}")


def _refuse_oversized(rows, cols, path):
    """ValueError when reading back a dense rows x cols transition would
    take more than physical memory, at READ_BACK_BYTES_PER_ENTRY."""
    _refuse(READ_BACK_BYTES_PER_ENTRY * rows * cols,
            f"to write a {rows}x{cols} transition: reading it back", path)


def _refuse_oversized_side(factor, base, exp, path):
    """_refuse_oversized for the square side factor * base ** exp; a side
    past the int-to-str limit, so past any memory, is named, never built."""
    limit = sys.get_int_max_str_digits() or math.inf
    if exp * math.log10(base) <= limit and (side := factor * base ** exp) < 10 ** limit:
        need = READ_BACK_BYTES_PER_ENTRY * side * side
    else:
        side, need = f"({factor}*{base}**{exp})", None
    _refuse(need, f"to write a {side}x{side} transition: reading it back", path)


def write_automaton(value, path, labels=None):
    """Write one automaton file after the loader's own label and transition
    checks, so that every file written can be read back; a transition whose
    dense array exceeds physical memory is refused before any text."""
    if not isinstance(value, Dqta):
        raise ValueError(f"cannot serialize {type(value).__name__}")
    if isinstance(value, Qta):
        kind, defect = "qta", unitary_defect(value.tau)
    else:
        kind, defect = "dqta", isometry_defect(value.tau)
    labels = _check_labels({"labels": labels}, kind, value.k, value.l, path)
    check_defect(defect, f"{path}: refusing to write a transition the "
                 "loader would reject")
    _refuse_oversized(value.tau.rows, value.tau.cols, path)
    # the matrix's text is built before the file is opened.  A regular
    # file is written over in place and then cut to length: truncating it
    # first took longer than writing.  Its "{" goes in last, so that an
    # unfinished rewrite, new text before an old tail, never loads.
    matrix = _matrix_text(value.tau)
    head = _head_text(kind, value.h, value.k, value.l)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb", buffering=WRITE_BUFFER) as fh:
        in_place = stat.S_ISREG(os.fstat(fd).st_mode)
        fh.write(b"\0" + head[1:] if in_place else head)
        fh.writelines(matrix)
        fh.write(_tail_text(labels))
        if in_place:
            fh.truncate()
            os.pwrite(fd, b"{", 0)


# ------------------------------------------------------------- cell builders

def cell_labels(states):
    return tuple(f"({d},{i})" for d in DIRECTIONS
                 for i in range(1, states + 1))


def _config_index(states, h, entry, what):
    if (not isinstance(entry, (list, tuple)) or len(entry) != 3):
        raise ValueError(f"rule {what} {entry!r} must be [dir, state, symbol]")
    direction, state, symbol = entry
    if direction not in DIRECTIONS:
        raise ValueError(f"rule {what} direction must be 'L' or 'R', "
                         f"got {direction!r}")
    if type(state) is not int or not 1 <= state <= states:
        raise ValueError(f"rule {what} state must be in 1..{states}, "
                         f"got {state!r}")
    if type(symbol) is not int or not 0 <= symbol < h:
        raise ValueError(f"rule {what} symbol must be in 0..{h - 1}, "
                         f"got {symbol!r}")
    iface = DIRECTIONS.index(direction) * states + (state - 1)
    return symbol * (2 * states) + iface


def _rule_permutation(states, h, pairs):
    n = h * 2 * states
    mapping = {}
    targets = set()
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"rule entry {pair!r} must be a [source, target] pair")
        src = _config_index(states, h, pair[0], "source")
        dst = _config_index(states, h, pair[1], "target")
        if src in mapping:
            raise ValueError(f"rule lists source {pair[0]!r} twice")
        if dst in targets:
            raise ValueError(f"rule lists target {pair[1]!r} twice")
        mapping[src] = dst
        targets.add(dst)
    if targets != set(mapping):
        raise ValueError("rule table is not a bijection: listed sources and "
                         "targets must cover the same configurations")
    return monomial(n, [mapping.get(src, src) for src in range(n)])


def build_cell(states, alphabet_bits, rule=None) -> UnitaryDqta:
    """One tape cell; see the module docstring for layout and rules."""
    if states < 1:
        raise ValueError(f"states must be positive, got {states}")
    if alphabet_bits < 0:
        raise ValueError(f"alphabet_bits must be nonnegative, got {alphabet_bits}")
    h = 2 ** alphabet_bits
    width = 2 * states
    if rule is None:
        tau = kron(identity(h), sum_swap(states, states))
    elif isinstance(rule, Operator):
        tau = rule
    else:
        tau = _rule_permutation(states, h, rule)
    return make_unitary_dqta(h, width, tau)


def chain_cells(cell, n, mirror=False) -> UnitaryDqta:
    """Tape segment of n copies of cell, wired as in the module docstring.

    The cell is an Int morphism from its left boundary to its right one:
    as_int0 reads its outputs [right, left] as [forward, return], which
    under mirror its outputs [left, right] already are.  The cell is
    trusted or checked by dqta.as_unitary.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if cell.k != cell.l or cell.k % 2 or cell.k == 0:
        raise ValueError("cell interfaces must split into left and right "
                         f"halves, got k={cell.k}, l={cell.l}")
    s = cell.k // 2
    cell = as_unitary(cell)
    step = Int0Morphism(cell.h, s, s, cell.tau) if mirror else as_int0(cell, s)
    seg = functools.reduce(int_compose, [step] * n)
    # back in the cell's layout by its name (outputs [left, right]), as a
    # plain automaton: read as a morphism, int_compose would wire it wrong
    seg = seg if mirror else name_of(seg)
    return UnitaryDqta(seg.h, seg.k, seg.l, seg.tau)


# -------------------------------------------------------------- simulation

def _refuse_trace(steps, n, where):
    """_refuse for a trace of steps steps over n interfaces."""
    _refuse(TRACE_BYTES_PER_ENTRY * (steps + 1) * (n + 1),
            f"to simulate {steps} steps over {n} interfaces: holding the trace",
            where)


def _walk(form, at, amp, masses):
    """Write the masses of basis vector at times amp under the square carried
    form (target, phase), step by step.  Products are array multiplies on
    one-element rows of column views, as in phase * v, so they round alike
    bit for bit (a scalar multiply may skip the fused multiply-add), and no
    slice is built per step nor anything sized by the side."""
    target, phase = form[0], form[1].reshape(-1, 1)
    steps, n = masses.shape[0] - 1, masses.shape[1]
    path = np.empty(steps + 1, dtype=np.intp)
    amps = np.empty((steps + 1, 1), dtype=complex)
    path[0], amps[0], prev = at, amp, amps[0]
    for s, nxt in enumerate(amps[1:], 1):
        np.multiply(phase[at], prev, out=nxt)
        at = path[s] = target[at]
        prev = nxt
    masses[np.arange(steps + 1), path % n] = np.abs(amps[:, 0]) ** 2


def simulate(q, initial, steps) -> SimulationTrace:
    """Repeated application of the transition, recording per-summand masses.

    initial is either a full state vector of length h*n or a pair
    (interface index, state-factor basis index).  On a carried form a start
    with one nonzero entry stays a basis vector times a phase, whose path
    is followed: O(1) work per step, and a pair start builds no state
    vector; any other start costs O(h*n) per step.  A trace past physical
    memory is refused before the first step.
    """
    if not isinstance(q, Dqta):
        raise ValueError(f"cannot simulate {type(q).__name__}")
    if q.k != q.l:
        raise ValueError("simulation needs a square transition, "
                         f"got k={q.k}, l={q.l}")
    h, n, tau = q.h, q.k, q.tau
    if n == 0:
        raise ValueError("automaton has no interface to carry the control")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    _refuse_trace(steps, n, "simulate")
    if isinstance(initial, tuple) and len(initial) == 2 \
            and all(isinstance(x, numbers.Integral) for x in initial):
        iface, basis = initial
        if not 0 <= iface < n:
            raise ValueError(f"interface index {iface} out of range 0..{n - 1}")
        if not 0 <= basis < h:
            raise ValueError(f"basis index {basis} out of range 0..{h - 1}")
        at, v = basis * n + iface, None
    else:
        v = np.asarray(initial, dtype=complex).reshape(-1)
        if v.shape[0] != h * n:
            raise ValueError(f"initial state must have length {h * n}, "
                             f"got {v.shape[0]}")
        norm = float(np.linalg.norm(v))
        check_defect(abs(norm - 1.0), f"initial state norm {norm:.12g} is not 1")
        support = np.flatnonzero(v)
        at = support[0] if len(support) == 1 else None
    masses = np.zeros((steps + 1, n))
    if tau.form is not None and at is not None:
        _walk(tau.form, at, 1.0 if v is None else v[at], masses)
    else:
        v = np.eye(1, h * n, at, dtype=complex)[0] if v is None else v
        for step in range(steps + 1):
            if step > 0 and tau.form is None:
                v = tau.mat @ v
            elif step > 0:  # a square carried form: scatter v[target] = phase v
                w = np.empty_like(v)
                w[tau.form[0]] = tau.form[1] * v
                v = w
            masses[step] = (np.abs(v.reshape(h, n)) ** 2).sum(axis=0)
    return SimulationTrace(steps, tuple(map(tuple, masses.tolist())),
                           tuple(masses.sum(axis=1).tolist()))


# ------------------------------------------------------------------ commands

def _write(value, path, labels):
    """Write value to path and say so; the command's exit code."""
    write_automaton(value, path, labels)
    print(f"wrote {path}: dqta h={value.h} k={value.k} l={value.l}")
    return 0


def _cmd_validate(args):
    value, defect = _checked_value(load_record(args.file))
    if isinstance(value, Qta):
        print(f"{args.file}: qta h={value.h} k={value.n} "
              f"unitary defect {defect:.3g}")
    else:
        print(f"{args.file}: dqta h={value.h} k={value.k} l={value.l} "
              f"isometry defect {defect:.3g}")
    return 0


def _cmd_compose(args):
    (first, a), (second, b) = _read_dqta("compose", args.first, args.second)
    if a.l == b.k:
        _refuse_oversized(a.h * b.h * b.l, a.h * b.h * a.k, args.output)
    out = cascade(a, b)
    labels = ({"input": first.labels["input"],
               "output": second.labels["output"]}
              if first.labels and second.labels else None)
    return _write(out, args.output, labels)


def _cmd_tensor(args):
    (first, a), (second, b) = _read_dqta("tensor", args.first, args.second)
    _refuse_oversized(a.h * b.h * (a.l + b.l), a.h * b.h * (a.k + b.k), args.output)
    out = turing_tensor(a, b)
    labels = ({"input": first.labels["input"] + second.labels["input"],
               "output": first.labels["output"] + second.labels["output"]}
              if first.labels and second.labels else None)
    return _write(out, args.output, labels)


def _cmd_feedback(args):
    [(record, value)] = _read_dqta("feedback", args.file)
    out = feedback_dqta(value, args.u)
    labels = ({"input": record.labels["input"][args.u:],
               "output": record.labels["output"][args.u:]}
              if record.labels else None)
    return _write(out, args.output, labels)


def _lr_split(record):
    """Size of the leading left block when labels split as (L,*) then (R,*);
    None otherwise."""
    if not record.labels:
        return None
    ins, outs = record.labels["input"], record.labels["output"]
    if ins != outs or not ins:
        return None
    src = sum(1 for s in ins if s.startswith("(L,"))
    if 0 < src < len(ins) and all(s.startswith("(L,") for s in ins[:src]) \
            and all(s.startswith("(R,") for s in ins[src:]):
        return src
    return None


def _cmd_bidir(args):
    [(record, value)] = _read_dqta("bidir", args.file)
    src = _lr_split(record)
    route = args.route
    if route == "auto":
        route = "name" if (src is not None
                           and isinstance(value, UnitaryDqta)) else "functor"
    if route == "name":
        if src is None:
            raise ValueError(f"{args.file}: the name route needs matching "
                             "(L,*)/(R,*) interface labels")
        if not isinstance(value, UnitaryDqta):
            raise ValueError(f"{args.file}: the name route needs a unitary "
                             "square transition")
        out = Qta(value.h, value.k, value.tau)
        labels = record.labels["input"] if record.labels else None
    else:
        if isinstance(value, UnitaryDqta):  # else bidirectionalize refuses it
            _refuse_oversized_side(value.k + value.l, value.h, 2, args.output)
        out = bidirectionalize(value)
        labels = (record.labels["input"] + record.labels["output"]
                  if record.labels else None)
    write_automaton(out, args.output, labels)
    print(f"wrote {args.output}: qta h={out.h} k={out.n} via {route} route")
    return 0


def _load_rule(path):
    with open(path) as fh:
        rule = _parse_json(fh.read(), path)
    if isinstance(rule, list):
        return rule
    if isinstance(rule, dict) and "matrix" in rule:
        rows = rule["matrix"]
        if not isinstance(rows, list) or not rows:
            raise ValueError(f"{path}: rule matrix must be a nonempty list")
        return _operator(Operator, _entries_to_matrix(rows, (len(rows),) * 2,
                                                      path), path)
    raise ValueError(f"{path}: rule must be a list of pairs or an object "
                     "with a 'matrix' field")


def _cmd_cell(args):
    valid = args.states > 0 and args.bits >= 0
    if valid:
        # refused from the arguments, before the cell's index map is built
        _refuse_oversized_side(2 * args.states, 2, args.bits, args.output)
    rule = _load_rule(args.rule) if args.rule else None
    build = functools.partial(build_cell, args.states, args.bits)
    # with valid arguments, a matrix rule that does not fit is the file's fault
    by_file = valid and isinstance(rule, Operator)
    cell = _operator(build, rule, args.rule) if by_file else build(rule)
    names = cell_labels(args.states)
    return _write(cell, args.output, {"input": names, "output": names})


def _cmd_chain(args):
    [(record, value)] = _read_dqta("chain", args.file)
    src = _lr_split(record)
    if src is None or 2 * src != record.k:
        raise ValueError(f"{args.file}: chain needs interfaces labeled as "
                         "matching (L,*) and (R,*) halves")
    if args.n >= 1:
        _refuse_oversized_side(value.k, value.h, args.n, args.output)
    out = chain_cells(value, args.n, mirror=args.mirror)
    return _write(out, args.output, record.labels)


def _cmd_simulate(args):
    value = parse_automaton(args.file)
    _refuse_trace(args.steps, value.k, args.file)
    trace = simulate(value, (args.start, 0), args.steps)
    # json.dumps of each step's record, made as it is written, so that no
    # text is held beside the trace: masses are finite floats, whose json is
    # their repr, as the transition is gated unitary and its entries finite
    line = ('{"step": %d, "masses": [' + ", ".join(["%r"] * value.k)
            + '], "total_norm": %r}\n')
    sys.stdout.writelines(line % (step, *masses, total) for step, (
        masses, total) in enumerate(zip(trace.masses, trace.total_norm)))
    return 0


def _cmd_axioms(args):
    cfg = CheckConfig(seed=args.seed, instances=args.instances,
                      max_dim=args.max_dim, tolerance=args.tol,
                      law_set=tuple(args.laws) if args.laws else LAW_GROUPS)
    reports = run_checks(cfg)
    sys.stdout.write(serialize_reports(reports))
    return 0 if suite_passed(reports) else 1


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qta",
        description="quantum Turing automata: compose, close loops, "
                    "bidirectionalize, simulate, and check laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check one automaton file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compose", help="cascade two automata")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("tensor", help="run two automata side by side")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("feedback", help="feed leading output summands back")
    p.add_argument("file")
    p.add_argument("--u", type=int, required=True,
                   help="number of leading summands to close")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_feedback)

    p = sub.add_parser("bidir", help="bidirectionalize into a qta record")
    p.add_argument("file")
    p.add_argument("--route", choices=("auto", "name", "functor"),
                   default="auto")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_bidir)

    p = sub.add_parser("cell", help="build one tape cell")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--rule", help="JSON rule table or {'matrix': ...} file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("chain", help="wire n copies of a cell into a segment")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mirror", action="store_true",
                   help="flip which neighbour a left-moving output feeds")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("simulate", help="run the control particle")
    p.add_argument("file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--start", type=int, default=0,
                   help="interface summand the control starts on")
    p.set_defaults(func=_cmd_simulate)

    defaults = CheckConfig()
    p = sub.add_parser("axioms", help="run the law suite")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--instances", type=int, default=defaults.instances)
    p.add_argument("--max-dim", type=int, default=defaults.max_dim)
    p.add_argument("--tol", type=float, default=defaults.tolerance)
    p.add_argument("--laws", nargs="+", choices=LAW_GROUPS,
                   help="law groups to run (default: all)")
    p.set_defaults(func=_cmd_axioms)

    return parser


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
