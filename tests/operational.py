"""A head walking an explicit tape: an operational oracle for chain segments.

numpy only.  It reads a segment off the wiring as qta.cli's docstring
states it, one step of the head at a time, with none of the Int
construction's algebra.

A cell is anything with h, k and tau.mat: a square transition over
H (x) (L (+) R), the symbol factor H outermost, so that a configuration
(symbol, side, state q) has index symbol * k + side * s + (q - 1), with
side 0 for L, 1 for R, s = k / 2 and q in 1..s.  A segment of n cells has
a tape of n symbols, cell 1's outermost, and the cell's interfaces.

Default wiring: the right output of cell i feeds the left input of cell
i + 1, and the left output of cell i + 1 feeds the right input of cell i.
Under mirror, left outputs feed forward (the left input of cell i + 1)
and right outputs backward (the right input of cell i - 1).  Either way
the head enters through a left input of cell 1 or a right input of cell
n, and an output with no neighbour to feed is the segment's output of
the same label.

run_segment walks permutation cells, one nonzero entry per column,
exactly: each boundary input follows one path, multiplying the phases on
it.  The step map is injective, so the path never repeats a configuration
and leaves within as many steps as there are configurations.

walk_segment walks any cell: one step of the head is a matrix over the
configurations (head position, tape, input interface), and the amplitude
of every boundary input is carried over them together, what leaves the
segment added up, until the amplitude left inside is below INSIDE_NORM in
norm or MAX_STEPS steps have run.  On an isometry the part of the loop
that never decays is orthogonal to the inputs (qta.trace's docstring), so
the inside amplitude decays at the loop's spectral radius; a walk that
runs out of steps says so, and is never a segment.
"""

from collections import namedtuple

import numpy as np

# a dense walk stops once the amplitude left inside is below INSIDE_NORM
# in norm, or after MAX_STEPS steps, not converged
INSIDE_NORM = 1e-16
MAX_STEPS = 20_000

# the walked segment, the steps taken and the norm of the amplitude left
# inside; converged when that is below INSIDE_NORM
Walk = namedtuple("Walk", "segment steps inside converged")


def _feed(at, iface, n, s, mirror):
    """Where output iface of the cell at position at goes: the (position,
    input iface) of the neighbour it feeds, or None past cell 1 or cell n."""
    forward = (iface >= s) != mirror
    nxt = at + 1 if forward else at - 1
    if not 0 <= nxt < n:
        return None
    # forward into a left input, backward into a right one
    return nxt, iface % s + (0 if forward else s)


def run_segment(cell, n, mirror=False):
    """The segment of n cells as a dense matrix, walked column by column."""
    h, k, mat = cell.h, cell.k, np.asarray(cell.tau.mat)
    if np.any(np.count_nonzero(mat, axis=0) != 1):
        raise ValueError("run_segment walks permutation cells only")
    s = k // 2
    target = np.argmax(mat != 0, axis=0)
    phase = mat[target, np.arange(h * k)]
    side = h ** n * k
    configs = n * side  # head position, tape and interface
    seg = np.zeros((side, side), dtype=complex)
    for col in range(side):
        tape = list(np.unravel_index(col // k, (h,) * n))
        iface = col % k
        at = 0 if iface < s else n - 1
        amp = 1
        for _ in range(configs):
            j = tape[at] * k + iface
            amp = phase[j] * amp
            tape[at], iface = divmod(int(target[j]), k)
            fed = _feed(at, iface, n, s, mirror)
            if fed is None:
                break
            at, iface = fed
        else:
            raise AssertionError("the head never left the segment")
        row = np.ravel_multi_index(tape, (h,) * n) * k + iface
        seg[row, col] = amp
    return seg


def step_maps(cell, n, mirror=False):
    """One step of the head on any cell, as matrices (a, b, entry).

    Configuration (position, tape, input iface) has index (position * h^n
    + tape) * k + iface, a tape index listing cell 1's symbol outermost;
    a segment interface has index tape * k + iface.  a takes configurations
    to the configurations they feed, b to the segment outputs they leave
    by, and entry takes each segment input to its configuration.
    """
    h, k, mat = cell.h, cell.k, np.asarray(cell.tau.mat)
    s, side = k // 2, h ** n * k
    a = np.zeros((n * side, n * side), dtype=complex)
    b = np.zeros((side, n * side), dtype=complex)
    entry = np.zeros((n * side, side))
    for at in range(n):
        stride = h ** (n - 1 - at)  # of the head's symbol in a tape index
        for col in range(side):
            tape, iface = divmod(col, k)
            symbol = tape // stride % h
            for j, amp in enumerate(mat[:, symbol * k + iface]):
                written, out = divmod(j, k)
                row = (tape + (written - symbol) * stride) * k
                fed = _feed(at, out, n, s, mirror)
                if fed is None:
                    b[row + out, at * side + col] = amp
                else:
                    a[fed[0] * side + row + fed[1], at * side + col] = amp
            if at == (0 if iface < s else n - 1):
                entry[at * side + col, col] = 1
    return a, b, entry


def walk_segment(cell, n, mirror=False):
    """The segment of n cells as a dense matrix, every input's amplitude
    walked over configurations together, as a Walk."""
    a, b, inside = step_maps(cell, n, mirror)
    seg = np.zeros((b.shape[0], b.shape[0]), dtype=complex)
    for steps in range(1, MAX_STEPS + 1):
        seg += b @ inside
        inside = a @ inside
        left = float(np.linalg.norm(inside))
        if left < INSIDE_NORM:
            break
    return Walk(seg, steps, left, left < INSIDE_NORM)
