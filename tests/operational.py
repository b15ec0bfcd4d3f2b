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

Only permutation cells, one nonzero entry per column, are walked: each
boundary input then follows one path, multiplying the phases on it.  The
step map is injective, so the path never repeats a configuration and
leaves within as many steps as there are configurations.
"""

import numpy as np


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
            forward = (iface >= s) != mirror
            nxt = at + 1 if forward else at - 1
            if not 0 <= nxt < n:
                break
            # forward into a left input, backward into a right one
            at, iface = nxt, iface % s + (0 if forward else s)
        else:
            raise AssertionError("the head never left the segment")
        row = np.ravel_multi_index(tape, (h,) * n) * k + iface
        seg[row, col] = amp
    return seg
