"""Regenerate the shipped automaton files under data/.

Run from the repository root:  python3 scripts/make_examples.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qta.cli import build_cell, cell_labels, chain_cells, write_automaton
from qta.dqta import unit_automata
from qta.intcat import as_int0, name_of


def main(out_dir=os.path.join(os.path.dirname(__file__), "..", "data")):
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    swap = unit_automata(1, 1)[1]
    write_automaton(swap, path("swap.json"),
                    {"input": ("a", "b"), "output": ("a", "b")})
    print("swap.json: h=1 k=l=2 symmetry")

    small = build_cell(2, 1)
    labels = {"input": cell_labels(2), "output": cell_labels(2)}
    write_automaton(small, path("cell_2s1b.json"), labels)
    print("cell_2s1b.json: 2 states, 1 symbol qubit, pass-through rule")

    big = build_cell(2, 3)
    write_automaton(big, path("cell_2s3b.json"), labels)
    print("cell_2s3b.json: 2 states, 3 symbol qubits, pass-through rule")

    seg = chain_cells(small, 2)
    write_automaton(seg, path("segment_2s1b_n2.json"), labels)
    print("segment_2s1b_n2.json: two chained cells, h =", seg.h)

    named = name_of(as_int0(small, 2))
    write_automaton(named, path("cell_2s1b_bidir.json"), cell_labels(2))
    print("cell_2s1b_bidir.json: qta name of the small cell, rank", named.n)


if __name__ == "__main__":
    main()
