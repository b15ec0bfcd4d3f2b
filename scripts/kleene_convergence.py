"""Convergence study for the partial-sum feedback.

Plants loop blocks with controlled spectra via the standard unitary
completion [[A, (I-AA*)^1/2], [(I-A*A)^1/2, -A*]] of a contraction A and
runs kleene_feedback against the closed form.  Families:

  contraction   A = r Q for a Haar unitary Q, radius exactly r
  peripheral    A = diag(phases) (+) 0.7 Q, unit-modulus eigenvalues != 1
  kernel        A = 1 (+) 0.7 Q, eigenvalue exactly 1

For an isometry, a unit-modulus eigenvalue of the loop block decouples
from the coupling blocks exactly (Bv = 0 and v*C = 0), so the partial
sums see only the strictly contractive part and converge geometrically;
the peripheral and kernel families make that visible.  Each instance
prints one row; the gap column reports the distance to the closed form.
The exit code is 1 when a row did not converge or its gap exceeds the law
suite's tolerance, CheckConfig().tolerance.
"""

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qta.axioms import CheckConfig  # noqa: E402
from qta.linalg import Operator, op_distance, random_isometry  # noqa: E402
from qta.trace import BlockMap, kleene_feedback, schur_feedback  # noqa: E402

RADII = (0.3, 0.7, 0.9, 0.99, 0.999)


def psd_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def completion(a):
    """Unitary with the prescribed contraction as its loop block."""
    u = a.shape[0]
    left = psd_sqrt(np.eye(u) - a @ a.conj().T)
    right = psd_sqrt(np.eye(u) - a.conj().T @ a)
    return np.block([[a, left], [right, -a.conj().T]])


def haar_unitary(n, rng):
    return random_isometry(n, n, int(rng.integers(2 ** 63))).mat


def instances(family, count, rng):
    for _ in range(count):
        if family == "contraction":
            for r in RADII:
                yield f"radius {r}", r * haar_unitary(3, rng)
        elif family == "peripheral":
            phases = np.exp(2j * np.pi * rng.uniform(0.05, 0.95, size=2))
            yield "|eig| = 1, arg != 0", np.block([
                [np.diag(phases), np.zeros((2, 3))],
                [np.zeros((3, 2)), 0.7 * haar_unitary(3, rng)]])
        else:
            yield "eig = 1 exactly", np.block([
                [np.eye(1), np.zeros((1, 3))],
                [np.zeros((3, 1)), 0.7 * haar_unitary(3, rng)]])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-family", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=50_000)
    parser.add_argument("--jsonl", help="write one record per run here")
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    rows = []
    for family in ("contraction", "peripheral", "kernel"):
        for spectrum, a in instances(family, args.per_family, rng):
            u = a.shape[0]
            bm = BlockMap(Operator(completion(a)), u, u, u)
            closed = schur_feedback(bm)
            out, rep = kleene_feedback(bm, max_n=args.max_n)
            rows.append({
                "family": family, "spectrum": spectrum,
                "steps": rep.steps, "residual": rep.residual,
                "converged": rep.converged,
                "gap": op_distance(out, closed)})

    header = f"{'family':<12} {'spectrum':<20} " \
             f"{'steps':>7} {'residual':>10} {'conv':>5} {'gap':>10}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['family']:<12} {row['spectrum']:<20} "
              f"{row['steps']:>7} {row['residual']:>10.2e} "
              f"{str(row['converged']):>5} {row['gap']:>10.2e}")

    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        print(f"wrote {len(rows)} records to {args.jsonl}", file=sys.stderr)
    tolerance = CheckConfig().tolerance
    return int(not all(row["converged"] and row["gap"] <= tolerance
                       for row in rows))


if __name__ == "__main__":
    sys.exit(main())
