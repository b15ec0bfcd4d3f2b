"""Record references.json from the library as it stands.

    PYTHONPATH=src python3 perfbench/record_references.py

For both sizes (full and smoke) it stores:
- chain: the segment's (h, k, l), the segment as an index array (column j
  is basis vector perm[j]; recording fails unless the segment is exactly
  that permutation), and the masses of qta simulate;
- feedback: the probe fingerprint of each family's REFERENCE_SEED input;
- laws: the law names of the default suite, in report order.

Re-record only when a change is meant to alter these outputs, and say so.
"""

import json
import shutil

import numpy as np

import workloads as w


def chain_reference(qta, size, workdir):
    cell, segment = workdir / "cell.json", workdir / "segment.json"
    steps = [["cell", "--states", str(size["states"]), "--bits",
              str(size["bits"]), "-o", str(cell)],
             ["chain", str(cell), "--n", str(size["n"]), "-o", str(segment)]]
    for argv in steps:
        code, _, _ = w.run_cli(qta.cli, argv)
        if code != 0:
            raise SystemExit(f"qta {argv[0]} exited with code {code}")
    with open(segment) as fh:
        record = json.load(fh)
    mat = w.decode_complex(record["matrix"])
    perm = np.argmax(np.abs(mat), axis=0)
    expected = np.zeros(mat.shape)
    expected[perm, np.arange(perm.size)] = 1.0
    if sorted(perm) != list(range(perm.size)) or np.any(mat != expected):
        raise SystemExit("the chained segment is not exactly a permutation")
    code, out, _ = w.run_cli(qta.cli, ["simulate", str(segment),
                                       "--steps", str(size["steps"])])
    if code != 0:
        raise SystemExit(f"qta simulate exited with code {code}")
    masses = [json.loads(line)["masses"] for line in out.splitlines() if line]
    return {"hkl": [record["h"], record["k"], record["l"]],
            "perm": perm.tolist(), "masses": masses}


def feedback_reference(qta, size):
    u, side = size["u"], size["side"]
    probes = w.probe_vectors(side - u)
    prints = {}
    for family in w.FAMILIES:
        mat = w.feedback_matrix(family, size, w.REFERENCE_SEED)
        block = qta.trace.BlockMap(qta.linalg.Operator(mat), u, side - u, side - u)
        out = qta.trace.schur_feedback(block).mat
        prints[family] = w.encode_complex(w.fingerprint(out, probes))
    return {"fingerprints": prints}


def laws_reference(qta):
    cfg = qta.axioms.CheckConfig(instances=1)
    return {"laws": [r.law for r in qta.axioms.run_checks(cfg)]}


def main():
    qta = w.import_qta()
    workdir = w.HERE / "out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        refs = {mode: {"chain": chain_reference(qta, sizes["chain"], workdir),
                       "feedback": feedback_reference(qta, sizes["feedback"]),
                       "laws": laws_reference(qta)}
                for mode, sizes in w.SIZES.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(w.REFERENCES, "w") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {w.REFERENCES}")


if __name__ == "__main__":
    main()
