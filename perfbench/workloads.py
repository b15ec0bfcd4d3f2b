"""One benchmark workload in a fresh process; run.py starts it.

    python3 perfbench/workloads.py --workload chain --seed 1 --seconds 26 \\
        --trace 0 --spawned-at T --result out.json [--setup-only] [--smoke]

The process imports qta from the checkout's src/, generates its inputs
(set-up), then repeats the workload's timed unit until --seconds have
passed.  With --trace 1 it then installs the tracer and runs one more unit
traced.  Every output is checked against
references.json or an independent computation; a miss, an exception or a
nonzero exit code counts as one failed operation, whose time is still
recorded.  The result goes to --result as JSON.

Set-up time runs from --spawned-at (the parent's time.monotonic() just
before it started this process; CLOCK_MONOTONIC is system-wide on Linux) to
the first timed call.
"""

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

SIZES = {
    "full": {
        "chain": {"states": 2, "bits": 2, "n": 4, "steps": 1000},
        "feedback": {"side": 1024, "u": 512, "fixed": 8},
        "laws": {"instances": 200},
    },
    "smoke": {
        "chain": {"states": 1, "bits": 1, "n": 2, "steps": 10},
        "feedback": {"side": 32, "u": 16, "fixed": 2},
        "laws": {"instances": 2},
    },
}

# every output must match its reference this closely (max-abs difference)
TOL = 1e-12

# feedback inputs drawn from this seed have recorded output fingerprints
REFERENCE_SEED = 14040074
FAMILIES = ("generic", "singular")
PROBES = 4

# law groups timed as secondary_s on the laws workload
INT_GROUPS = ("int0-laws", "functor-F", "conway-counterexample")

# simulate is short and noisy, so each chain unit times it more than once
SIMULATE_REPEATS = 2

MAX_ERRORS = 20


def import_qta():
    """Import qta from this checkout's src/ and nowhere else."""
    import qta
    import qta.axioms
    import qta.cli
    import qta.linalg
    import qta.trace
    src = (ROOT / "src").resolve()
    if Path(qta.__file__).resolve().parent.parent != src:
        raise SystemExit(f"qta was imported from {qta.__file__}, not from {src}")
    return qta


class Outcome:
    """Attempted and failed operations, and the worst deviation seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst_deviation = 0.0
        self.errors = []

    def record(self, what, ok, deviation=0.0, detail=""):
        self.attempted += 1
        if not math.isfinite(deviation):
            ok = False
        else:
            self.worst_deviation = max(self.worst_deviation, deviation)
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{what}: {detail}")

    def crashed(self, what):
        """Record the exception being handled as one failed operation."""
        exc = sys.exc_info()[1]
        where = traceback.extract_tb(exc.__traceback__)[-1]
        self.record(what, False, detail=f"{type(exc).__name__}: {exc} "
                                        f"({Path(where.filename).name}:{where.lineno})")


def max_abs(x):
    return float(np.max(np.abs(x))) if x.size else 0.0


def run_cli(cli, argv):
    """qta.cli.run_command with its standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(argv)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------- chain

class Chain:
    """qta cell, then per unit qta chain --n N and SIMULATE_REPEATS runs of
    qta simulate, each timed."""

    names = ("chain_s", "simulate_s")

    def __init__(self, qta, size, seed, refs, workdir):
        self.cli = qta.cli
        self.size = size
        self.ref = refs["chain"]
        self.cell = workdir / "cell.json"
        self.segment = workdir / "segment.json"

    def setup(self, outcome):
        argv = ["cell", "--states", str(self.size["states"]),
                "--bits", str(self.size["bits"]), "-o", str(self.cell)]
        try:
            code, _, err = run_cli(self.cli, argv)
        except Exception:
            outcome.crashed("qta cell")
            return
        outcome.record("qta cell", code == 0, detail=f"exit code {code}: {err}")

    def unit(self, outcome):
        times = {name: [] for name in self.names}
        chain = ["chain", str(self.cell), "--n", str(self.size["n"]),
                 "-o", str(self.segment)]
        simulate = ["simulate", str(self.segment),
                    "--steps", str(self.size["steps"])]
        steps = [("chain_s", chain, self._check_segment)]
        steps += [("simulate_s", simulate, self._check_masses)] * SIMULATE_REPEATS
        for name, argv, check in steps:
            start = time.perf_counter()
            try:
                code, out, err = run_cli(self.cli, argv)
            except Exception:
                code = None
                outcome.crashed(f"qta {argv[0]}")
            times[name].append(time.perf_counter() - start)
            if code != 0:
                if code is not None:
                    outcome.record(f"qta {argv[0]}", False,
                                   detail=f"exit code {code}: {err}")
                continue
            try:
                check(outcome, out)
            except Exception:
                outcome.crashed(f"checking qta {argv[0]}")
        return times

    def _check_segment(self, outcome, _out):
        with open(self.segment) as fh:
            record = json.load(fh)
        mat = decode_complex(record["matrix"])
        perm = np.asarray(self.ref["perm"])
        expected = np.zeros((perm.size, perm.size))
        expected[perm, np.arange(perm.size)] = 1.0
        dims = [record["h"], record["k"], record["l"]]
        if dims != self.ref["hkl"] or mat.shape != expected.shape:
            outcome.record("qta chain", False,
                           detail=f"dims {dims} shape {mat.shape}, expected "
                                  f"{self.ref['hkl']} {expected.shape}")
            return
        deviation = max_abs(mat - expected)
        outcome.record("qta chain", deviation <= TOL, deviation,
                       f"segment differs from the reference permutation by {deviation:.3g}")

    def _check_masses(self, outcome, out):
        masses = np.array([json.loads(line)["masses"]
                           for line in out.splitlines() if line.strip()])
        expected = np.asarray(self.ref["masses"])
        if masses.shape != expected.shape:
            outcome.record("qta simulate", False,
                           detail=f"masses shape {masses.shape}, expected {expected.shape}")
            return
        deviation = max_abs(masses - expected)
        outcome.record("qta simulate", deviation <= TOL, deviation,
                       f"masses differ from the reference by {deviation:.3g}")


# ---------------------------------------------------------------- feedback

def haar_unitary(n, rng):
    """Haar-random unitary: complex Gaussian, QR, R's diagonal phases pushed
    into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def feedback_matrix(family, size, source_seed):
    """generic: Haar unitary; singular: identity(fixed) (+) Haar, so I - A
    has a kernel of dimension `fixed`."""
    side, fixed = size["side"], size["fixed"]
    rng = np.random.default_rng([source_seed, FAMILIES.index(family)])
    if family == "generic":
        return haar_unitary(side, rng)
    mat = np.zeros((side, side), dtype=complex)
    mat[:fixed, :fixed] = np.eye(fixed)
    mat[fixed:, fixed:] = haar_unitary(side - fixed, rng)
    return mat


def solve_feedback(mat, u):
    """D + B (I - A)^-1 C by LU: the closed form when I - A is invertible."""
    a, c = mat[:u, :u], mat[:u, u:]
    b, d = mat[u:, :u], mat[u:, u:]
    return d + b @ np.linalg.solve(np.eye(u) - a, c)


def oracle(family, mat, size):
    """The feedback computed without qta.  The singular family's fixed
    block decouples, so its feedback is that of the Haar part."""
    u, fixed = size["u"], size["fixed"]
    if family == "generic":
        return solve_feedback(mat, u)
    return solve_feedback(mat[fixed:, fixed:], u - fixed)


def probe_vectors(n):
    rng = np.random.default_rng(0)
    p = rng.standard_normal((n, PROBES)) + 1j * rng.standard_normal((n, PROBES))
    return p / np.linalg.norm(p, axis=0)


def fingerprint(out, probes):
    """probes^dagger out probes for fixed unit probe vectors: PROBES x PROBES
    numbers that move with any change of the output."""
    return probes.conj().T @ out @ probes


def encode_complex(arr):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def decode_complex(entries):
    """[re, im] pairs, as in automaton files, to a complex array."""
    arr = np.asarray(entries, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Feedback:
    """qta.trace.schur_feedback on seeded dense unitaries, two families.

    Each family has two inputs: one drawn from REFERENCE_SEED, whose output
    fingerprint is recorded, and one drawn from the run's seed.  A unit calls
    feedback once on each of the four inputs.
    """

    names = ("feedback_s", "feedback_singular_s")

    def __init__(self, qta, size, seed, refs, workdir):
        self.qta = qta
        self.size = size
        self.seed = seed
        self.ref = refs["feedback"]
        self.inputs = []
        self.first = {}

    def setup(self, outcome):
        u, side = self.size["u"], self.size["side"]
        for family in FAMILIES:
            for source in (REFERENCE_SEED, self.seed):
                mat = feedback_matrix(family, self.size, source)
                block = self.qta.trace.BlockMap(self.qta.linalg.Operator(mat),
                                                u, side - u, side - u)
                self.inputs.append((family, source, mat, block))
        self.probes = probe_vectors(side - u)

    def unit(self, outcome):
        times = {name: [] for name in self.names}
        for i, (family, source, mat, block) in enumerate(self.inputs):
            what = f"schur_feedback {family} seed {source}"
            start = time.perf_counter()
            try:
                out = self.qta.trace.schur_feedback(block).mat
            except Exception:
                out = None
                outcome.crashed(what)
            times[self.names[FAMILIES.index(family)]].append(
                time.perf_counter() - start)
            if out is None:
                continue
            try:
                self._check(outcome, what, i, family, source, mat, out)
            except Exception:
                outcome.crashed(f"checking {what}")
        return times

    def _check(self, outcome, what, i, family, source, mat, out):
        if i in self.first:
            deviation = max_abs(out - self.first[i])
            outcome.record(what, deviation <= TOL, deviation,
                           f"differs from the first call by {deviation:.3g}")
            return
        self.first[i] = out
        defect = max_abs(out.conj().T @ out - np.eye(out.shape[1]))
        deviations = {"isometry defect": defect,
                      "distance to the LU oracle":
                          max_abs(out - oracle(family, mat, self.size))}
        if source == REFERENCE_SEED:
            recorded = decode_complex(self.ref["fingerprints"][family])
            deviations["fingerprint distance"] = max_abs(
                fingerprint(out, self.probes) - recorded)
        deviation = max(deviations.values())
        outcome.record(what, deviation <= TOL, deviation,
                       ", ".join(f"{k} {v:.3g}" for k, v in deviations.items()))


# -------------------------------------------------------------------- laws

class Laws:
    """The default law suite: qta.axioms.run_checks over LAW_GROUPS, as two
    calls so the Int-construction groups are timed on their own.

    The suite runs with CheckConfig's default seed, as `qta check` does, and
    ignores the run's seed: every instance draws its dimensions from the
    suite seed, so the work changes with it (on 60 instances the computed
    gram flops of five seeds range over a factor of 2.8).
    """

    names = ("laws_s", "laws_int_s")

    def __init__(self, qta, size, seed, refs, workdir):
        self.axioms = qta.axioms
        self.ref = refs["laws"]
        groups = self.axioms.LAW_GROUPS
        self.configs = [
            self.axioms.CheckConfig(instances=size["instances"],
                                    law_set=tuple(g for g in groups
                                                  if g not in INT_GROUPS)),
            self.axioms.CheckConfig(instances=size["instances"],
                                    law_set=tuple(g for g in groups
                                                  if g in INT_GROUPS)),
        ]

    def setup(self, outcome):
        pass

    def unit(self, outcome):
        start = middle = time.perf_counter()
        reports = None
        try:
            reports = self.axioms.run_checks(self.configs[0])
            middle = time.perf_counter()
            reports += self.axioms.run_checks(self.configs[1])
        except Exception:
            reports = None
            outcome.crashed("run_checks")
        end = time.perf_counter()
        if reports is not None:
            try:
                self._check(outcome, reports)
            except Exception:
                outcome.crashed("checking run_checks")
        return {"laws_s": [end - start], "laws_int_s": [end - middle]}

    def _check(self, outcome, reports):
        instances = self.configs[0].instances
        names = [r.law for r in reports]
        short = [r.law for r in reports if r.law not in self.axioms.EXPECTED_FAIL
                 and r.instances_run != instances]
        held = [r.max_violation for r in reports
                if r.law not in self.axioms.EXPECTED_FAIL]
        deviation = max(held, default=0.0)
        problems = []
        if names != self.ref["laws"]:
            problems.append(f"law list {names} differs from the reference")
        if short:
            problems.append(f"laws run short of {instances} instances: {short}")
        if not self.axioms.suite_passed(reports):
            problems.append("suite_passed is false")
        outcome.record("law suite", not problems, deviation, "; ".join(problems))


WORKLOADS = {"chain": Chain, "feedback": Feedback, "laws": Laws}


# ------------------------------------------------------------------- facts

def blas_facts():
    """numpy version, BLAS library, and the thread count OpenBLAS reports."""
    facts = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


# -------------------------------------------------------------------- main

def measure(workload, outcome, seconds):
    """Untraced units until `seconds` have passed, in whole units; returns
    the operation timings and the wall time of each unit."""
    samples = {name: [] for name in workload.names}
    unit_s = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        began = time.perf_counter()
        times = workload.unit(outcome)
        unit_s.append(time.perf_counter() - began)
        for name, values in times.items():
            samples[name].extend(values)
    return samples, unit_s


def traced_unit(workload, outcome):
    """One unit with the tracer installed, and its wall time."""
    with Tracer() as tracer:
        began = time.perf_counter()
        workload.unit(outcome)
        wall = time.perf_counter() - began
    return tracer, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--references", default=str(REFERENCES))
    args = parser.parse_args(argv)

    qta = import_qta()
    mode = "smoke" if args.smoke else "full"
    with open(args.references) as fh:
        refs = json.load(fh)[mode]
    seed = args.seed % 2 ** 64
    workdir = HERE / "out" / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        workload = WORKLOADS[args.workload](qta, SIZES[mode][args.workload],
                                            seed, refs, workdir)
        workload.setup(outcome)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            samples, unit_s = measure(workload, outcome, args.seconds)
            result["samples"] = samples
            if args.trace:
                tracer, traced_s = traced_unit(workload, outcome)
                untraced_s = statistics.median(unit_s)
                result["layers"] = tracer.metrics()
                result["table"] = tracer.table()
                result["spans"] = tracer.spans
                result["spans_dropped"] = tracer.spans_dropped
                result["overhead"] = {"traced_s": traced_s,
                                      "untraced_s": untraced_s,
                                      "overhead_s": traced_s - untraced_s}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  worst_deviation=outcome.worst_deviation,
                  errors=outcome.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  facts=blas_facts())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
