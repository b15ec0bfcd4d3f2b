"""Per-function call counts and self times for qta, installed from outside.

``Tracer.install`` wraps each function listed in ``LAYERS`` by rebinding its
name in every loaded ``qta`` module that holds the original: ``from .linalg
import kron`` copies the binding, so patching ``qta.linalg`` alone would miss
the callers in ``qta.dqta``.  ``Operator`` is a class that callers also use in
``isinstance`` checks, so its constructions are counted by patching
``Operator.__init__`` instead of rebinding the name.

While the tracer is installed, every call adds to its function's count,
inclusive time and self time (the call's duration minus the time covered by
the wrapped calls made inside it).  The first ``SPAN_CAP`` calls are also
kept as spans (name, start, end, id, parent id); later ones are only
aggregated, since the law suite makes about a million wrapped calls.
"""

import itertools
import sys
import time
from functools import wraps

LAYERS = {
    "linalg": ("isometry_defect", "unitary_defect", "mp_inverse", "kron",
               "dsum", "adjoint", "distribute", "block_perm", "tensor_swap",
               "random_isometry"),
    "trace": ("schur_feedback", "kernel_image_trace", "kleene_feedback"),
    "dqta": ("make_dqta", "make_unitary_dqta", "cascade", "turing_tensor",
             "feedback_dqta", "dagger_dqta"),
    "intcat": ("int_compose", "int_tensor", "int_dagger", "canonical_trace",
               "functor_image"),
    "axioms": ("check_trace_axioms", "check_equivalences", "check_int0_laws"),
    "cli": ("load_record", "write_automaton", "chain_cells", "simulate"),
}

# classes whose constructions are counted (no span, no time)
COUNTED_CLASSES = {"linalg": ("Operator",)}

SPAN_CAP = 20_000


def _svd_flops(rows, cols):
    """Real flops of a thin SVD with both factors: the R-SVD count
    6 m n^2 + 20 n^3 of Golub & Van Loan, times 4 for complex arithmetic."""
    m, n = max(rows, cols), min(rows, cols)
    return 4 * (6 * m * n * n + 20 * n ** 3)


def _count_isometry_defect(counts, args, result):
    rows, cols = args[0].mat.shape
    # f^dagger f: cols x rows times rows x cols, 8 real flops per complex MAC
    counts["linalg.isometry_defect.gram_flops"] += 8 * rows * cols * cols


def _count_mp_inverse(counts, args, result):
    rows, cols = args[0].mat.shape
    if rows and cols:
        counts["linalg.mp_inverse.svd_flops"] += _svd_flops(rows, cols)
    counts["linalg.mp_inverse.max_n"] = max(counts["linalg.mp_inverse.max_n"],
                                            rows, cols)


def _count_kleene(counts, args, result):
    counts["trace.kleene_feedback.steps"] += result[1].steps


# exact counts derived from arguments and results, keyed by qualified name
COUNTERS = {
    "linalg.isometry_defect": _count_isometry_defect,
    "linalg.mp_inverse": _count_mp_inverse,
    "trace.kleene_feedback": _count_kleene,
}

# exact counts and their units; flops are computed from shapes
COUNT_NAMES = {"trace.kleene_feedback.steps": "count",
               "linalg.isometry_defect.gram_flops": "flop",
               "linalg.mp_inverse.svd_flops": "flop",
               "linalg.mp_inverse.max_n": "count"}


class Tracer:
    """Wraps the listed functions while installed; use as a context manager."""

    def __init__(self):
        # per "module.function": [calls, inclusive seconds, self seconds]
        self.stats = {f"{layer}.{fname}": [0, 0.0, 0.0]
                      for layer, names in LAYERS.items() for fname in names}
        self.constructions = {f"{layer}.{cname}": [0]
                              for layer, names in COUNTED_CLASSES.items()
                              for cname in names}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.spans = []
        self.spans_dropped = 0
        self._stack = []       # [span id, time covered by child spans]
        self._ids = itertools.count()
        self._undo = []        # (object, attribute, original value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -------------------------------------------------------------- install

    def install(self):
        """Wrap every listed function and class of the loaded qta modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qta" or name.startswith("qta."))]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"qta.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue   # deleted from the library: reports 0 calls
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for layer, names in COUNTED_CLASSES.items():
            home = sys.modules.get(f"qta.{layer}")
            for cname in names:
                cls = getattr(home, cname, None)
                if cls is not None:
                    self._count_constructions(f"{layer}.{cname}", cls)

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def _count_constructions(self, name, cls):
        original = cls.__init__
        count = self.constructions[name]

        @wraps(original)
        def __init__(obj, *args, **kwargs):
            count[0] += 1
            original(obj, *args, **kwargs)

        self._undo.append((cls, "__init__", original))
        cls.__init__ = __init__

    def _wrap(self, name, fn):
        tracer = self
        stats = self.stats[name]
        stack, spans, ids = self._stack, self.spans, self._ids
        counter, counts = COUNTERS.get(name), self.counts
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, end, frame[0], parent))
                else:
                    tracer.spans_dropped += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    # --------------------------------------------------------------- report

    def metrics(self):
        """Per-layer metrics: calls and self time of every listed function,
        construction counts, and the exact counts."""
        out = {}
        for name, (calls, _, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, (count,) in self.constructions.items():
            out[f"{name}.calls"] = (count, "count")
        for name, unit in COUNT_NAMES.items():
            out[name] = (self.counts[name], unit)
        feedbacks = self.stats["trace.schur_feedback"][0]
        grams = self.stats["linalg.isometry_defect"][0]
        out["linalg.gram_checks_per_feedback"] = (
            grams / feedbacks if feedbacks else 0.0, "ratio")
        return out

    def table(self):
        """One row per listed function, for the JSONL trace file."""
        return [{"module": name.split(".")[0], "function": name.split(".")[1],
                 "calls": calls, "self_s": self_s, "total_s": total_s}
                for name, (calls, total_s, self_s) in self.stats.items()]
