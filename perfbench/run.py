"""qta benchmark: chain, feedback and laws workloads.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26
    python3 perfbench/run.py --workload all --smoke --seconds 1

Run from the repository root; qta is imported from src/.  Each workload
runs in fresh processes (workloads.py) with the BLAS and OpenMP thread count
pinned to the number of usable cores.  SETUP_REPEATS[workload] - 1 processes
only set up, half before and half after the one that measures, so set-up
time is a median over the whole run.

Printed per workload: every metric by its workload-specific name with unit
and sample count, the fail rate, the worst deviation from the references
(recorded, never gated) and machine facts.  The last line is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json (primary_s and
secondary_s stand for the names in WORKLOAD_NAMES), with --trace 1 the
per-layer ones from one traced unit.  Each run also writes
perfbench/out/<workload>-seed<S>-trace<T>.jsonl.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("chain", "feedback", "laws")

# primary_s and secondary_s of each workload, by the names users know
WORKLOAD_NAMES = {
    "chain": ("chain_s", "simulate_s"),
    "feedback": ("feedback_s", "feedback_singular_s"),
    "laws": ("laws_s", "laws_int_s"),
}

# set-up processes per run, the measuring one included; feedback's set-up
# (four Haar unitaries of side 1024) takes about 1.6 s, the others 0.2 s
SETUP_REPEATS = {"chain": 9, "feedback": 5, "laws": 9}

# one workload must end within 180 s; its processes share this budget
DEADLINE_S = 170


def usable_cores():
    return len(os.sched_getaffinity(0))


def child_env(threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def host_facts(threads):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "qta").glob("*.py")))
    return {"nproc": os.cpu_count(), "usable_cores": usable_cores(),
            "cpu": cpu, "python": platform.python_version(),
            "threads_pinned": threads, "commit": commit,
            "src_qta_lines": src_lines}


def spawn(workload, args, env, deadline, setup_only):
    """Run workloads.py once and return its result dict."""
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload}-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path),
           "--references", args.references]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: out of time, stopped the workload process")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not result_path.is_file():
        raise SystemExit(f"{workload}: workload process exited with code {code}")
    try:
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        result_path.unlink()


def run_workload(workload, args, env, deadline):
    """The measuring process, with set-up-only processes before and after it
    so that the set-up samples span the run."""
    def setup_only():
        return spawn(workload, args, env, deadline, True)["setup_s"]
    repeats = SETUP_REPEATS[workload]
    before = [setup_only() for _ in range(repeats // 2)]
    result = spawn(workload, args, env, deadline, False)
    after = [setup_only() for _ in range(repeats - 1 - len(before))]
    result["setup_samples"] = before + [result["setup_s"]] + after
    return result


def summarize(workload, result):
    """End-to-end metrics and the lines that print them by name."""
    primary, secondary = WORKLOAD_NAMES[workload]
    samples = result["samples"]
    if not samples.get(primary) or not samples.get(secondary):
        raise SystemExit(f"{workload}: no successful timed operation")
    metrics = {
        "setup_s": (statistics.median(result["setup_samples"]), "s"),
        "primary_s": (statistics.median(samples[primary]), "s"),
        "secondary_s": (statistics.median(samples[secondary]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    counts = {"setup_s": len(result["setup_samples"]),
              "primary_s": len(samples[primary]),
              "secondary_s": len(samples[secondary])}
    shown = {"primary_s": primary, "secondary_s": secondary}
    lines = []
    for key, (value, unit) in metrics.items():
        n = f" (median of {counts[key]})" if key in counts else ""
        lines.append(f"{workload} {shown.get(key, key)} = {value:.6g} {unit}{n}")
    return metrics, lines


def traced_summary(workload, result):
    """Per-layer metrics, the tracing overhead, and a line per called function."""
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    metrics.update({f"tracer.{k}": (v, "s") for k, v in result["overhead"].items()})
    lines = [f"{workload} {row['module']}.{row['function']} calls={row['calls']} "
             f"self_s={row['self_s']:.6g} total_s={row['total_s']:.6g}"
             for row in result["table"] if row["calls"]]
    lines.append(f"{workload} tracer.overhead_s = {result['overhead']['overhead_s']:.6g} s "
                 "(traced unit minus untraced median)")
    return metrics, lines


def report_lines(workload, result):
    rate = result["failed"] / result["attempted"]
    lines = [f"{workload} fail_rate = {rate:.6g} ratio "
             f"({result['failed']} of {result['attempted']} operations failed)",
             f"{workload} worst_deviation = {result['worst_deviation']:.3g} "
             f"(recorded, not gated)"]
    lines += [f"{workload} error: {e}" for e in result["errors"]]
    return lines


def write_jsonl(path, workload, args, facts, result, metrics):
    head = {"record": "run", "workload": workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "attempted": result["attempted"], "failed": result["failed"],
            "worst_deviation": result["worst_deviation"],
            "errors": result["errors"], "facts": facts,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "samples": result["samples"], "setup_samples": result["setup_samples"]}
    records = [head]
    if args.trace:
        records.append({"record": "overhead", **result["overhead"]})
        records += [{"record": "layer", **row} for row in result["table"]]
        records += [{"record": "count", "name": name, "value": value, "unit": unit,
                     "computed": name.endswith("_flops")}
                    for name, (value, unit) in metrics.items()
                    if not name.endswith((".calls", ".self_s"))
                    and not name.startswith("tracer.")]
        records += [{"record": "span", "name": n, "start": s, "end": e,
                     "id": i, "parent": p} for n, s, e, i, p in result["spans"]]
        records.append({"record": "spans_dropped", "count": result["spans_dropped"]})
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes that run in seconds")
    parser.add_argument("--references", default=str(HERE / "references.json"),
                        help="reference outputs to check against")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qta" / "__init__.py").is_file():
        print(f"error: no qta sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    threads = usable_cores()
    env = child_env(threads)
    facts = host_facts(threads)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    attempted = failed = 0
    final = {}
    for workload in workloads:
        result = run_workload(workload, args, env, time.monotonic() + DEADLINE_S)
        run_facts = {**facts, **result["facts"]}
        summary = traced_summary if args.trace else summarize
        metrics, lines = summary(workload, result)
        lines += report_lines(workload, result)
        lines.append(f"{workload} facts {json.dumps(run_facts)}")
        print("\n".join(lines), flush=True)
        path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.jsonl"
        write_jsonl(path, workload, args, run_facts, result, metrics)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        final.update({prefix + k: {"value": v, "unit": u}
                      for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
