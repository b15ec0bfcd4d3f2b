"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs perfbench/run.py at smoke sizes, so the suite takes seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LINE = re.compile(r"^(\w+) (\S+) = (\S+) (\S+)")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "all",
                           "--seed", "5", "--seconds", "0.5", "--smoke", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[(m[1], m[2])] = (float(m[3]), m[4])
    return printed, json.loads(lines[-1])


def test_every_end_to_end_metric_prints_with_its_unit():
    printed, final = bench("--trace", "0")
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    for workload, names in WORKLOAD_NAMES.items():
        for name in names:
            assert printed[(workload, name)][1] == "s"
        assert printed[(workload, "setup_s")][1] == "s"
        assert printed[(workload, "peak_rss_mb")][1] == "MB"
        assert printed[(workload, "fail_rate")] == (0.0, "ratio")
        for metric in SPEC["end_to_end"]:
            value = final["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0
    assert len(final["metrics"]) == len(WORKLOAD_NAMES) * len(SPEC["end_to_end"])


def test_every_per_layer_metric_prints_with_its_unit():
    _, final = bench("--trace", "1")
    assert final["correct"]
    for workload in WORKLOAD_NAMES:
        for metric in SPEC["per_layer"]:
            value = final["metrics"][f"{workload}.{metric['name']}"]
            assert value["unit"] == metric["unit"]
    assert len(final["metrics"]) == len(WORKLOAD_NAMES) * len(SPEC["per_layer"])
    assert final["metrics"]["laws.intcat.int_compose.calls"]["value"] > 0
    assert final["metrics"]["feedback.trace.schur_feedback.calls"]["value"] > 0
    assert final["metrics"]["chain.cli.chain_cells.calls"]["value"] == 1


def test_wrong_reference_counts_in_fail_rate(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    smoke = refs["smoke"]
    perm = smoke["chain"]["perm"]
    perm[0], perm[1] = perm[1], perm[0]
    smoke["feedback"]["fingerprints"]["generic"][0][0][0] += 1e-6
    smoke["laws"]["laws"][0] = "no-such-law"
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(refs))
    printed, final = bench("--trace", "0", "--references", str(wrong))
    assert not final["correct"] and final["failed"] >= 3
    for workload in WORKLOAD_NAMES:
        assert printed[(workload, "fail_rate")][0] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
