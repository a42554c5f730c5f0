"""Smoke test of the benchmark on the criterion-7-sized ``smoke`` workload.

Run from the repository root::

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric ``BENCHMARK.json`` declares is printed with its
name, unit, median, high percentile and sample count, that the last line is
the result object, and that the benchmark refuses to run without sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(p\d+|max)\s+(\S+)\s+(\d+)$")


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", "smoke", "--seed", "21", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed(trace, kind):
    out = _bench(ROOT, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

    rows = {m.group(1): m for m in map(ROW.match, lines[:-1]) if m}
    for name, unit in declared.items():
        row = rows[name]
        assert row.group(2) == unit
        median, high = float(row.group(3)), float(row.group(5))
        assert median == pytest.approx(result["metrics"][name]["value"],
                                       rel=1e-5, abs=1e-9)
        assert high >= median
        assert int(row.group(6)) >= 1
    frac = [line.split() for line in lines if line.startswith("failed_frac")]
    assert frac and frac[0][1] == "ratio" and float(frac[0][2]) == 0.0
    assert int(frac[0][-1]) == result["attempted"]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(str(tmp_path), 0)
    assert out.returncode != 0
    assert "correct" not in out.stdout
