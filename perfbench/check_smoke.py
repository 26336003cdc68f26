"""Smoke test of the benchmark: every workload, both modes, every metric.

Run from the repository root::

    python3 -m pytest perfbench/check_smoke.py -q

Each case runs one workload in ``--smoke`` mode (a few seconds) and asserts
that the last output line is the result object, that the run is correct,
and that it reports exactly the metrics ``BENCHMARK.json`` names, each with
its declared unit.  The file is not named ``test_*.py``, so the repository's
own test suite does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    command = [sys.executable, *SPEC["command"][1:]]
    out = subprocess.run(
        [
            *command,
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_fails_without_the_program(tmp_path):
    """Outside a checkout (only the benchmark files) it exits non-zero and
    prints no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "serve_mix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
