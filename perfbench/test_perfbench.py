"""Quick self-test of the benchmark.

From the root of a checkout:

    python3 -m pytest perfbench -q

Runs the smoke mode (the smallest job of each workload) untraced and traced,
and checks that every metric in BENCHMARK.json is printed with its unit and
that corrupted outputs count as failures.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import FAILED, OK, check_output, reference
from jobs import SMOKE, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
ALL_JOBS = [job for jobs in WORKLOADS.values() for job in jobs]


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _corrupt(text: bytes) -> bytes:
    """Add one to the first number in the output."""
    return re.sub(rb"\d+", lambda m: str(int(m.group()) + 1).encode(), text,
                  count=1)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(SMOKE) == set(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {name: m["unit"] for name, m in result["metrics"].items()})


@pytest.mark.parametrize("job", ALL_JOBS, ids=lambda j: j.name)
def test_reference_passes_and_corruption_fails(job):
    expected = reference(job)
    assert expected is not None
    assert check_output(job, 0, expected, expected) == (OK, "")
    assert check_output(job, 0, _corrupt(expected), expected)[0] == FAILED
    assert check_output(job, 1, expected, expected)[0] == FAILED


def test_corrupted_output_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "reference",
                        lambda job: _corrupt(reference(job)))
    assert run.main(["--workload", "census", "--seconds", "1",
                     "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0
