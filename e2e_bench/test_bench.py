"""Smoke tests of the benchmark itself: ``python -m pytest e2e_bench``.

Every workload runs in its tiny mode, traced and untraced, and must
report its metrics with no failed operation.  The answer checks are
shown to be able to fail: a corrupted answer must be counted.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_workloads()
from oracle import Oracle, distances_match  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_OPS
    want = workloads.LAYER_METRICS if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_distances_match():
    assert distances_match(math.inf, math.inf)
    assert distances_match(1.0 + 1e-12, 1.0)
    assert not distances_match(1.0 + 1e-6, 1.0)
    assert not distances_match(5.0, math.inf)
    assert not distances_match(math.inf, 5.0)


def test_oracle_path_length_rejects_a_non_edge():
    # 0 -> 1 (weight 2 and a heavier parallel arc 5), 1 -> 2 (weight 3)
    oracle = Oracle(indptr=[0, 2, 3, 3], indices=[1, 1, 2], weights=[5.0, 2.0, 3.0])
    assert oracle.path_length([0, 1, 2]) == 5.0
    assert oracle.rows([0])[0].tolist() == [0.0, 2.0, 5.0]
    with pytest.raises(ValueError):
        oracle.path_length([0, 2])


def _corrupt_nth(monkeypatch, owner, attr, n, corrupt):
    """Make the ``n``-th call (from 1) of ``owner.attr`` return a corrupted answer."""
    original = getattr(owner, attr)
    calls = {"n": 0}

    def wrapper(*args, **kwargs):
        answer = original(*args, **kwargs)
        calls["n"] += 1
        return corrupt(answer) if calls["n"] == n else answer

    monkeypatch.setattr(owner, attr, wrapper)


def test_one_wrong_ppsp_distance_is_counted_as_failed(monkeypatch):
    # The in-process set-up makes two warm-up calls; the third is timed.
    _corrupt_nth(monkeypatch, workloads.repro, "ppsp", 3,
                 lambda ans: dataclasses.replace(ans, distance=ans.distance * 1.001))
    args = run.parse_args(["--workload", "road-query", "--tiny", "--seconds", "0"])
    result = run.measure(args, workloads)
    assert result["failed"] == 1
    assert result["correct"] is False


def test_one_wrong_batch_distance_is_counted_as_failed(monkeypatch):
    def corrupt(res):
        key = next(iter(res.distances))
        res.distances[key] += 1.0
        return res

    # Two warm-up batches in set-up; the third call is the first timed one.
    _corrupt_nth(monkeypatch, workloads, "solve_batch", 3, corrupt)
    args = run.parse_args(["--workload", "social-batch", "--tiny", "--seconds", "0"])
    result = run.measure(args, workloads)
    assert result["failed"] == 1
    assert result["correct"] is False
