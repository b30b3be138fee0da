"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

ops = run.load_ops()
TINY = ops.Sizes(sweep_steps=31, sim_rounds=20_000, short_rounds=2_000, stats_repeats=1)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, kind):
    result, detail = run.measure(workload, seed=5, seconds=0, trace=trace, sizes=TINY)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared_units(kind)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    assert detail["provenance"]["seed"] == 5
    assert any(key.startswith("simulate ") for key in detail["digests"])


def test_declared_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


def test_perturbed_threshold_raises_failed_frac(monkeypatch):
    exact = ops.cli.find_threshold
    monkeypatch.setattr(ops.cli, "find_threshold",
                        lambda *args, **kwargs: exact(*args, **kwargs) + 1e-3)
    result, detail = run.measure("analytic", seed=5, seconds=0, trace=False, sizes=TINY)
    assert not result["correct"]
    assert detail["failed_frac"] > 0
    assert any(f.startswith("threshold ") for f in detail["failures"])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analytic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
