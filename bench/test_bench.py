"""Tests of the benchmark itself, on its ``--smoke`` inputs (12 per mode, rank 3).

    python -m pytest -q bench/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from layers import COUNTED_UNITS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PHASE_LISTS = {0: "end_to_end", 1: "per_layer"}


def run_bench(out: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(out), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Both phases of every workload, once."""
    out = tmp_path_factory.mktemp("smoke") / "runs.json"
    done = run_bench(out)
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())["runs"], done.stdout


def test_every_metric_is_emitted_with_its_unit(smoke):
    runs, stdout = smoke
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w, t) for w in WORKLOADS for t in (0, 1)
    }
    for run in runs:
        expected = {m["name"]: m["unit"] for m in SPEC[PHASE_LISTS[run["trace"]]]}
        metrics = run["result"]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
        assert run["result"]["correct"] and run["result"]["failed"] == 0, run["failures"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1


def test_counted_metrics_repeat_exactly(smoke, tmp_path):
    first = {
        (r["workload"], name): m["value"]
        for r in smoke[0]
        for name, m in r["result"]["metrics"].items()
        if m["unit"] in COUNTED_UNITS
    }
    assert first
    done = run_bench(tmp_path / "again.json", "--trace", "1")
    assert done.returncode == 0, done.stderr
    again = {
        (r["workload"], name): m["value"]
        for r in json.loads((tmp_path / "again.json").read_text())["runs"]
        for name, m in r["result"]["metrics"].items()
        if m["unit"] in COUNTED_UNITS
    }
    assert again == first


def test_driver_self_time_is_not_negative(smoke):
    values = [
        m["value"]
        for r in smoke[0]
        for name, m in r["result"]["metrics"].items()
        if name.startswith("cp.driver_ms.")
    ]
    assert len(values) == len(WORKLOADS) * 4
    assert min(values) >= 0


def test_a_wrong_fit_is_counted_as_failed(monkeypatch):
    real = harness.repro.cp_als

    def wrong_fit(*args, **kwargs):
        result = real(*args, **kwargs)
        if kwargs.get("kernel") == "dimtree":
            result.fits[-1] += 1e-6
        return result

    monkeypatch.setattr(harness.repro, "cp_als", wrong_fit)
    phase = harness.Phase(WORKLOADS["cubic-300"].smoke(), seed=0)
    phase.setup()
    calls = phase.closed_loop(0.2, phase.call)
    result = phase.result({})
    assert not calls["dimtree"] and calls["default"]
    assert result["failed"] >= 1 and not result["correct"]
    assert any("dimtree" in failure for failure in phase.failures)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path / "out.json", "--workload", "cubic-300", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def write_record(path: Path, value: float) -> Path:
    path.write_text(json.dumps({"runs": [{
        "workload": "cubic-300",
        "result": {"metrics": {"sweep_rel.default": {"value": value, "unit": "x"}}},
    }]}))
    return path


@pytest.mark.parametrize("change, status", [(100.5, 0), (130.0, 1)])
def test_compare_exits_1_on_a_regression_beyond_the_bound(tmp_path, change, status):
    base = [write_record(tmp_path / f"a{i}.json", 100.0 + i) for i in range(3)]
    new = [write_record(tmp_path / f"b{i}.json", change + i) for i in range(3)]
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), "--base", *map(str, base),
         "--change", *map(str, new)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == status, done.stdout + done.stderr
    assert "sweep_rel.default" in done.stdout
