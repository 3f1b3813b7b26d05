"""Smoke test of the benchmark harness: one op per workload on the fixture."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = ROOT / "fixtures" / "g1.game"
WORKLOADS = ("finite-large", "inf-small", "oracle-check")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_one_op_per_workload(tmp_path, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = _bench("--smoke-game", str(FIXTURE), "--trace", str(trace),
                  "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for workload in WORKLOADS:
        result = json.loads(
            (tmp_path / f"smoke-{workload}-seed0-trace{trace}.json").read_text()
        )
        assert set(result["metrics"]) == names
        # a traced run checks three executions of its round: plain, traced
        # and under tracemalloc
        assert result["attempted"] == (3 if trace else 1)
        assert result["failed"] / result["attempted"] == 0
        if trace:
            assert result["missing_functions"] == []
        else:
            assert result["fail_ratio"] == 0
    if trace:
        layers = json.loads(
            (tmp_path / "smoke-finite-large-seed0-trace1.json").read_text()
        )["metrics"]
        assert layers["solver.solve.calls"] == 1
        assert layers["solver.evals_per_solve"] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "inf-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
