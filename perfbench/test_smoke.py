"""Smoke test of the benchmark: each workload at a tiny size, in both modes.

Run from the root of the repository with

    python3 -m pytest perfbench/test_smoke.py

It takes about two minutes on a 2-core machine, so it is not part of the
test suite under tests/.
"""

import importlib.util
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "scalar_verify": "balance verify --variant fdk --n 1000".split(),
    "lattice_stationarity": "lattice stationarity --n 2000 --t 10 --probes 5,10".split(),
    "matrix_verify": "balance verify --variant matrix --r 2 --n 1000".split(),
    "dist_check": ["dist", "check"],
}


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_tables_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(TINY)
    assert _units(BENCH["end_to_end"]) == run.END_TO_END
    assert _units(BENCH["per_layer"]) == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS[workload], "argv", TINY[workload])
    assert run.main(["--workload", workload, "--seconds", "1", "--trace", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = _units(BENCH["per_layer" if trace else "end_to_end"])
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())
    assert not multiprocessing.active_children()  # the pace process has ended


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dist_check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
