"""The benchmark's own tests (not part of the package's test suite).

    python3 -m pytest -q e2ebench/selftest.py

A smoke-length run of every workload (the declared ones and the sharded
one kept runnable by name) must print exactly the metric names and units
BENCHMARK.json declares, in both modes; a wrong oracle digest
must fail the output check with a non-zero exit; and a directory holding
only the benchmark must be refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_EVENTS = 2000

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), "--seed", "1",
         "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_metrics_match_declaration(workload, trace):
    proc = bench("--workload", workload, "--trace", trace,
                 "--events", str(SMOKE_EVENTS))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = result(proc)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{workload} {name} = " in proc.stdout
    if trace == "0":
        assert out["metrics"]["ok_frac"]["value"] == 1.0


def test_wrong_oracle_digest_fails_the_check():
    proc = bench("--workload", "hh-fattree8", "--trace", "0",
                 "--events", str(SMOKE_EVENTS), "--oracle-digest", "00000000")
    assert proc.returncode != 0
    out = result(proc)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]
    assert out["metrics"]["ok_frac"]["value"] == 0.0
    assert "array digest" in proc.stdout


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "hh-fattree8", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
