"""Small-size runs of every workload: each metric in BENCHMARK.json is emitted with its unit.

    python3 -m pytest -q perfbench/test_smoke.py

Takes about a minute; not part of the tier-1 suite under ``tests/``.
Do not run it while another benchmark run uses the same checkout, since
both write ``perfbench/_work``.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.2"]
    argv += ["--trace", str(trace), "--scale", "0.05"]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, float) for v in values.values()), values
    if trace == 0:
        assert all(v > 0 for v in values.values()), values
    else:
        assert values["trace.missing_names"] == 0


def test_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        ignore = shutil.ignore_patterns("_work", "__pycache__")
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
