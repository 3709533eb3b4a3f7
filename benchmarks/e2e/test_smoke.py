"""Smoke test of the end-to-end benchmark (not part of tier-1).

Run by explicit path: ``PYTHONPATH=src python -m pytest
benchmarks/e2e/test_smoke.py -q`` (about 20 s).  It checks names,
units and output correctness, never speed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_suite_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    workloads = json.loads(out.read_text())["workloads"]
    assert list(workloads) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in workloads.items():
        assert NAME.fullmatch(name)
        assert entry["failed_frac"] == 0
        assert entry["output_mismatch_frac"] == 0
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert set(entry[section]) == set(declared), (name, section)
            for metric, cell in entry[section].items():
                assert NAME.fullmatch(metric)
                assert cell["unit"] == declared[metric]

    same = subprocess.run(
        RUN + ["--compare", str(out), str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout.replace("may not rise", "")


def test_one_run_prints_the_contract_object_last():
    done = subprocess.run(
        RUN + ["--workload", "join_cold", "--seed", "5", "--seconds", "0.3",
               "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
