"""Smoke tests: the runnable examples must stay runnable.

The two fastest examples run as subprocesses end-to-end; the others are
import-checked (their heavy main() is exercised manually / in docs).
"""

import importlib.util
import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart_runs(self):
        out = _run_example("quickstart.py")
        assert "noisy count (released)" in out
        assert "dpread/mapDP/reduceDP" in out
        assert "each neighbour one lower on its flag: True" in out
        assert "joinDP (orders x lineitem)    : 20000 joined tuples" in out
        assert "identical=True" in out

    def test_attack_defense_runs(self):
        out = _run_example("attack_defense.py")
        assert "detected as attack   : True" in out

    @pytest.mark.parametrize(
        "name",
        ["tpch_private_analytics.py", "private_ml.py", "ad_hoc_sql.py",
         "grouped_histogram.py"],
    )
    def test_other_examples_importable(self, name):
        path = os.path.join(EXAMPLES_DIR, name)
        spec = importlib.util.spec_from_file_location(
            f"example_{name[:-3]}", path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # imports run; main() does not
        assert hasattr(module, "main")
