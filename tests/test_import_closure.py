"""A release imports what it runs (DESIGN.md §7, the layering rule).

``import repro.core.session`` plus one release must load numpy, the
standard library and the ``repro`` modules the release executes — not
scipy, not the obs surfaces nobody asked for, not the process backend.
Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro.obs

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: what a release on the ``inline`` backend must not have loaded.
_NOT_LOADED = (
    "scipy",
    "http.server",
    "unittest",
    "numpy.testing",
    "numpy.f2py",
    "multiprocessing.pool",
    "concurrent.futures.process",
    "repro.obs.server",
    "repro.obs.alerts",
    "repro.obs.exporters",
    "repro.obs.profiler",
    "repro.obs.timeseries",
    "repro.obs.watch",
    "repro.obs.crossproc",
    "repro.engine.procpool",
)

_SCRIPT = """
import json, sys
import repro.core.session, repro.workloads
from repro.common.config import EngineConfig
from repro.core.session import UPAConfig, UPASession
from repro.engine.context import EngineContext
from repro.workloads import workload_by_name

watched = json.loads(sys.argv[1])
workload = workload_by_name("tpch6")
tables = workload.make_tables(2000, 0)
config = UPAConfig(sample_size=200, seed=7)
inline = UPASession(config).run(workload.query, tables, epsilon=0.4)
after_inline = [name for name in watched if name in sys.modules]

engine = EngineContext(EngineConfig(
    backend="processes", max_workers=2, default_parallelism=2,
))
try:
    processes = UPASession(config, engine=engine).run(
        workload.query, tables, epsilon=0.4
    )
    fallbacks = engine.metrics.get("process_fallbacks")
finally:
    engine.stop()
print(json.dumps({
    "after_inline": after_inline,
    "after_processes": [name for name in watched if name in sys.modules],
    "same_release": inline.noisy_output.tolist()
    == processes.noisy_output.tolist(),
    "fallbacks": fallbacks,
}))
"""


def test_a_release_loads_neither_scipy_nor_unused_surfaces():
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_NOT_LOADED)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen["after_inline"] == []
    # The process backend loads its own two modules when it first runs
    # a job, and releases the bits the inline backend releases.
    assert {"repro.obs.crossproc", "repro.engine.procpool"} <= set(
        seen["after_processes"]
    )
    assert "scipy" not in seen["after_processes"]
    assert seen["same_release"] and seen["fallbacks"] == 0


def test_obs_names_resolve_on_first_access():
    assert len(repro.obs.__all__) == 52
    assert set(repro.obs.__all__) <= set(dir(repro.obs))
    for name, owner in repro.obs._OWNER.items():
        module = importlib.import_module(f"repro.obs.{owner}")
        assert getattr(repro.obs, name) is getattr(module, name), name
    assert repro.obs.server is importlib.import_module("repro.obs.server")
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.obs.no_such_name
