"""A release imports what it runs (DESIGN.md §7, the layering rule).

``import repro.core.session`` plus a release and an incremental one
must load numpy, the standard library and the ``repro`` modules the
releases execute — not scipy, not an HTTP server or the live-monitoring
modules that once wrapped one, not a thread or process pool — for each
of the nine workloads.
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

#: what a release must not have loaded.
_NOT_LOADED = (
    "scipy",
    "http.server",
    "unittest",
    "numpy.testing",
    "numpy.f2py",
    "multiprocessing",
    "concurrent.futures",
    "repro.obs.server",
    "repro.obs.alerts",
    "repro.obs.exporters",
)

_SCRIPT = """
import json, sys
import repro.core.session, repro.workloads
from repro.core.session import UPAConfig, UPASession
from repro.workloads import workload_by_name

watched = json.loads(sys.argv[1])
workload = workload_by_name(sys.argv[2])
tables = workload.make_tables(2000, 0)
rows = tables[workload.query.protected_table]
held = rows[-20:]
del rows[-20:]
session = UPASession(UPAConfig(sample_size=200, seed=7))
session.run(workload.query, tables, epsilon=0.4)
session.append(held, epsilon=0.4)
print(json.dumps([name for name in watched if name in sys.modules]))
"""


@pytest.mark.parametrize("workload", [
    "tpch1", "tpch4", "tpch6", "tpch11", "tpch13", "tpch16", "tpch21",
    "kmeans", "linreg",
])
def test_a_release_loads_neither_scipy_nor_unused_surfaces(workload):
    env = dict(os.environ, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(_NOT_LOADED), workload],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_obs_exports_what_its_three_modules_define():
    modules = [
        importlib.import_module(f"repro.obs.{name}")
        for name in ("tracing", "ledger", "report")
    ]
    assert len(repro.obs.__all__) == 14
    for name in repro.obs.__all__:
        value = getattr(repro.obs, name)
        assert any(getattr(m, name, None) is value for m in modules), name
    for gone in ("server", "alerts", "exporters"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.obs.{gone}")
