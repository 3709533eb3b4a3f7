"""Reproduction of UPA (DSN 2020): automated, accurate, efficient iDP.

Li et al., "UPA: An Automated, Accurate and Efficient Differentially
Private Big-data Mining System", DSN 2020.

Public surface:

* :class:`repro.core.UPASession` — run any MapReduce query under
  epsilon-iDP with automatically inferred local sensitivity.
* :func:`repro.core.dpobject.dpread` + ``DPObject``/``DPObjectKV`` —
  the paper's Table I operator API.
* :class:`repro.engine.EngineContext` — the MapReduce engine substrate.
* :class:`repro.sql.SQLSession` — the SQL layer: SQL text in, plans and
  rows out.
* :mod:`repro.workloads` — the paper's nine evaluated queries.
* :mod:`repro.baselines` — FLEX and brute-force comparators.
"""

from repro._version import __version__
from repro.core import MapReduceQuery, UPAConfig, UPAResult, UPASession
from repro.core.dpobject import DPObject, DPObjectKV, dpread
from repro.engine import EngineContext
from repro.sql import SQLSession

__all__ = [
    "DPObject",
    "DPObjectKV",
    "EngineContext",
    "MapReduceQuery",
    "SQLSession",
    "UPAConfig",
    "UPAResult",
    "UPASession",
    "dpread",
    "__version__",
]
