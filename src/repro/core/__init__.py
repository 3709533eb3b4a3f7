"""UPA core: the paper's primary contribution.

* :mod:`repro.core.query` — the Mapper/Reducer (monoid) decomposition
  of a big-data query that UPA's reuse trick requires.
* :mod:`repro.core.sampling` — Partition & Sample (phase 1).
* :mod:`repro.core.inference` — Algorithm 1: sampled neighbour outputs,
  MLE normal fit, percentile output range, local sensitivity.
* :mod:`repro.core.range_enforcer` — Algorithm 2: cross-query registry,
  attack detection via per-partition outputs, output clamping.
* :mod:`repro.core.session` — UPASession: the end-to-end pipeline
  returning noisy outputs under epsilon-iDP.
* :mod:`repro.core.dpobject` — the Spark-compatible operator API of
  Table I (dpread / DPObject / DPObjectKV).
"""

from repro.core.query import MapReduceQuery
from repro.core.session import UPAConfig, UPAResult, UPASession

__all__ = [
    "MapReduceQuery",
    "UPAConfig",
    "UPAResult",
    "UPASession",
]
