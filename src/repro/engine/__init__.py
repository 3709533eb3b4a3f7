"""A from-scratch, partitioned MapReduce engine (the "vanilla Spark" stand-in).

The engine provides lazy, lineage-tracked RDDs with narrow and wide
(shuffle) dependencies, a scheduler that retries failed tasks by
recomputing from lineage, and a metrics registry that counts jobs,
tasks and shuffled records.

The UPA paper's claims rest on two semantic properties of MapReduce
operators — commutativity and associativity — plus the observable
structure of jobs (number of shuffles, records exchanged).  This engine
exposes both: the operators it keeps are the ones a release, the SQL
executor and :mod:`repro.core.dpobject` run, with Spark's semantics.
Only dpobject's key-value operators (the paper's Table I) shuffle — the
SQL executor never does — and every shuffle is counted by
:class:`repro.engine.metrics.MetricsRegistry`.

Example:
    >>> from repro.engine import EngineContext
    >>> ctx = EngineContext()
    >>> ctx.parallelize(range(10)).map(lambda v: v * v).aggregate(
    ...     0, lambda acc, v: acc + v, lambda a, b: a + b)
    285
"""

from repro.engine.context import EngineContext
from repro.engine.fault import FaultInjector
from repro.engine.metrics import MetricsRegistry, MetricsSnapshot
from repro.engine.partitioner import HashPartitioner
from repro.engine.rdd import RDD

__all__ = [
    "EngineContext",
    "FaultInjector",
    "HashPartitioner",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RDD",
]
