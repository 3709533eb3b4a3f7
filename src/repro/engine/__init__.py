"""A from-scratch, partitioned MapReduce engine (the "vanilla Spark" stand-in).

The engine provides lazy, lineage-tracked RDDs with narrow
dependencies, a scheduler that retries failed tasks by recomputing
from lineage, and a metrics registry that counts jobs, tasks and
records read.

The UPA paper's claims rest on two semantic properties of MapReduce
operators — commutativity and associativity.  The engine runs what a
release, the SQL executor and :mod:`repro.core.dpobject` (the paper's
Table I) need of Spark, with Spark's semantics: ``parallelize``, then
``map`` / ``map_partitions``, then ``aggregate``, plus ``collect``,
``take``, ``first``, ``count`` and ``union``.  Nothing shuffles: a
fold by key or a join folds or probes each partition and merges on the
driver.

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
from repro.engine.rdd import RDD

__all__ = [
    "EngineContext",
    "FaultInjector",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RDD",
]
