"""The six workloads: what data they generate and which releases they run.

A workload is a generator of **rounds**.  A round is the smallest unit
of identical work — one release of every query for the cold workloads,
one whole session of fixed depth for the stateful ones — and the
harness only ever measures whole rounds, so the mix of queries and the
distribution of session depths behind every percentile is the same
however many rounds fit into ``--seconds``.  Everything a round does
before it yields a step (copying the protected table, building and
priming sessions) is input preparation and is not timed; only
``Step.release`` is.

Sizes are chosen so that a 15 s run on the 2-core reference box
completes at least ~100 releases per workload (the p90 needs ten
samples beyond it); the stateful depths so that a round stays a small
fraction of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Optional, Tuple

import numpy as np

from repro.core import UPAConfig, UPASession
from repro.core.query import MapReduceQuery, Tables
from repro.core.sqlbridge import CompiledSQLQuery, clear_bridge_cache
from repro.dp import PrivacyAccountant
from repro.obs.tracing import Tracer
from repro.sql.session import SQLSession
from repro.tpch.queries import base as samplers
from repro.workloads import workload_by_name

SAMPLE_SIZE = 1000
EPSILON = 0.1
#: a budget no run can exhaust (0.1 per release).
TOTAL_EPSILON = 1e9

SCAN_ROWS = 10_000
ML_POINTS = 8_000
TPCH_SCALE = 20_000
INCR_WINDOW = 20_000
INCR_DELTA = 100
INCR_PAIRS = 50
RESUBMIT_DEPTH = 250
#: --smoke divides the stateful depths by this.
SMOKE_DIVISOR = 10

SessionFactory = Callable[[], UPASession]


def session_factory(seed: int, obs_tracer: bool) -> SessionFactory:
    """Sessions under the load shape every workload shares.

    ``obs_tracer`` hands each session its own enabled
    ``repro.obs.Tracer`` (the traced run's second pass).
    """
    config = UPAConfig(sample_size=SAMPLE_SIZE, epsilon=EPSILON, seed=seed)

    def make() -> UPASession:
        return UPASession(
            config,
            accountant=PrivacyAccountant(total_epsilon=TOTAL_EPSILON),
            tracer=Tracer() if obs_tracer else None,
        )

    return make


@dataclass
class Step:
    """One release: the timed call, its vanilla twin and how to check it.

    Attributes:
        group: the query (and, for ``incr_window``, the operation) the
            release belongs to; timings are summarised per group.
        session: the session ``release`` runs on.
        query_class: the class whose monoid methods the release calls
            (where the span wrappers attach).
        output_dim: expected length of the released vector.
        release: the timed call; returns a ``UPAResult``.
        vanilla: the same query with no privacy machinery on the same
            input; returns the output vector.
        repeats: every release of the group is the same computation
            under the same seed, so its released values must be
            identical from release to release.
    """

    group: str
    session: UPASession
    query_class: type
    output_dim: int
    release: Callable[[], Any]
    vanilla: Callable[[], np.ndarray]
    repeats: bool


def _fresh(tables: Tables, protected: str) -> Tables:
    """``tables`` with a record-by-record copy of the protected table."""
    copy = dict(tables)
    copy[protected] = [dict(row) for row in tables[protected]]
    return copy


def _generate(query_name: str, rows: int, seed: int) -> Tables:
    """The registry's dataset for ``query_name``: TPC-H at
    ``scale_rows=rows`` or ``rows`` life-science points."""
    return workload_by_name(query_name).make_tables(rows, seed)


def _query_step(session: UPASession, query: MapReduceQuery, tables: Tables,
                release: Callable[[], Any], group: Optional[str] = None,
                repeats: bool = False) -> Step:
    return Step(
        group=group or query.name,
        session=session,
        query_class=type(query),
        output_dim=query.output_dim,
        release=release,
        vanilla=lambda: session.run_vanilla(query, tables)[0],
        repeats=repeats,
    )


class Workload:
    """Base: data generation plus a generator of one round's steps."""

    name = ""
    why = ""
    #: the registry names (``repro.workloads``) of the queries it runs.
    query_names: Tuple[str, ...] = ()
    #: run the vanilla twin on every k-th release of a group.
    vanilla_every = 1

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.queries = [workload_by_name(n).query for n in self.query_names]

    def prepare(self, seed: int) -> Any:
        """Generate the workload's tables from ``seed`` (set-up)."""
        raise NotImplementedError

    def round(self, data: Any, make_session: SessionFactory) -> Iterator[Step]:
        """Yield the steps of one round, preparing inputs lazily."""
        raise NotImplementedError

    def _depth(self, full: int) -> int:
        return max(2, full // SMOKE_DIVISOR) if self.smoke else full


class _ColdWorkload(Workload):
    """Round-robin over the queries: fresh session and table copy each."""

    #: size of the dataset all the queries share.
    rows = 0

    def prepare(self, seed):
        return _generate(self.query_names[0], self.rows, seed)

    def round(self, data, make_session):
        for query in self.queries:
            tables = _fresh(data, query.protected_table)
            session = make_session()
            yield _query_step(
                session, query, tables,
                release=partial(session.run, query, tables), repeats=True,
            )


class ScanCold(_ColdWorkload):
    name = "scan_cold"
    why = ("tpch1/tpch6 cold over a wide lineitem table: per-record "
           "fingerprinting and row-list splitting in core.sampling do "
           "nearly all the work")
    query_names = ("tpch1", "tpch6")
    rows = SCAN_ROWS


class MLCold(_ColdWorkload):
    name = "ml_cold"
    why = ("kmeans/linreg cold: an expensive mapper, so engine "
           "aggregate and the mining mappers dominate and vanilla is "
           "itself slow")
    query_names = ("kmeans", "linreg")
    rows = ML_POINTS
    #: vanilla is half a release here; every other release is enough
    #: for its median and keeps the run above 100 releases.
    vanilla_every = 2


class JoinCold(_ColdWorkload):
    name = "join_cold"
    why = ("five join queries over small protected tables: per-release "
           "fixed costs (build_aux, domain sampling, kernels, "
           "inference) dominate, fingerprinting does little")
    query_names = ("tpch4", "tpch13", "tpch16", "tpch21", "tpch11")
    rows = TPCH_SCALE


#: the four SQL texts examples/ad_hoc_sql.py accepts, pinned here so an
#: edit to the example cannot change the benchmark:
#: (group, sql, protected table, domain sampler).
SQL_QUERIES = [
    ("orders",
     "SELECT COUNT(*) AS n FROM orders WHERE o_orderpriority = '1-URGENT'",
     "orders", samplers.random_order),
    ("lineitem",
     "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue "
     "FROM lineitem WHERE l_shipdate >= DATE '1995-01-01'",
     "lineitem", samplers.random_lineitem),
    ("customer_orders",
     "SELECT COUNT(*) AS n FROM customer, orders "
     "WHERE c_custkey = o_custkey AND c_mktsegment = 'BUILDING'",
     "customer", samplers.random_customer),
    ("partsupp_not_in",
     "SELECT COUNT(*) AS n FROM partsupp WHERE ps_availqty < 500 "
     "AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier "
     "WHERE s_comment LIKE '%Complaints%')",
     "partsupp", samplers.random_partsupp),
]


def _plain_sql(text: str, tables: Tables) -> np.ndarray:
    """The SQL text on a plain SQLSession: the vanilla of ``run_sql``."""
    plain = SQLSession()
    for name, rows in tables.items():
        plain.create_table(name, rows)
    (row,) = plain.sql(text).collect()
    (value,) = row.values()
    return np.asarray([float(value)])


class SQLAdhoc(Workload):
    name = "sql_adhoc"
    why = ("SQL text through run_sql with a cold bridge cache: the only "
           "workload where the sql layer and core.sqlbridge run")

    def prepare(self, seed):
        return _generate("tpch1", TPCH_SCALE, seed)

    def round(self, data, make_session):
        for group, text, protected, sampler in SQL_QUERIES:
            tables = _fresh(data, protected)
            session = make_session()
            clear_bridge_cache()
            yield Step(
                group=group,
                session=session,
                query_class=CompiledSQLQuery,
                output_dim=1,
                release=partial(
                    session.run_sql, text, tables,
                    protected_table=protected, domain_sampler=sampler,
                ),
                vanilla=partial(_plain_sql, text, tables),
                repeats=True,
            )


class IncrWindow(Workload):
    name = "incr_window"
    why = ("append/retire on two long-lived sessions: partition ids and "
           "map elements are cached, so list splitting, aggregate over "
           "cached elements and session bookkeeping remain")
    query_names = ("tpch6", "linreg")
    #: vanilla recomputes the whole 20 000-record window (linreg: 70 ms
    #: against a 20 ms release), so it runs on a sample of the releases.
    vanilla_every = 8

    def prepare(self, seed):
        size = INCR_WINDOW + self._depth(INCR_PAIRS) * INCR_DELTA
        return [
            (query, _generate(query.name, size, seed))
            for query in self.queries
        ]

    def round(self, data, make_session):
        lanes = []
        for query, generated in data:
            rows = generated[query.protected_table]
            tables = dict(generated)
            tables[query.protected_table] = [
                dict(row) for row in rows[:INCR_WINDOW]
            ]
            session = make_session()
            session.run(query, tables)
            lanes.append((query, tables, session, rows[INCR_WINDOW:]))
        for pair in range(self._depth(INCR_PAIRS)):
            for query, tables, session, reserve in lanes:
                start = pair * INCR_DELTA
                records = [
                    dict(row) for row in reserve[start:start + INCR_DELTA]
                ]
                yield _query_step(
                    session, query, tables,
                    release=partial(session.append, records),
                    group=f"{query.name}.append",
                )
            for query, tables, session, _reserve in lanes:
                yield _query_step(
                    session, query, tables,
                    release=partial(session.retire, INCR_DELTA),
                    group=f"{query.name}.retire",
                )


class Resubmit(Workload):
    name = "resubmit"
    why = ("tpch13 resubmitted on x and on x minus one record in one "
           "long-lived session: the enforcer registry grows and releases "
           "share a table, so per-table caching shows here only")

    # Left out on purpose (README, "Queries left out of resubmit"):
    # tpch21 and tpch4 dead-end with "exhausted sampled records" under
    # this traffic, and the removal loops of tpch16 and tpch11 run up
    # to 3x longer on some seeds' data than on others'.
    query_names = ("tpch13",)

    def prepare(self, seed):
        return _generate("tpch13", TPCH_SCALE, seed)

    def round(self, data, make_session):
        for query in self.queries:
            minus_one = dict(data)
            minus_one[query.protected_table] = data[query.protected_table][:-1]
            session = make_session()
            for submission in range(self._depth(RESUBMIT_DEPTH)):
                tables = data if submission % 2 == 0 else minus_one
                yield _query_step(
                    session, query, tables,
                    release=partial(session.run, query, tables),
                )


WORKLOADS = {
    cls.name: cls
    for cls in (ScanCold, MLCold, JoinCold, SQLAdhoc, IncrWindow, Resubmit)
}
