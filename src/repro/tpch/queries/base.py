"""Shared machinery for the TPC-H query implementations."""

from __future__ import annotations

import datetime
import random
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.core.batch import ScalarSumBatch
from repro.core.query import BatchSampler, MapReduceQuery, Row, Tables
from repro.tpch.datagen import NATION_NAMES, PRIORITIES, SHIPMODES


class TPCHQuery(ScalarSumBatch, MapReduceQuery):
    """A TPC-H query: a MapReduceQuery and its SQL text.

    All seven queries share the scalar-sum monoid, so the vectorized
    batch kernels come from :class:`~repro.core.batch.ScalarSumBatch`;
    the seven workload queries override ``map_batch`` with a columnar
    mapper (the join queries look their aux up in one C-level pass per
    batch).

    Attributes:
        query_type: 'count' or 'arithmetic' (Table II).
        flex_supported: whether FLEX's static analysis applies
            (count-type queries only).
        domain_sampler: the protected table's sampler (one of the
            ``random_*`` below), for the "+1 record" neighbours.
    """

    query_type: str = "count"
    flex_supported: bool = True
    output_dim = 1
    domain_sampler: BatchSampler

    def sql_text(self) -> str:
        """The query as SQL text for :meth:`repro.sql.SQLSession.sql`."""
        raise NotImplementedError

    # Count/sum queries share the scalar-sum monoid.

    def zero(self) -> float:
        return 0.0

    def combine(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, agg: float, aux: Any) -> np.ndarray:
        return np.asarray([float(agg)], dtype=float)

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        return self.domain_sampler(rng, tables)

    def sample_domain_batch(self, rng: random.Random, tables: Tables,
                            n: int) -> Sequence[Row]:
        return self.domain_sampler.batch(rng, tables, n)


def each(fn: Callable[..., Any], values: np.ndarray, *args: Any,
         dtype: Any = bool) -> np.ndarray:
    """``fn(value, *args)`` of every value: one C-level pass."""
    return np.fromiter(
        map(fn, values.tolist(), *map(repeat, args)), dtype=dtype,
        count=len(values),
    )


def lookup_counts(counts: Dict[Any, int], keys: np.ndarray) -> np.ndarray:
    """``float(counts.get(key, 0))`` of every key."""
    return each(counts.get, keys, 0, dtype=float)


# Domain samplers: n plausible new rows of one table, column by column.
# Integer and float columns are numpy arrays, the rest plain lists, so
# a batch boxes into rows with the table's own value types.


def max_key(rows: List[Row], column: str, default: int = 0) -> int:
    """Largest value of an integer key column (``default`` if no rows)."""
    return max(map(itemgetter(column), rows), default=default)


def _existing_keys(gen: np.random.Generator, tables: Tables, table: str,
                   column: str, default: int, n: int) -> np.ndarray:
    """Keys uniform on 1..max of ``table.column`` (1..default if absent)."""
    return 1 + gen.integers(
        max_key(tables.get(table, []), column, default), size=n
    )


def _fresh_keys(gen: np.random.Generator, rows: List[Row], column: str,
                n: int) -> np.ndarray:
    """Keys above every key in ``rows``, so nothing references them."""
    return max_key(rows, column) + 1 + gen.integers(1000, size=n)


def _choices(gen: np.random.Generator, options: Sequence[Any],
             n: int) -> List[Any]:
    return [options[i] for i in gen.integers(len(options), size=n).tolist()]


#: the proleptic ordinal of day 0 of ``datetime64[D]``.
_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _dates(ordinals: np.ndarray) -> List[datetime.date]:
    """``datetime.date.fromordinal`` of every ordinal, boxed in C by
    ``datetime64[D].tolist()`` (a third of the per-date call's cost)."""
    return (ordinals - _EPOCH_ORDINAL).astype("datetime64[D]").tolist()


@BatchSampler
def random_lineitem(gen: np.random.Generator, tables: Tables,
                    n: int) -> Dict[str, Any]:
    """Plausible new lineitem rows (each attached to an existing order)."""
    orders = tables["orders"] or [{"o_orderkey": 1}]
    picked = [orders[i] for i in gen.integers(len(orders), size=n).tolist()]
    # dict.get over repeat()ed arguments: no per-row frame, and no
    # per-call argument packing (a methodcaller reads slower than the
    # generator it would replace).
    dates = map(
        dict.get, picked, repeat("o_orderdate"),
        repeat(datetime.date(1995, 6, 1)),
    )
    base = np.fromiter(
        map(datetime.date.toordinal, dates), dtype=np.int64, count=n
    )
    ship = base + gen.integers(1, 121, size=n)
    quantity = gen.integers(1, 51, size=n).astype(float)
    return {
        "l_orderkey": np.fromiter(
            map(itemgetter("o_orderkey"), picked), dtype=np.int64, count=n
        ),
        "l_linenumber": np.full(n, 999),
        "l_partkey": _existing_keys(gen, tables, "part", "p_partkey", 100, n),
        "l_suppkey": _existing_keys(
            gen, tables, "supplier", "s_suppkey", 20, n
        ),
        "l_quantity": quantity,
        "l_extendedprice": np.round(
            quantity * gen.uniform(900.0, 1100.0, size=n), 2
        ),
        "l_discount": gen.integers(0, 11, size=n) / 100.0,
        "l_tax": gen.integers(0, 9, size=n) / 100.0,
        "l_returnflag": _choices(gen, ["A", "N", "R"], n),
        "l_linestatus": _choices(gen, ["F", "O"], n),
        "l_shipdate": _dates(ship),
        "l_commitdate": _dates(base + gen.integers(60, 151, size=n)),
        "l_receiptdate": _dates(ship + gen.integers(1, 31, size=n)),
        "l_shipmode": _choices(gen, SHIPMODES, n),
    }


@BatchSampler
def random_order(gen: np.random.Generator, tables: Tables,
                 n: int) -> Dict[str, Any]:
    """New orders with fresh orderkeys (so they have no lineitems)."""
    start = datetime.date(1992, 1, 1).toordinal()
    return {
        "o_orderkey": _fresh_keys(gen, tables["orders"], "o_orderkey", n),
        "o_custkey": _existing_keys(
            gen, tables, "customer", "c_custkey", 100, n
        ),
        "o_orderstatus": _choices(gen, ["F", "F", "O", "P"], n),
        "o_orderdate": _dates(start + gen.integers(2557, size=n)),
        "o_orderpriority": _choices(gen, PRIORITIES, n),
        "o_comment": np.where(
            gen.random(n) < 0.15,
            "was told to expedite the special packages and requests",
            "ordinary pending packages sleep furiously",
        ).tolist(),
    }


@BatchSampler
def random_customer(gen: np.random.Generator, tables: Tables,
                    n: int) -> Dict[str, Any]:
    """New customers with fresh custkeys (so they have no orders)."""
    keys = _fresh_keys(gen, tables["customer"], "c_custkey", n)
    return {
        "c_custkey": keys,
        "c_name": [f"Customer#{key:09d}" for key in keys.tolist()],
        "c_nationkey": gen.integers(len(NATION_NAMES), size=n),
        "c_mktsegment": ["BUILDING"] * n,
    }


@BatchSampler
def random_part(gen: np.random.Generator, tables: Tables,
                n: int) -> Dict[str, Any]:
    """New parts with fresh partkeys (so they have no partsupp rows)."""
    keys = _fresh_keys(gen, tables["part"], "p_partkey", n)
    return {
        "p_partkey": keys,
        "p_name": [f"part {key}" for key in keys.tolist()],
        "p_brand": [
            f"Brand#{a}{b}"
            for a, b in gen.integers(1, 6, size=(n, 2)).tolist()
        ],
        "p_type": ["STANDARD ANODIZED TIN"] * n,
        "p_size": gen.integers(1, 51, size=n),
    }


@BatchSampler
def random_partsupp(gen: np.random.Generator, tables: Tables,
                    n: int) -> Dict[str, Any]:
    """New partsupp rows over existing part/supplier keys."""
    return {
        "ps_partkey": _existing_keys(gen, tables, "part", "p_partkey", 100, n),
        "ps_suppkey": _existing_keys(
            gen, tables, "supplier", "s_suppkey", 20, n
        ),
        "ps_availqty": gen.integers(1, 10_000, size=n),
        "ps_supplycost": np.round(gen.uniform(1.0, 1000.0, size=n), 2),
    }


@BatchSampler
def random_supplier(gen: np.random.Generator, tables: Tables,
                    n: int) -> Dict[str, Any]:
    """New suppliers with fresh suppkeys (so they have no lineitems)."""
    keys = _fresh_keys(gen, tables["supplier"], "s_suppkey", n)
    return {
        "s_suppkey": keys,
        "s_name": [f"Supplier#{key:09d}" for key in keys.tolist()],
        "s_nationkey": gen.integers(len(NATION_NAMES), size=n),
        "s_acctbal": np.round(gen.uniform(-999.99, 9999.99, size=n), 2),
        "s_comment": np.where(
            gen.random(n) < 0.05,
            "slow delivery: Customer unhappy Complaints pending",
            "dependable deliveries, quiet accounts",
        ).tolist(),
    }
