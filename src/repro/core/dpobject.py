"""The Spark-compatible operator API of the paper's Table I.

``dpread`` partitions + samples an RDD; :class:`DPObject` carries the
map/reduce state of the sampled records S and the remaining records S';
``reduce_dp`` returns both the query result and the outputs on the
sampled neighbouring datasets.  :class:`DPObjectKV` adds the key-value
operators ``reduce_by_key_dp`` and ``join_dp`` (section V-B/V-C),
including joinDP's two join rounds and differing-tuple index tracking.

The operators run on what a release runs: S is drawn by
:func:`repro.core.sampling.sorted_sample`, S' is folded with the
engine's ``aggregate`` (per key in each partition, merged on the
driver, for ``reduceByKeyDP``), every leave-one-out value comes from
:func:`repro.core.query.leave_one_out`, and joinDP's rounds are hash
joins whose build side is indexed on the driver, as SQL's join is.

This is the low-level surface a Spark program would port to; the
high-level :class:`repro.core.session.UPASession` wraps the same logic
behind a single call and adds inference/enforcement/noise.

Example:
    >>> from repro.engine import EngineContext
    >>> ctx = EngineContext()
    >>> dpo = dpread(ctx.parallelize(range(100)), sample_size=10, seed=1)
    >>> neighbours, total = dpo.map_dp(lambda v: 1).reduce_dp(lambda a, b: a + b)
    >>> total
    100
    >>> sorted(set(neighbours))
    [99]
    >>> pairs = ctx.parallelize([("a", 1), ("b", 2), ("a", 3)])
    >>> dpread(pairs, 3, seed=0).as_kv().reduce_by_key_dp(lambda a, b: a + b)
    ([{'a': 3}, {'b': None}, {'a': 1}], {'a': 4, 'b': 2})
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.common.errors import DPError
from repro.common.rng import make_rng
from repro.core.query import leave_one_out
from repro.core.sampling import sorted_sample
from repro.engine.rdd import RDD

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")
W = TypeVar("W")


def dpread(rdd: RDD, sample_size: int = 1000, seed: int = 0) -> "DPObject":
    """Partition an RDD's records into sampled S and remaining S'.

    Table I: ``dpread[T](RDD[T])``.  S is drawn as phase 1 draws it
    and S' is split off on the driver, over as many partitions as
    ``rdd`` has.
    """
    if sample_size <= 0:
        raise DPError(f"sample_size must be positive, got {sample_size}")
    records = rdd.collect()
    picks = sorted_sample(
        make_rng(seed, "dpread"), len(records), min(sample_size, len(records))
    )
    unsampled = np.ones(len(records), dtype=bool)
    unsampled[picks] = False
    remaining = [records[i] for i in np.flatnonzero(unsampled)]
    return DPObject(
        [records[i] for i in picks],
        rdd.context.parallelize(remaining, rdd.num_partitions),
    )


def _or_none(
    f: Callable[[T, T], T],
) -> Callable[[Optional[T], Optional[T]], Optional[T]]:
    """``f`` over values that may be None, which stands for an empty fold
    (a Table I reducer has no identity)."""

    def combine(acc: Optional[T], value: Optional[T]) -> Optional[T]:
        if acc is None:
            return value
        if value is None:
            return acc
        return f(acc, value)

    return combine


class DPObject(Generic[T]):
    """Carries S (driver-side list, |S| = n) and S' (an RDD).

    Table I: ``dpobject[T](RDD[T], RDD[T])``.
    """

    def __init__(self, sampled: List[T], remaining: RDD):
        self.sampled = sampled
        self.remaining = remaining

    def map_dp(self, f: Callable[[T], U]) -> "DPObject":
        """Map S and S' (Table I ``mapDP``)."""
        return DPObject([f(s) for s in self.sampled], self.remaining.map(f))

    def as_kv(self) -> "DPObjectKV":
        """Reinterpret records as (key, value) pairs."""
        return DPObjectKV(self.sampled, self.remaining)

    def reduce_dp(self, f: Callable[[T, T], T]) -> Tuple[List[T], T]:
        """Reduce S and S' (Table I ``reduceDP``).

        Returns ``(neighbour_outputs, result)``: the reduced value of
        the whole dataset with each sampled record excluded (computed by
        reusing R(S'), section V-A), and the full result.  ``f`` runs at
        most 3n + |S'| times.
        """
        combine = _or_none(f)
        r_sprime = self.remaining.aggregate(None, combine, combine)
        neighbours, result = leave_one_out(
            self.sampled, combine, None, r_sprime
        )
        if result is None:
            raise DPError("cannot reduce an empty dataset")
        if any(output is None for output in neighbours):
            raise DPError("cannot reduce an empty neighbouring dataset")
        return (neighbours, result)


class DPObjectKV(DPObject[Tuple[K, V]]):
    """Key-value flavour (Table I ``dpobjectKV``)."""

    def map_dp_kv(
        self, f: Callable[[Tuple[K, V]], Tuple[K, W]]
    ) -> "DPObjectKV":
        """Table I ``mapDPKV``."""
        return DPObjectKV([f(s) for s in self.sampled], self.remaining.map(f))

    def reduce_by_key_dp(
        self, f: Callable[[V, V], V]
    ) -> Tuple[List[Dict[K, Optional[V]]], Dict[K, V]]:
        """Table I ``reduceByKeyDP`` (section V-B).

        Each partition of S' folds its pairs by key and the driver
        merges the partial maps into R_S'; the sampled values of each
        key are then folded onto R_S'(key) once, which gives the key's
        full value and its value without each of its sampled records.
        Returns ``(per-sample {key: value-without-s}, full reduced
        map)``; a value of None means the key vanishes without s.
        ``f`` runs at most 3n + |S'| times.
        """
        combine = _or_none(f)

        def fold(acc: Dict[K, V], pair: Tuple[K, V]) -> Dict[K, V]:
            key, value = pair
            acc[key] = combine(acc.get(key), value)
            return acc

        def merge(acc: Dict[K, V], part: Dict[K, V]) -> Dict[K, V]:
            for pair in part.items():
                fold(acc, pair)
            return acc

        full: Dict[K, V] = self.remaining.aggregate({}, fold, merge)
        sampled_by_key = _index(self.sampled)
        without: Dict[K, Iterator[Optional[V]]] = {}
        for key, values in sampled_by_key.items():
            folds, full[key] = leave_one_out(
                values, combine, None, full.get(key)
            )
            without[key] = iter(folds)
        neighbour_maps = [{key: next(without[key])} for key, _ in self.sampled]
        return (neighbour_maps, full)

    def join_dp(self, other: "DPObjectKV") -> "JoinDPResult":
        """Table I ``joinDP`` (section V-C).

        Two rounds of hash joins, each build side indexed on the
        driver.  Round one joins the remaining (overlapped) records,
        S'1 probing S'2's index, as a lazy RDD.  Round two computes the
        differing combinations: S1 probes S'2's index, S'1 probes S2's
        index on the engine, and S1 x S2 pairs up on the driver.
        Differing tuples carry the index of each sampled record in
        them, so the influence of each sampled record on the joined
        output is tracked exactly.
        """
        right_remaining = _index(other.remaining.collect())
        remaining_join = self.remaining.map_partitions(
            lambda pairs: _probe(pairs, right_remaining)
        )

        right_sampled = _index(
            (key, (j, w)) for j, (key, w) in enumerate(other.sampled)
        )
        differing = [
            (key, (i, None, v, w))
            for i, (key, v) in enumerate(self.sampled)
            for w in right_remaining.get(key, ())
        ]
        differing.extend(
            (key, (None, j, v, w))
            for key, (v, (j, w)) in self.remaining.map_partitions(
                lambda pairs: _probe(pairs, right_sampled)
            ).collect()
        )
        differing.extend(
            (key, (i, j, v, w))
            for i, (key, v) in enumerate(self.sampled)
            for j, w in right_sampled.get(key, ())
        )
        return JoinDPResult(remaining_join, differing)


def _index(pairs: Iterable[Tuple[K, V]]) -> Dict[K, List[V]]:
    """A join's build side: each key's values, in order."""
    index: Dict[K, List[V]] = {}
    for key, value in pairs:
        index.setdefault(key, []).append(value)
    return index


def _probe(
    pairs: Iterable[Tuple[K, V]], index: Dict[K, List[W]]
) -> Iterator[Tuple[K, Tuple[V, W]]]:
    """``(key, (v, w))`` for every pair and every matching build value."""
    return (
        (key, (v, w)) for key, v in pairs for w in index.get(key, ())
    )


class JoinDPResult:
    """Output of joinDP: overlapped join RDD + indexed differing tuples.

    ``differing`` entries are ``(key, (left_index, right_index, v, w))``
    where an index is None when that side's tuple is an overlapped
    (non-sampled) record.
    """

    def __init__(self, remaining_join: RDD, differing: List):
        self.remaining_join = remaining_join
        self.differing = differing

    def influence_of_left(self, index: int) -> List:
        """Joined tuples that vanish if left sampled record ``index`` is removed."""
        return [d for d in self.differing if d[1][0] == index]

    def influence_of_right(self, index: int) -> List:
        """Joined tuples that vanish if right sampled record ``index`` is removed."""
        return [d for d in self.differing if d[1][1] == index]

    def count(self) -> int:
        """Total joined tuples (overlapped + differing)."""
        return self.remaining_join.count() + len(self.differing)
