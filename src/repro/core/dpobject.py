"""The Spark-compatible operator API of the paper's Table I.

``dpread`` partitions + samples an RDD; :class:`DPObject` carries the
map/reduce state of the sampled records S and the remaining records S';
``reduce_dp`` returns both the query result and the outputs on the
sampled neighbouring datasets.  :class:`DPObjectKV` adds the key-value
operators ``reduce_by_key_dp`` and ``join_dp`` (section V-B/V-C),
including joinDP's two-round shuffle and differing-tuple index
tracking.

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
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar

from repro.common.errors import DPError
from repro.common.rng import make_rng
from repro.engine.rdd import RDD

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")
W = TypeVar("W")


def dpread(rdd: RDD, sample_size: int = 1000, seed: int = 0) -> "DPObject":
    """Partition an RDD's records into sampled S and remaining S'.

    Table I: ``dpread[T](RDD[T])``.
    """
    if sample_size <= 0:
        raise DPError(f"sample_size must be positive, got {sample_size}")
    indexed = rdd.zip_with_index()
    total = rdd.count()
    n = min(sample_size, total)
    rng = make_rng(seed, "dpread")
    chosen = frozenset(rng.sample(range(total), n))
    sampled = (
        indexed.filter(lambda pair: pair[1] in chosen).map(lambda pair: pair[0])
    )
    remaining = (
        indexed.filter(lambda pair: pair[1] not in chosen).map(lambda pair: pair[0])
    )
    return DPObject(sampled.collect(), remaining)


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
        reusing R(S'), section V-A), and the full result.
        """
        if not self.sampled:
            return ([], self.remaining.reduce(f))
        r_sprime: Optional[T] = None
        if not self.remaining.is_empty():
            r_sprime = self.remaining.reduce(f)

        def combine(acc: Optional[T], value: Optional[T]) -> Optional[T]:
            # f has no identity: None stands for an empty fold.
            if acc is None:
                return value
            if value is None:
                return acc
            return f(acc, value)

        # Prefix/suffix folds over S so each "S minus one record" costs
        # O(1): prefix[i] folds R(S') with s_0..s_{i-1} and suffix[i]
        # folds s_i..s_{n-1}, so S minus s_i is prefix[i] (+) suffix[i+1].
        sampled = self.sampled
        n = len(sampled)
        prefix: List[Optional[T]] = [r_sprime]
        for value in sampled:
            prefix.append(combine(prefix[-1], value))
        suffix: List[Optional[T]] = [None] * (n + 1)
        for i in range(n - 1, 0, -1):
            suffix[i] = combine(sampled[i], suffix[i + 1])
        neighbour_outputs: List[T] = []
        for i in range(n):
            output = combine(prefix[i], suffix[i + 1])
            if output is None:
                raise DPError("cannot reduce an empty neighbouring dataset")
            neighbour_outputs.append(output)
        return (neighbour_outputs, prefix[n])  # type: ignore[return-value]


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

        Reduces S' by key on the engine, keeps the reduced map R_S' and
        the sampled map S by key on the driver (the paper broadcasts
        both), then derives, for each sampled record s, the affected
        key's reduced value without s.  Returns
        ``(per-sample {key: value-without-s}, full reduced map)``;
        a value of None means the key vanishes without s.
        """
        reduced_remaining = dict(self.remaining.reduce_by_key(f).collect())

        sampled_by_key: Dict[K, List[V]] = {}
        for key, value in self.sampled:
            sampled_by_key.setdefault(key, []).append(value)

        def key_value_without(key: K, skip_index: int) -> Optional[V]:
            acc: Optional[V] = reduced_remaining.get(key)
            for i, value in enumerate(sampled_by_key.get(key, [])):
                if i == skip_index:
                    continue
                acc = value if acc is None else f(acc, value)
            return acc

        neighbour_maps: List[Dict[K, Optional[V]]] = []
        position_in_key: Dict[K, int] = {}
        for key, _value in self.sampled:
            idx = position_in_key.get(key, 0)
            position_in_key[key] = idx + 1
            neighbour_maps.append({key: key_value_without(key, idx)})

        full: Dict[K, V] = dict(reduced_remaining)
        for key, values in sampled_by_key.items():
            acc: Optional[V] = full.get(key)
            for value in values:
                acc = value if acc is None else f(acc, value)
            full[key] = acc  # type: ignore[assignment]
        return (neighbour_maps, full)

    def join_dp(self, other: "DPObjectKV") -> "JoinDPResult":
        """Table I ``joinDP`` (section V-C).

        Performs two rounds of join/shuffle: S'1 x S'2 on the engine
        (round one), then the differing combinations S1 x S'2, S'1 x S2
        and S1 x S2 (round two).  Differing tuples are indexed so the
        influence of each sampled record on the joined output is
        tracked exactly.
        """
        ctx = self.remaining.context
        # Round one: join of the remaining (overlapped) records.
        remaining_join = self.remaining.join(other.remaining)

        # Round two: joins involving sampled (differing) records.
        left_sampled = ctx.parallelize(
            [(k, (i, v)) for i, (k, v) in enumerate(self.sampled)], 1
        )
        right_sampled = ctx.parallelize(
            [(k, (j, w)) for j, (k, w) in enumerate(other.sampled)], 1
        )
        ls_rr = left_sampled.join(other.remaining).map(
            lambda kv: (kv[0], (kv[1][0][0], None, kv[1][0][1], kv[1][1]))
        )
        rr_rs = self.remaining.join(right_sampled).map(
            lambda kv: (kv[0], (None, kv[1][1][0], kv[1][0], kv[1][1][1]))
        )
        ls_rs = left_sampled.join(right_sampled).map(
            lambda kv: (
                kv[0],
                (kv[1][0][0], kv[1][1][0], kv[1][0][1], kv[1][1][1]),
            )
        )
        differing = ctx.union([ls_rr, rr_rs, ls_rs]).collect()
        return JoinDPResult(remaining_join, differing)


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
