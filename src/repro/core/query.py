"""The query abstraction UPA operates on.

The paper (section II-C) observes that MapReduce queries are built from
*commutative and associative* operators: a Mapper applied per record and
a Reducer that merges partial results in any grouping/order.  Formally
the reducer is a commutative monoid; this module captures exactly that:

    f(x) = finalize( fold(combine, zero, [map_record(r) for r in x]) )

Every workload in the reproduction (seven TPC-H queries, KMeans,
Linear Regression) implements :class:`MapReduceQuery`.  The decomposition
is what lets UPA reuse ``R(M(S'))`` across all sampled neighbouring
datasets — the core efficiency claim — and what lets the brute-force
baseline compute exact local sensitivity in O(N) via prefix/suffix
folds instead of O(N^2).

A query names a **protected table**: the table whose records the
adversary may add/remove (neighbouring datasets differ by one record of
this table).  Auxiliary tables are fixed; ``build_aux`` precomputes
whatever lookup structures the mapper needs from them.
"""

from __future__ import annotations

import copy
import functools
import random
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryShapeError
from repro.engine.columnar import ColumnarPartition

Row = Dict[str, Any]
Tables = Dict[str, List[Row]]

#: the batched-protocol methods a query may override with vectorized
#: kernels; ``overrides_batch_kernels`` keys off this tuple.
BATCH_METHODS = (
    "map_batch",
    "prefix_suffix_batch",
    "combine_batch",
    "finalize_batch",
    "fold_batch",
)


def overrides_batch_kernels(query_or_cls: Any) -> bool:
    """True when the class overrides any batched-protocol method.

    Used by ``validate_monoid`` to decide whether the batch kernels
    need a cross-check against the scalar monoid.
    """
    cls = query_or_cls if isinstance(query_or_cls, type) else type(query_or_cls)
    return any(
        getattr(cls, name) is not getattr(MapReduceQuery, name)
        for name in BATCH_METHODS
    )


def _same_bits(a: Any, b: Any) -> bool:
    """Exact equality of two monoid elements (numeric ones bit for bit)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind in "biuf" and b.dtype.kind in "biuf":
        a, b = a.astype(float), b.astype(float)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return bool(np.array_equal(a, b))


def leave_one_out(
    items: Sequence[Any], combine: Callable[[Any, Any], Any],
    zero: Any, base: Any,
) -> Tuple[List[Any], Any]:
    """For each item, the fold of ``base`` with every other item.

    ``prefix[i]`` folds ``base`` with ``items[:i]`` and ``suffix[i]``
    folds ``items[i:]`` onto ``zero``, so leaving item i out is
    ``prefix[i] (+) suffix[i + 1]``: 3n - 1 calls of ``combine`` in
    all, not the n(n - 1) of refolding each remainder.  Returns those n
    folds and ``prefix[n]``, the fold of ``base`` with every item.
    :meth:`MapReduceQuery.prefix_suffix_batch` folds from ``zero``; the
    Table I operators (:mod:`repro.core.dpobject`) fold from R(S').

    Example:
        >>> leave_one_out([1, 2, 3], lambda a, b: a + b, 0, 10)
        ([15, 14, 13], 16)
    """
    prefix = [base]
    for item in items:
        prefix.append(combine(prefix[-1], item))
    n = len(items)
    suffix: List[Any] = [None] * n + [zero]
    for i in range(n - 1, 0, -1):
        suffix[i] = combine(items[i], suffix[i + 1])
    return [combine(prefix[i], suffix[i + 1]) for i in range(n)], prefix[n]


class BatchSampler:
    """A domain sampler defined once, column-wise.

    Wraps ``columns(gen, context, n) -> {column: n values}``, where
    ``gen`` is a :class:`numpy.random.Generator` and ``context`` is
    whatever the sampler draws against (the tables, a dataset config).
    The wrapper is the plain per-record callable ``(rng, context) ->
    Row`` that ``domain_sampler=`` arguments take, and carries the
    batch form on the same object: ``batch(rng, context, n)`` seeds one
    generator with a single draw from the run's ``random.Random`` and
    returns the columns as a :class:`ColumnarPartition`, so a batch is
    a pure function of (rng state, context, n) and the one-row call is
    its ``n = 1`` case.  *Which* values a batch takes is not pinned
    across versions (DESIGN.md section 5, item 7).
    """

    def __init__(
        self,
        columns: Callable[[np.random.Generator, Any, int], Dict[str, Any]],
    ):
        self._columns = columns
        functools.update_wrapper(self, columns)

    def batch(self, rng: random.Random, context: Any,
              n: int) -> ColumnarPartition:
        gen = np.random.default_rng(rng.getrandbits(64))
        return ColumnarPartition(self._columns(gen, context, n), length=n)

    def __call__(self, rng: random.Random, context: Any) -> Row:
        return self.batch(rng, context, 1).row(0)


def sample_batch(sampler: Callable[[random.Random, Any], Row],
                 rng: random.Random, context: Any, n: int) -> Sequence[Row]:
    """``n`` draws of a per-record sampler: its batch form if it has one."""
    if isinstance(sampler, BatchSampler):
        return sampler.batch(rng, context, n)
    return [sampler(rng, context) for _ in range(n)]


class MapReduceQuery:
    """A query decomposed into Mapper + commutative/associative Reducer.

    Subclasses must set :attr:`name`, :attr:`protected_table` and
    :attr:`output_dim`, and implement the monoid methods.  The monoid
    element type is subclass-defined (numbers, tuples, numpy arrays...)
    but must never be mutated in place by :meth:`combine` unless the
    left argument is owned by the caller chain (UPA reuses elements).
    """

    #: human-readable query id, e.g. "tpch1".
    name: str = ""
    #: table whose records are protected (neighbours differ here).
    protected_table: str = ""
    #: dimension of the finalized output vector.
    output_dim: int = 1

    # ------------------------------------------------------------------
    # Monoid interface
    # ------------------------------------------------------------------

    def build_aux(self, tables: Tables) -> Any:
        """Precompute lookup structures from the non-protected tables.

        A session keeps the result per the public tables it read.  An
        aux that reads the protected table is rebuilt, and every record
        mapped again, on each release; the query's semantics must stay
        linear in that table (document any such use).
        """
        return None

    def map_record(self, record: Row, aux: Any) -> Any:
        """Mapper: one protected record -> monoid element."""
        raise NotImplementedError

    def zero(self) -> Any:
        """Monoid identity."""
        raise NotImplementedError

    def combine(self, a: Any, b: Any) -> Any:
        """Monoid operation; must be commutative and associative."""
        raise NotImplementedError

    def finalize(self, agg: Any, aux: Any) -> np.ndarray:
        """Turn the folded aggregate into the query's output vector."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batched monoid protocol
    # ------------------------------------------------------------------
    #
    # The session's union-preserving reduce evaluates ~2n sampled
    # neighbouring datasets per run; one Python-level combine+finalize
    # per neighbour makes interpreter dispatch the dominant cost.  The
    # batched protocol lets a query process *all* neighbours with a
    # handful of array operations instead.
    #
    # A **batch** is an opaque, ordered collection of monoid elements
    # (or aggregates — same representation).  The canonical layouts are:
    #
    # * a plain list of scalar elements (the generic default);
    # * a stacked ndarray with the batch on axis 0 (scalar-sum queries:
    #   shape ``(n,)``);
    # * a tuple of stacked ndarrays, one per slot of a tuple element
    #   (KMeans: ``(counts (n, k), sums (n, k, dim))``).
    #
    # The structural helpers (batch_length/batch_select/batch_concat/
    # iter_batch/batch_stack) understand all three layouts, so a
    # subclass normally overrides only the kernels in ``BATCH_METHODS``.
    # Every default below loops over the scalar methods, so existing
    # queries keep working unchanged; overridden kernels must return
    # values ``allclose`` to the scalar path, and ``map_batch`` must be
    # **row-stable** — element i depends on record i alone, bit for
    # bit, because the session maps one record under several batch
    # boundaries (engine slices, the incremental window, S) and
    # releases must not depend on which (guarded by
    # ``validate_monoid``).

    def map_batch(self, records: Sequence[Row], aux: Any) -> Any:
        """Mapper over a record sequence -> batch of monoid elements."""
        return [self.map_record(record, aux) for record in records]

    def prefix_suffix_batch(self, elements: Any) -> Any:
        """Leave-one-out aggregates via prefix/suffix folds.

        Returns a batch of n aggregates where the i-th aggregate folds
        every element except the i-th — the reduce-side core of both
        removal-neighbour evaluation and brute-force sensitivity.
        """
        folds, _total = leave_one_out(
            list(self.iter_batch(elements)), self.combine,
            self.zero(), self.zero(),
        )
        return self.batch_stack(folds)

    def combine_batch(self, agg: Any, elements: Any) -> Any:
        """Broadcasted combine: ``agg (+) e`` for every batch element."""
        return self.batch_stack(
            [self.combine(agg, element) for element in self.iter_batch(elements)]
        )

    def finalize_batch(self, aggs: Any, aux: Any) -> np.ndarray:
        """Finalize a batch of aggregates into a (k, output_dim) array."""
        rows = [self.finalize(agg, aux) for agg in self.iter_batch(aggs)]
        if not rows:
            return np.empty((0, self.output_dim))
        return np.vstack(rows)

    def fold_batch(self, elements: Any) -> Any:
        """Fold a whole batch into one aggregate."""
        return self.fold(self.iter_batch(elements))

    # -- structural batch helpers (layout-aware, rarely overridden) ----

    def batch_length(self, elements: Any) -> int:
        """Number of elements in a batch."""
        if isinstance(elements, tuple):
            return len(elements[0]) if elements else 0
        return len(elements)

    def batch_select(self, elements: Any, indices: Sequence[int]) -> Any:
        """Sub-batch at ``indices`` (order preserved, same layout)."""
        if isinstance(elements, tuple):
            return tuple(self._select_part(part, indices) for part in elements)
        return self._select_part(elements, indices)

    @staticmethod
    def _select_part(part: Any, indices: Sequence[int]) -> Any:
        if isinstance(indices, range) and indices.step == 1 \
                and indices.start >= 0:
            # A contiguous run is a slice (of an ndarray: a view).
            return part[indices.start:indices.stop]
        if isinstance(part, np.ndarray):
            return part[np.asarray(indices, dtype=int)]
        if isinstance(indices, np.ndarray):
            indices = indices.tolist()
        return [part[i] for i in indices]

    def batch_concat(self, batches: Sequence[Any]) -> Any:
        """One batch holding the elements of ``batches``, in order.

        Inverse of slicing with :meth:`batch_select`; the batches (at
        least one, zero-length ones allowed) share a layout.
        """
        if len(batches) == 1:
            return batches[0]
        if isinstance(batches[0], tuple):
            return tuple(
                self._concat_parts([batch[j] for batch in batches])
                for j in range(len(batches[0]))
            )
        return self._concat_parts(batches)

    @staticmethod
    def _concat_parts(parts: Sequence[Any]) -> Any:
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return [element for part in parts for element in part]

    def iter_batch(self, elements: Any) -> Iterable[Any]:
        """Yield the scalar monoid elements of a batch, in order."""
        if isinstance(elements, tuple):
            n = self.batch_length(elements)
            return (tuple(part[i] for part in elements) for i in range(n))
        return iter(elements)

    def batch_stack(self, aggs: List[Any]) -> Any:
        """Stack driver-side elements/aggregates into a batch.

        Inverse of :meth:`iter_batch` for the canonical layouts; exotic
        element types fall back to a plain list (a query overriding the
        vectorized kernels for such a type should override this too).
        """
        if not aggs:
            return aggs
        first = aggs[0]
        if isinstance(first, tuple):
            return tuple(
                np.stack([np.asarray(agg[j], dtype=float) for agg in aggs])
                for j in range(len(first))
            )
        if isinstance(first, np.ndarray) or np.isscalar(first):
            return np.stack([np.asarray(agg, dtype=float) for agg in aggs])
        return list(aggs)

    # ------------------------------------------------------------------
    # Neighbour-record sampling ("records in D but not in x")
    # ------------------------------------------------------------------

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        """A plausible new record of the protected table (for +1 neighbours)."""
        raise NotImplementedError

    def sample_domain_batch(self, rng: random.Random, tables: Tables,
                            n: int) -> Sequence[Row]:
        """The ``n`` domain records of one release (S-bar), as a row batch.

        Called once per release.  Any row batch ``map_batch`` accepts
        will do; queries over a :class:`BatchSampler` return its
        columns, everything else gets one ``sample_domain_record`` call
        per record.
        """
        return sample_batch(self.sample_domain_record, rng, tables, n)

    # ------------------------------------------------------------------
    # Driver-side helpers (used by baselines and tests)
    # ------------------------------------------------------------------

    def fold(self, elements: Iterable[Any]) -> Any:
        acc = self.zero()
        for element in elements:
            acc = self.combine(acc, element)
        return acc

    def output(self, tables: Tables) -> np.ndarray:
        """Evaluate f(x) entirely on the driver (reference semantics)."""
        aux = self.build_aux(tables)
        agg = self.fold(
            self.map_record(r, aux) for r in tables[self.protected_table]
        )
        return self.finalize(agg, aux)

    def validate_monoid(self, tables: Tables, sample: int = 16,
                        seed: int = 0) -> None:
        """Check, by running them, what a release assumes of the methods.

        Used by tests and by UPASession in strict mode.  On a sample of
        the protected records: the scalar monoid is implemented (the
        batch kernels are checked against it); a record mapped twice
        gives the same element, bit for bit, since the reduce reuses one
        element across neighbours and releases; ``combine`` leaves its
        right argument as it was; and folds in shuffled orders and
        groupings agree.  Overridden batch kernels are then checked
        against the scalar path.  Raises QueryShapeError.
        """
        for method in ("map_record", "zero", "combine", "finalize"):
            if getattr(type(self), method) is getattr(MapReduceQuery, method):
                raise QueryShapeError(
                    f"query {self.name!r}: {method} is not implemented "
                    "(the batch kernels are checked against it)"
                )
        aux = self.build_aux(tables)
        records = tables[self.protected_table]
        rng = random.Random(seed)
        chosen = records if len(records) <= sample else rng.sample(records, sample)
        elements = [self.map_record(r, aux) for r in chosen]
        again = [self.map_record(r, aux) for r in chosen]
        if not all(map(_same_bits, elements, again)):
            raise QueryShapeError(
                f"query {self.name!r}: map_record is not deterministic "
                "(a record mapped twice gave two elements)"
            )
        acc = self.zero()
        for element in elements:
            kept = copy.deepcopy(element)
            acc = self.combine(acc, element)
            if not _same_bits(element, kept):
                raise QueryShapeError(
                    f"query {self.name!r}: combine wrote into its right "
                    "argument, a mapped element the reduce reuses"
                )
        baseline = self.finalize(acc, aux)
        shuffled = list(elements)
        rng.shuffle(shuffled)
        commuted = self.finalize(self.fold(shuffled), aux)
        if not np.allclose(baseline, commuted):
            raise QueryShapeError(
                f"query {self.name!r}: reducer is not commutative"
            )
        if len(elements) >= 2:
            split = rng.randrange(1, len(elements))
            left = self.fold(elements[:split])
            right = self.fold(elements[split:])
            associated = self.finalize(self.combine(left, right), aux)
            if not np.allclose(baseline, associated):
                raise QueryShapeError(
                    f"query {self.name!r}: reducer is not associative"
                )
        if overrides_batch_kernels(self):
            self._validate_batch_kernels(chosen, aux)

    def _same_batch(self, a: Any, b: Any) -> bool:
        """Two batches hold the same elements, bit for bit."""
        return self.batch_length(a) == self.batch_length(b) and all(
            map(_same_bits, self.iter_batch(a), self.iter_batch(b))
        )

    def _require_unwritten(self, batch: Any, kept: Any, kernel: str) -> None:
        if not self._same_batch(batch, kept):
            raise QueryShapeError(
                f"query {self.name!r}: {kernel} wrote into the batch it "
                "was given, a mapped batch the reduce reuses"
            )

    def _validate_batch_kernels(self, records: List[Row], aux: Any) -> None:
        """Cross-check overridden batch kernels against the scalar path.

        The scalar reference is the base-class default implementation
        (which loops over map_record/combine/finalize), so a subclass
        kernel that diverges from its own scalar monoid is caught here
        even when both are internally consistent.  ``map_batch`` must
        give the same batch when run twice, and be row-stable: each
        element equals, bit for bit, the one its record maps to in a
        batch of its own.  ``fold_batch``, ``prefix_suffix_batch`` and
        ``combine_batch`` must leave the batch they are given as it was,
        because the session hands them one mapped batch after another.
        """
        base = MapReduceQuery
        batch = self.map_batch(records, aux)
        ref_batch = base.map_batch(self, records, aux)
        n = self.batch_length(batch)
        if n != len(ref_batch):
            raise QueryShapeError(
                f"query {self.name!r}: map_batch returned {n} elements "
                f"for {len(ref_batch)} records"
            )
        if not self._same_batch(batch, self.map_batch(records, aux)):
            raise QueryShapeError(
                f"query {self.name!r}: map_batch is not deterministic "
                "(a batch mapped twice gave two batches)"
            )
        for record, element in zip(records, self.iter_batch(batch)):
            (alone,) = self.iter_batch(self.map_batch([record], aux))
            if not _same_bits(element, alone):
                raise QueryShapeError(
                    f"query {self.name!r}: map_batch is not row-stable "
                    "(an element depends on the records mapped with it)"
                )
        kept = copy.deepcopy(batch)
        folded = self.fold_batch(batch)
        self._require_unwritten(batch, kept, "fold_batch")
        leave_one_out = self.prefix_suffix_batch(batch)
        self._require_unwritten(batch, kept, "prefix_suffix_batch")
        # A non-zero aggregate: ``elements += 0.0`` would hide a write.
        self.combine_batch(folded, batch)
        self._require_unwritten(batch, kept, "combine_batch")
        total = self.finalize(folded, aux)
        ref_total = self.finalize(base.fold_batch(self, ref_batch), aux)
        if not np.allclose(total, ref_total):
            raise QueryShapeError(
                f"query {self.name!r}: map_batch/fold_batch disagree "
                "with the scalar map_record/fold path"
            )
        loo = self.finalize_batch(
            self.combine_batch(self.zero(), leave_one_out), aux,
        )
        ref_loo = base.finalize_batch(
            self,
            base.combine_batch(
                self, self.zero(), base.prefix_suffix_batch(self, ref_batch)
            ),
            aux,
        )
        if loo.shape != ref_loo.shape or not np.allclose(loo, ref_loo):
            raise QueryShapeError(
                f"query {self.name!r}: batched neighbour kernels "
                "(prefix_suffix_batch/combine_batch/finalize_batch) "
                "disagree with the scalar prefix/suffix fold path"
            )

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} name={self.name!r} "
            f"protected={self.protected_table!r} dim={self.output_dim}>"
        )
