"""Digests of everything a release computes, to compare two source trees.

A change that claims "released values unchanged", or that a move is
confined to some fields, runs this once per tree and compares::

    PYTHONPATH=/path/to/parent/src python benchmarks/release_digests.py > a.json
    PYTHONPATH=src python benchmarks/release_digests.py --against a.json

For each of the nine workloads (scale 4000, data seed 11, session seed
77, n = 200 — the golden seeds) and ``engine_partitions`` 1, 2 and 3 it
runs one session through a cold ``run``, two ``append``s and a
``retire`` (108 releases) and hashes, **one digest per field**, what
phase 1 drew (``sampled_indices``, ``partition_ids``) and what the
release computed (the names in ``RESULT_FIELDS``, the last three of
them RANGE ENFORCER's decisions).  The ``resubmit`` lane submits
``tpch13`` and ``tpch16`` 40 times each to one session, alternately on
x and on x minus its last record (80 releases): the first two of each
are released, and the other 76 are identical resubmissions that replay
them.  The ``sql`` lane sends SQL *text*
through the same four steps, the cold one a ``run_sql``: the four
queries of ``examples/ad_hoc_sql.py`` and the ``sql_text()`` of every
workload the bridge accepts (the seven TPC-H ones) — 132 releases whose
every value went through ``core.sqlbridge``'s compiled plan.  The
``shared`` lane is a pair of sessions per workload and
``engine_partitions``: ``hit`` is handed the same list objects on every
submission (x, x minus its last record, x again, two ``append``s, a
``retire``), so it releases from its registered tables and kept aux
(``core.table``); ``miss`` gets a record-by-record copy of the
protected table and new public lists each time, so it registers every
protected list afresh (324 releases; "x again" replays "x" in both).
Its ``cross`` pairs hand one tables dict to ``tpch13`` (protects
``customer``, counts ``orders``) and ``tpch4`` (protects ``orders``) in
turn, so ``append`` / ``retire`` under one query move a list the
other's kept aux was built from (42 releases; the second ``tpch4`` run
replays the ``append`` before it).  The two must agree release by
release — checked on every invocation, exit 1 if not.

686 releases in all, 136 of them replays.  A replay is a release that
drew no sample: it carries the sample digests of the release whose
result it returned, and its result digests must equal that release's
— also checked on every invocation, exit 1 if not.  A release RANGE
ENFORCER refuses has ``"DPError"`` for every result field (phase 1 ran,
so its two fields are still digested).
``--against`` names the releases that differ and their fields, counts
the identical releases per field, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import repro.core.session as session_mod
from repro.common.errors import DPError, QueryShapeError
from repro.core import UPAConfig, UPASession
from repro.core.sqlbridge import compile_sql
from repro.workloads import all_workloads, workload_by_name

SCALE, DATA_SEED, SESSION_SEED, SAMPLE_SIZE = 4000, 11, 77, 200
RESUBMIT_WORKLOADS, RESUBMIT_DEPTH = ("tpch13", "tpch16"), 40

SAMPLE_FIELDS = ("sampled_indices", "partition_ids")
ENFORCEMENT_FIELDS = ("matched_prior", "records_removed", "clamped")
RESULT_FIELDS = (
    "plain_output", "removal_outputs", "partition_outputs",
    "addition_outputs", "inferred_range", "local_sensitivity",
    "estimated_local_sensitivity", "raw_output", "noisy_output",
) + ENFORCEMENT_FIELDS


def _digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return h.hexdigest()[:16]


def digest(sample, result) -> dict:
    """Field -> digest of one release (``result`` None: it was refused)."""
    out = {name: _digest(getattr(sample, name)) for name in SAMPLE_FIELDS}
    out.update(result_digest(result))
    return out


def result_digest(result) -> dict:
    """The ``RESULT_FIELDS`` part of :func:`digest`."""
    out = {}
    for name in RESULT_FIELDS:
        if result is None:
            out[name] = "DPError"
            continue
        value = getattr(
            result.enforcement if name in ENFORCEMENT_FIELDS else result, name
        )
        if name == "inferred_range":
            value = (value.lower, value.upper, value.mean, value.std)
        out[name] = _digest(*(value if isinstance(value, tuple) else (value,)))
    return out


def _sql_queries(tables) -> list:
    """(label, text, protected table, domain sampler) of the sql lane."""
    path = Path(__file__).resolve().parent.parent / "examples/ad_hoc_sql.py"
    spec = importlib.util.spec_from_file_location("ad_hoc_sql", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    queries = [
        (f"adhoc{i}", text, protected, sampler)
        for i, (text, protected, sampler) in enumerate(example.QUERIES)
    ]
    for workload in all_workloads():
        query = workload.query
        try:
            text = query.sql_text()
            compile_sql(text, tables, query.protected_table)
        except (AttributeError, QueryShapeError):
            continue  # no SQL form, or one the bridge refuses
        queries.append(
            (workload.name, text, query.protected_table, query.domain_sampler)
        )
    return queries


def release_digests() -> tuple:
    """Digests of every release, and which earlier release each replay
    (a release that drew no sample) returned."""
    out = {}
    replays = {}
    #: id of a released result -> (its release, the result kept alive).
    released = {}
    last = {}  # the latest release's PartitionedSample
    partition_and_sample = session_mod.partition_and_sample

    def recording(*args, **kwargs):
        last["sample"] = partition_and_sample(*args, **kwargs)
        return last["sample"]

    def release(key, call):
        last["sample"] = None
        try:
            result = call()
        except DPError:
            result = None
        if last["sample"] is not None:
            out[key] = digest(last["sample"], result)
            if result is not None:
                released[id(result)] = (key, result)
            return
        # A replay: phase 1 did not run.  It took over the sample of
        # the release it replays, which it must equal field by field.
        original = released.get(id(result), (None,))[0]
        replays[key] = original
        out[key] = {
            **{name: out.get(original, {}).get(name) for name in SAMPLE_FIELDS},
            **result_digest(result),
        }

    def four_steps(lane, tables, protected, cold):
        """``cold(session, base)``, two appends and a retire, at
        ``engine_partitions`` 1, 2 and 3."""
        rows = tables[protected]
        held = max(2, len(rows) // 10)
        for parts in (1, 2, 3):
            base = dict(tables)
            base[protected] = [dict(row) for row in rows[:-held]]
            session = UPASession(UPAConfig(
                sample_size=SAMPLE_SIZE, seed=SESSION_SEED,
                engine_partitions=parts,
            ))
            steps = {
                "cold": lambda: cold(session, base),
                "append1": lambda: session.append(
                    [dict(row) for row in rows[-held:-held // 2]], 0.5),
                "append2": lambda: session.append(
                    [dict(row) for row in rows[-held // 2:]], 0.5),
                "retire": lambda: session.retire(max(1, held // 3), 0.5),
            }
            for step, call in steps.items():
                release(f"{lane}/parts{parts}/{step}", call)

    def shared_pair(workload, parts):
        """The ``shared`` lane of one workload: what ``hit`` submits as
        the same objects, ``miss`` submits as copies."""
        query = workload.query
        protected = query.protected_table
        generated = workload.make_tables(SCALE, DATA_SEED)
        rows = generated[protected]
        held = max(2, len(rows) // 10)
        x = dict(generated)
        x[protected] = rows[:-held]
        minus = dict(x)
        minus[protected] = x[protected][:-1]
        hit, miss = session_pair(parts)
        paired(f"shared/{workload.name}/parts{parts}", miss, {
            "x": (query, x, lambda: hit.run(query, x, 0.5)),
            "minus": (query, minus, lambda: hit.run(query, minus, 0.5)),
            "x-again": (query, x, lambda: hit.run(query, x, 0.5)),
            "append1": (query, x, lambda: hit.append(
                [dict(row) for row in rows[-held:-held // 2]], 0.5)),
            "append2": (query, x, lambda: hit.append(
                [dict(row) for row in rows[-held // 2:]], 0.5)),
            "retire": (query, x, lambda: hit.retire(max(1, held // 3), 0.5)),
        })

    def cross_pair(parts):
        """One tables dict under two queries: ``orders`` is public to
        tpch13 and protected — appended to, retired from — under tpch4."""
        q13 = workload_by_name("tpch13").query
        q4 = workload_by_name("tpch4").query
        x = workload_by_name("tpch4").make_tables(SCALE, DATA_SEED)
        orders = x["orders"]
        held = [dict(row) for row in orders[-len(orders) // 10:]]
        del orders[-len(held):]
        hit, miss = session_pair(parts)
        paired(f"shared/cross/parts{parts}", miss, {
            "q13": (q13, x, lambda: hit.run(q13, x, 0.5)),
            "q4": (q4, x, lambda: hit.run(q4, x, 0.5)),
            "q4-append": (q4, x, lambda: hit.append(held, 0.5)),
            "q13-grown": (q13, x, lambda: hit.run(q13, x, 0.5)),
            "q4-again": (q4, x, lambda: hit.run(q4, x, 0.5)),
            "q4-retire": (q4, x, lambda: hit.retire(len(held), 0.5)),
            "q13-same-length": (q13, x, lambda: hit.run(q13, x, 0.5)),
        })

    def session_pair(parts):
        config = UPAConfig(
            sample_size=SAMPLE_SIZE, seed=SESSION_SEED,
            engine_partitions=parts,
        )
        return UPASession(config), UPASession(config)

    def paired(lane, miss, steps):
        """Each step of the ``hit`` session, then the same submission
        as copies to ``miss``."""
        for step, (query, submitted, call) in steps.items():
            release(f"{lane}/hit/{step}", call)
            # append() and retire() have moved the hit session's
            # protected list by now.
            copies = {
                name: (
                    [dict(row) for row in records]
                    if name == query.protected_table else list(records)
                )
                for name, records in submitted.items()
            }
            release(
                f"{lane}/miss/{step}", lambda: miss.run(query, copies, 0.5),
            )

    session_mod.partition_and_sample = recording
    try:
        for workload in all_workloads():
            four_steps(
                workload.name,
                workload.make_tables(SCALE, DATA_SEED),
                workload.query.protected_table,
                lambda session, base, query=workload.query:
                    session.run(query, base, 0.5),
            )
        for name in RESUBMIT_WORKLOADS:
            workload = workload_by_name(name)
            tables = workload.make_tables(SCALE, DATA_SEED)
            protected = workload.query.protected_table
            minus_one = dict(tables)
            minus_one[protected] = tables[protected][:-1]
            session = UPASession(UPAConfig(
                sample_size=SAMPLE_SIZE, seed=SESSION_SEED,
            ))
            for submission in range(RESUBMIT_DEPTH):
                submitted = minus_one if submission % 2 else tables
                release(
                    f"resubmit/{name}/{submission:02d}",
                    lambda: session.run(workload.query, submitted, 0.5),
                )
        for workload in all_workloads():
            for parts in (1, 2, 3):
                shared_pair(workload, parts)
        for parts in (1, 2, 3):
            cross_pair(parts)
        tables = workload_by_name("tpch1").make_tables(SCALE, DATA_SEED)
        for label, text, protected, sampler in _sql_queries(tables):
            four_steps(
                f"sql/{label}", tables, protected,
                lambda session, base, text=text, protected=protected,
                sampler=sampler: session.run_sql(
                    text, base, protected_table=protected, epsilon=0.5,
                    domain_sampler=sampler,
                ),
            )
    finally:
        session_mod.partition_and_sample = partition_and_sample
    return out, replays


def replay_differences(digests: dict, replays: dict) -> list:
    """The replays that are not the release they replay."""
    return [
        key for key, original in sorted(replays.items())
        if original is None or digests[key] != digests[original]
    ]


def shared_lane_differences(digests: dict) -> list:
    """The ``shared`` releases whose hit and miss sessions disagree."""
    return [
        key for key, mine in sorted(digests.items())
        if "/hit/" in key and mine != digests[key.replace("/hit/", "/miss/")]
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="digest JSON of the other tree")
    args = parser.parse_args()
    digests, replays = release_digests()
    unshared = shared_lane_differences(digests)
    for key in unshared:
        print(f"hit differs from miss: {key}", file=sys.stderr)
    unreplayed = replay_differences(digests, replays)
    for key in unreplayed:
        print(f"replay differs from its release: {key} "
              f"(replays {replays[key]})", file=sys.stderr)
    print(f"{len(replays)} of {len(digests)} releases replayed",
          file=sys.stderr)
    failed = bool(unshared or unreplayed)
    if args.against is None:
        json.dump(digests, sys.stdout, indent=0, sort_keys=True)
        return 1 if failed else 0
    with open(args.against) as handle:
        other = json.load(handle)
    fields = SAMPLE_FIELDS + RESULT_FIELDS
    identical = dict.fromkeys(fields, 0)
    differing = 0
    for key in sorted(digests.keys() | other.keys()):
        mine, theirs = digests.get(key, {}), other.get(key, {})
        moved = [f for f in fields if mine.get(f) != theirs.get(f)]
        for field in fields:
            identical[field] += field not in moved
        if moved:
            differing += 1
            print(f"differs: {key}: {', '.join(moved)}")
    for field in fields:
        print(f"{field}: {identical[field]} of {len(digests)} identical")
    print(f"{len(digests) - differing} of {len(digests)} releases identical")
    return 1 if differing or failed else 0


if __name__ == "__main__":
    sys.exit(main())
