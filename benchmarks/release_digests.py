"""Digests of everything a release computes, to compare two source trees.

A change that claims "released values unchanged", or that a move is
confined to some fields, runs this once per tree and compares::

    PYTHONPATH=/path/to/parent/src python benchmarks/release_digests.py > a.json
    PYTHONPATH=src python benchmarks/release_digests.py --against a.json

For each of the nine workloads (scale 4000, data seed 11, session seed
77, n = 200 — the golden seeds) and ``engine_partitions`` 1, 2 and 3 it
runs one session through a cold ``run``, two ``append``s and a
``retire`` and hashes, **one digest per field**, what phase 1 drew
(``sampled_indices``, ``partition_ids``) and what the release computed
(the names in ``RESULT_FIELDS``, the last three of them RANGE
ENFORCER's decisions).  The ``resubmit`` lane then puts those decisions
against a deep registry: ``tpch13`` and ``tpch16``, each submitted 40
times to one session, alternately on x and on x minus its last record.
A release RANGE ENFORCER refuses has ``"DPError"`` for every result
field (phase 1 ran, so its two fields are still digested).
``--against`` names the releases that differ and their fields, counts
the identical releases per field, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

import repro.core.session as session_mod
from repro.common.errors import DPError
from repro.core import UPAConfig, UPASession
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


def release_digests() -> dict:
    out = {}
    last = {}  # the latest release's PartitionedSample
    partition_and_sample = session_mod.partition_and_sample

    def recording(*args, **kwargs):
        last["sample"] = partition_and_sample(*args, **kwargs)
        return last["sample"]

    def release(key, call):
        try:
            result = call()
        except DPError:
            result = None
        out[key] = digest(last["sample"], result)

    session_mod.partition_and_sample = recording
    try:
        for workload in all_workloads():
            tables = workload.make_tables(SCALE, DATA_SEED)
            protected = workload.query.protected_table
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
                    "cold": lambda: session.run(workload.query, base, 0.5),
                    "append1": lambda: session.append(
                        [dict(row) for row in rows[-held:-held // 2]], 0.5),
                    "append2": lambda: session.append(
                        [dict(row) for row in rows[-held // 2:]], 0.5),
                    "retire": lambda: session.retire(max(1, held // 3), 0.5),
                }
                for step, call in steps.items():
                    release(f"{workload.name}/parts{parts}/{step}", call)
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
    finally:
        session_mod.partition_and_sample = partition_and_sample
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="digest JSON of the other tree")
    args = parser.parse_args()
    digests = release_digests()
    if args.against is None:
        json.dump(digests, sys.stdout, indent=0, sort_keys=True)
        return 0
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
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
