"""Digests of everything a release computes, to compare two source trees.

A change that claims "released values unchanged" runs this once per
tree and compares the outputs::

    PYTHONPATH=/path/to/parent/src python benchmarks/release_digests.py > a.json
    PYTHONPATH=src python benchmarks/release_digests.py --against a.json

For each of the nine workloads (scale 4000, data seed 11, session seed
77, n = 200 — the golden seeds) and ``engine_partitions`` 1, 2 and 3 it
runs one session through a cold ``run``, two ``append``s and a
``retire`` and hashes the bytes of ``noisy_output``, ``raw_output``,
``plain_output``, both sensitivities, the inferred range (lower, upper,
mean, std), the removal and addition outputs and both
``partition_outputs``.  A release RANGE ENFORCER refuses is recorded as
``"DPError"`` (it must be refused in both trees).  ``--against`` exits
1 and names the releases that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from repro.common.errors import DPError
from repro.core import UPAConfig, UPASession
from repro.workloads import all_workloads

SCALE, DATA_SEED, SESSION_SEED, SAMPLE_SIZE = 4000, 11, 77, 200


def digest(result) -> str:
    inferred = result.inferred_range
    h = hashlib.sha256()
    for value in (
        result.noisy_output, result.raw_output, result.plain_output,
        result.local_sensitivity, result.estimated_local_sensitivity,
        inferred.lower, inferred.upper, inferred.mean, inferred.std,
        result.removal_outputs, result.addition_outputs,
        *result.partition_outputs,
    ):
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    return h.hexdigest()[:16]


def release_digests() -> dict:
    out = {}
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
            for step, release in steps.items():
                try:
                    value = digest(release())
                except DPError:
                    value = "DPError"
                out[f"{workload.name}/parts{parts}/{step}"] = value
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
    differing = sorted(
        key for key in digests.keys() | other.keys()
        if digests.get(key) != other.get(key)
    )
    for key in differing:
        print(f"differs: {key}: {other.get(key)} -> {digests.get(key)}")
    print(f"{len(digests) - len(differing)} of {len(digests)} releases "
          "identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
