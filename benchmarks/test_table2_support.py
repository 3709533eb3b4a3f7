"""Table II: the nine evaluated queries and their UPA/FLEX support.

Regenerates the paper's support matrix by actually *attempting* each
query: UPA must run end-to-end, FLEX must either produce a sensitivity
or raise FlexUnsupportedError.  Expected shape: UPA 9/9, FLEX 5/9
(exactly the counting queries).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import cached_tables, emit_report
from repro.analysis import format_table
from repro.baselines import flex_local_sensitivity
from repro.common.errors import FlexUnsupportedError
from repro.core import UPAConfig, UPASession
from repro.sql import SQLSession
from repro.tpch.datagen import register_tables

SCALE = 5_000


def _build_matrix(workloads):
    rows = []
    upa_supported = 0
    flex_supported = 0
    for workload in workloads:
        tables = cached_tables(workload, SCALE, seed=0)
        session = UPASession(UPAConfig(sample_size=200, seed=0))
        try:
            session.run(workload.query, tables, epsilon=0.1)
            upa_ok = True
            upa_supported += 1
        except Exception:  # pragma: no cover - support must not fail
            upa_ok = False

        if hasattr(workload.query, "sql_text"):
            sql = SQLSession()
            register_tables(sql, tables)
            try:
                flex_local_sensitivity(
                    sql.sql(workload.query.sql_text()).plan, tables
                )
                flex_ok = True
            except FlexUnsupportedError:
                flex_ok = False
        else:
            flex_ok = False  # ML queries are not SQL at all
        flex_supported += flex_ok
        rows.append(
            [workload.name, workload.query_type,
             "yes" if upa_ok else "NO", "yes" if flex_ok else "no"]
        )
    return rows, upa_supported, flex_supported


def test_table2_support_matrix(benchmark, workloads):
    rows, upa_supported, flex_supported = benchmark.pedantic(
        _build_matrix, args=(workloads,), rounds=1, iterations=1
    )
    report = format_table(
        ["query", "type", "supported by UPA", "supported by FLEX"], rows
    )
    report += (
        f"\n\nUPA supports {upa_supported}/9 queries; "
        f"FLEX supports {flex_supported}/9 (paper: 9/9 vs 5/9)."
    )
    emit_report("table2_support", report)

    assert upa_supported == 9
    assert flex_supported == 5
    flex_by_name = {row[0]: row[3] for row in rows}
    for name in ("tpch1", "tpch4", "tpch13", "tpch16", "tpch21"):
        assert flex_by_name[name] == "yes"
    for name in ("tpch6", "tpch11", "kmeans", "linreg"):
        assert flex_by_name[name] == "no"
