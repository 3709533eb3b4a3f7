"""``upalint`` orchestration: run the four passes and collect a report.

The analyzer is deliberately cheap: the purity pass reads source (no
query execution), the plan pass builds logical plans against
schema-only catalogs (no data generation), and the budget and taint
passes parse scripts (no imports).  ``repro lint`` over all nine
workloads plus ``examples/`` completes in well under a second, which
is what lets strict-mode sessions afford to run it at query
registration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence

from repro.staticcheck.diagnostics import (
    Diagnostic,
    Severity,
    dedupe,
    has_errors,
    make_diagnostic,
    render_json,
    render_text,
)
from repro.staticcheck import (
    budgetflow,
    purity,
    stability,
    taint,
)


@dataclass
class LintReport:
    """All diagnostics from one analyzer invocation."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity == Severity.WARNING
        ]

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)

    @property
    def exit_code(self) -> int:
        return 1 if not self.ok else 0

    def render(self, as_json: bool = False) -> str:
        if as_json:
            return render_json(self.diagnostics)
        return render_text(self.diagnostics)


def _schema_session():
    """A SQLSession with every TPC-H table registered schema-only.

    Plans need schemas for analysis, not rows — registering empty
    tables keeps ``repro lint`` free of data generation.
    """
    from repro.sql.session import SQLSession
    from repro.tpch.schema import ALL_SCHEMAS

    session = SQLSession()
    for name, schema in ALL_SCHEMAS.items():
        session.create_table(name, [], schema)
    return session


def lint_query(
    query: Any,
    tables: Optional[dict] = None,
    include_plan: bool = True,
) -> List[Diagnostic]:
    """Purity + taint passes (always) + plan pass (when available)."""
    diagnostics = purity.check_query(query)
    diagnostics.extend(taint.check_query_methods(query))
    if include_plan and hasattr(query, "dataframe"):
        try:
            plan = query.dataframe(_schema_session()).plan
        except Exception as exc:  # plan construction is best-effort
            diagnostics.append(
                make_diagnostic(
                    "UPA006",
                    f"{getattr(query, 'name', type(query).__name__)}: "
                    f"could not build the logical plan for analysis "
                    f"({type(exc).__name__}: {exc})",
                    obj=getattr(query, "name", ""),
                    pass_name=stability.PASS,
                )
            )
        else:
            diagnostics.extend(
                stability.check_plan(
                    plan,
                    protected_table=getattr(query, "protected_table", None),
                    tables=tables,
                    query_name=getattr(query, "name", ""),
                    flex_supported=getattr(query, "flex_supported", None),
                )
            )
    return diagnostics


def lint_workloads(
    names: Optional[Sequence[str]] = None,
    tables: Optional[dict] = None,
) -> List[Diagnostic]:
    """Lint the built-in workload registry (default: all nine)."""
    from repro.workloads import all_workloads

    diagnostics: List[Diagnostic] = []
    for workload in all_workloads():
        if names and workload.name not in names:
            continue
        diagnostics.extend(lint_query(workload.query, tables=tables))
    return diagnostics


def lint_paths(
    paths: Sequence[str],
    exclude: Sequence[str] = (),
) -> List[Diagnostic]:
    """Budget + taint passes over files / directories of scripts.

    ``exclude`` holds paths (files or directory prefixes) to skip —
    how CI keeps the deliberately-leaky lint fixtures out of the
    clean-tree gate while still linting everything else.
    """
    excluded = {os.path.normpath(e) for e in exclude}

    def _is_excluded(path: str) -> bool:
        norm = os.path.normpath(path)
        return any(
            norm == e or norm.startswith(e + os.sep) for e in excluded
        )

    diagnostics: List[Diagnostic] = []
    for path in budgetflow.iter_python_files(paths):
        if _is_excluded(path):
            continue
        diagnostics.extend(budgetflow.check_file(path))
        diagnostics.extend(taint.check_file(path))
    return diagnostics


def run_lint(
    workloads: bool = True,
    workload_names: Optional[Sequence[str]] = None,
    paths: Sequence[str] = (),
    min_severity: Severity = Severity.INFO,
    exclude: Sequence[str] = (),
) -> LintReport:
    """The full analyzer: workload passes + script passes."""
    report = LintReport()
    if workloads:
        report.extend(lint_workloads(workload_names))
    if paths:
        report.extend(lint_paths(paths, exclude=exclude))
    report.diagnostics = dedupe(report.diagnostics)
    if min_severity > Severity.INFO:
        report.diagnostics = [
            d for d in report.diagnostics if d.severity >= min_severity
        ]
    return report
