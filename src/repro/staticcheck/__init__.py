"""``upalint``: static safety analysis for UPA queries, plans, budgets.

Four diagnostics-producing passes (surfaced as ``repro lint`` and as
the strict-mode registration gate in :class:`repro.core.UPASession`):

* :mod:`repro.staticcheck.purity` — AST purity checks on every
  registered :class:`MapReduceQuery`'s monoid methods and batched
  kernels (UPA001–UPA006, UPA010, UPA015);
* :mod:`repro.staticcheck.stability` — a stability dataflow over
  :mod:`repro.sql.logical` plans against the paper's Table 2 operator
  matrix, cross-checked with the FLEX baseline (UPA101–UPA104);
* :mod:`repro.staticcheck.budgetflow` — budget accounting checks over
  entry-point scripts (UPA201–UPA203);
* :mod:`repro.staticcheck.taint` — interprocedural taint tracking from
  protected tables to release sinks (UPA301–UPA305).

The flow-sensitive passes share one dataflow framework: a CFG builder
(:mod:`repro.staticcheck.cfg`) and a worklist fixed-point engine
(:mod:`repro.staticcheck.dataflow`).

All passes emit the shared :class:`Diagnostic` record with stable
codes; ``docs/static_analysis.md`` catalogues them, each with a file
it fires on.  Findings render as text or one JSON document.
"""

from repro.staticcheck.analyzer import (
    LintReport,
    lint_paths,
    lint_query,
    lint_workloads,
    run_lint,
)
from repro.staticcheck.budgetflow import check_file, check_source
from repro.staticcheck.cfg import CFG, BasicBlock, Guard, build_cfg
from repro.staticcheck.dataflow import (
    env_add,
    env_join,
    env_set,
    solve_forward,
)
from repro.staticcheck.diagnostics import (
    CODE_REGISTRY,
    Diagnostic,
    Severity,
    dedupe,
    has_errors,
    make_diagnostic,
    render_json,
    render_text,
)
from repro.staticcheck.purity import check_query
from repro.staticcheck.stability import StabilityReport, check_plan
from repro.staticcheck.taint import (
    check_query_methods as check_query_taint,
    check_file as check_file_taint,
    check_source as check_source_taint,
)

__all__ = [
    "CFG",
    "CODE_REGISTRY",
    "BasicBlock",
    "Diagnostic",
    "Guard",
    "LintReport",
    "Severity",
    "StabilityReport",
    "build_cfg",
    "check_file",
    "check_file_taint",
    "check_plan",
    "check_query",
    "check_query_taint",
    "check_source",
    "check_source_taint",
    "dedupe",
    "env_add",
    "env_join",
    "env_set",
    "has_errors",
    "lint_paths",
    "lint_query",
    "lint_workloads",
    "make_diagnostic",
    "render_json",
    "render_text",
    "run_lint",
    "solve_forward",
]
