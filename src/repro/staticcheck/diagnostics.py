"""Diagnostic records shared by every ``upalint`` pass.

Each finding is a :class:`Diagnostic` with a stable code (``UPA001``…),
a severity, a best-effort ``file:line`` location, and a fix hint.  The
code registry below is the single source of truth: the docs
(``docs/static_analysis.md``) and the tests both enumerate it, so a new
check must land here first.

Severities follow the usual compiler convention:

* ``error`` — the query/plan/program violates a precondition UPA's
  privacy guarantee rests on; ``repro lint`` exits non-zero.
* ``warning`` — suspicious but not provably wrong (or explicitly
  declared by the author); surfaced, does not fail the build.
* ``info`` — context the analyst should know (e.g. join amplification
  factors), never actionable by CI.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class Severity(enum.IntEnum):
    """Ordered so ``max()`` over diagnostics gives the worst finding."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one stable diagnostic code."""

    code: str
    title: str
    default_severity: Severity
    summary: str


#: The stable code registry (append-only: codes are never renumbered,
#: and a retired code — UPA011–UPA014 — is never reused).
CODE_REGISTRY: Dict[str, CodeInfo] = {
    info.code: info
    for info in [
        # -- query-purity pass (UPA0xx) --------------------------------
        CodeInfo(
            "UPA001", "nondeterministic-monoid", Severity.ERROR,
            "A monoid method (map_record/zero/combine/finalize/build_aux) "
            "calls a nondeterminism source (random, time, datetime.now, "
            "uuid, numpy.random). UPA replays these functions across "
            "sampled neighbouring datasets; nondeterminism breaks the "
            "R(M(S')) reuse equivalence and the sensitivity estimate.",
        ),
        CodeInfo(
            "UPA002", "stateful-monoid", Severity.ERROR,
            "A monoid method mutates self, a global, or a closure "
            "variable. Mappers/reducers run many times, in any order, on "
            "any partition; hidden state makes the fold order observable "
            "and the output non-reproducible.",
        ),
        CodeInfo(
            "UPA003", "combine-mutates-right", Severity.ERROR,
            "combine() mutates its right argument in place. The "
            "union-preserving reduce reuses every mapped element across "
            "prefix/suffix folds (the paper's core efficiency claim); an "
            "element mutated by one fold poisons all later neighbours.",
        ),
        CodeInfo(
            "UPA004", "non-commutative-combine", Severity.ERROR,
            "combine() applies a non-commutative operator (-, /, //, %, "
            "**) across its two arguments. The reducer must be a "
            "commutative monoid: partial aggregates arrive in "
            "partition-dependent order.",
        ),
        CodeInfo(
            "UPA005", "aux-reads-protected", Severity.WARNING,
            "build_aux() reads the protected table. Aux structures are "
            "computed once from x, not per neighbour, so the query is "
            "only correct if its semantics stay linear in the protected "
            "records. Declare `aux_reads_protected = True` on the query "
            "class to acknowledge (downgrades to info).",
        ),
        CodeInfo(
            "UPA006", "source-unavailable", Severity.INFO,
            "A monoid method's source could not be retrieved (builtin, "
            "C extension, REPL-defined, or dynamically generated); the "
            "purity pass skipped it.",
        ),
        CodeInfo(
            "UPA010", "batch-kernel-mismatch", Severity.WARNING,
            "A batched kernel (map_batch/prefix_suffix_batch/"
            "combine_batch/finalize_batch/fold_batch) is overridden "
            "without the scalar method that defines its semantics, or "
            "mutates an input batch in place. Batched kernels are an "
            "optimization over the scalar monoid: validate_monoid "
            "cross-checks them against the scalar path, and the "
            "pipeline borrows batches across prefix/suffix folds, so a "
            "kernel with no scalar reference — or one that writes into "
            "its inputs — can silently change released outputs.",
        ),
        CodeInfo(
            "UPA015", "stateful-monoid-on-incremental-path",
            Severity.ERROR,
            "A monoid method (or batched kernel) mutates state captured "
            "from outside the call — a free variable it closed over, a "
            "module-level container, or a mutable default argument. "
            "Such state survives between calls, and the incremental "
            "session path (UPASession.append/retire) makes that fatal "
            "rather than merely fragile: cached map_record element "
            "blocks are replayed from the engine's block store instead "
            "of re-invoking the mapper, so any accumulation the method "
            "performs diverges from a cold run and the "
            "bitwise-equivalence guarantee breaks. UPA002 covers "
            "mutation of self and explicit global/nonlocal "
            "declarations; this check covers the mutations those miss.",
        ),
        # -- plan-stability pass (UPA1xx) ------------------------------
        CodeInfo(
            "UPA101", "unsupported-plan-operator", Severity.ERROR,
            "The logical plan uses an operator outside UPA's supported "
            "matrix (paper Table 2): only Scan/Filter/Project/Join/"
            "global-Aggregate trees decompose into the Mapper/Reducer "
            "form the pipeline requires. Sort, Limit, Union, Distinct "
            "and GROUP BY need the grouped-query or DataFrame paths.",
        ),
        CodeInfo(
            "UPA102", "join-stability-amplification", Severity.INFO,
            "A join amplifies per-record stability: one protected record "
            "can influence up to max-frequency(join key) result rows. "
            "This is exactly where FLEX's static bound magnifies "
            "(TPCH16/TPCH21 in the paper); UPA's sampled inference "
            "absorbs it, but the factor is worth knowing.",
        ),
        CodeInfo(
            "UPA103", "flex-support-mismatch", Severity.WARNING,
            "The query's declared flex_supported flag disagrees with "
            "FLEX's actual fragment (single global COUNT over Scan/"
            "Filter/Project/Join with raw-column keys). The Table 2 "
            "comparison would silently skip or crash on this workload.",
        ),
        CodeInfo(
            "UPA104", "computed-join-key", Severity.WARNING,
            "A join key is a computed expression, not a raw base-table "
            "column. Per-column frequency metadata cannot bound its "
            "fan-out, so static stability for this join is unbounded.",
        ),
        # -- budget-flow pass (UPA2xx) ---------------------------------
        CodeInfo(
            "UPA201", "uncharged-release", Severity.WARNING,
            "A UPASession constructed without a PrivacyAccountant calls "
            "run()/run_sql(). Every released output consumes epsilon; "
            "with no accountant the spend is untracked and the total "
            "budget unenforced.",
        ),
        CodeInfo(
            "UPA202", "invalid-privacy-parameter", Severity.ERROR,
            "An epsilon/delta literal is invalid: epsilon must be a "
            "positive finite number, delta must be in [0, 1).",
        ),
        CodeInfo(
            "UPA203", "non-private-field-printed", Severity.INFO,
            "An evaluation-only UPAResult field (raw_output, "
            "plain_output, removal_outputs, addition_outputs, "
            "neighbour_outputs) is printed. These fields are not "
            "differentially private and must never be released to an "
            "analyst; fine for local evaluation scripts.",
        ),
        # -- taint pass (UPA3xx) ---------------------------------------
        CodeInfo(
            "UPA301", "protected-data-leak", Severity.ERROR,
            "A value derived from protected records reaches a release "
            "sink (print, file/socket/HTTP write, log interpolation, "
            "or a return from the script's entry point) without "
            "passing through session.run()/run_sql() or an explicit "
            "declassify(). Raw, un-noised data leaves the pipeline "
            "and no budget is charged — the end-to-end DP guarantee "
            "is void.",
        ),
        CodeInfo(
            "UPA302", "data-dependent-release", Severity.WARNING,
            "A session.run()/run_sql() release executes under a "
            "branch or loop condition derived from protected data. "
            "Whether — and which — query runs becomes data-dependent, "
            "so the sequence of executed plans itself leaks protected "
            "information: the script-level analogue of the plan-"
            "stability requirement (UPA1xx).",
        ),
        CodeInfo(
            "UPA303", "tainted-privacy-parameter", Severity.ERROR,
            "An epsilon/delta argument is derived from protected "
            "data. A data-dependent privacy parameter is itself a "
            "leak and voids the epsilon-DP accounting; privacy "
            "parameters must be public constants.",
        ),
        CodeInfo(
            "UPA304", "uncharged-release-interprocedural", Severity.WARNING,
            "A function releases through a UPASession parameter that "
            "its caller constructed without a PrivacyAccountant — the "
            "interprocedural face of UPA201: the epsilon spend is "
            "never charged against a total budget.",
        ),
        CodeInfo(
            "UPA305", "evaluation-field-flow", Severity.INFO,
            "A value carrying UPAResult evaluation-only data "
            "(raw_output, plain_output, neighbour outputs) flows "
            "through assignments into a print/write/log sink. The "
            "flow-tracking complement of UPA203; fine for local "
            "evaluation, never for analyst-facing output.",
        ),
    ]
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding from a static pass.

    Attributes:
        code: stable registry code (``UPA001``…).
        message: human-readable, instance-specific explanation.
        severity: defaults to the registry's default for the code.
        file: source file the finding points at ('' if synthetic).
        line: 1-based line number (0 if unknown).
        col: 0-based column offset (0 if unknown).
        obj: what was analyzed — query name, plan description, or path.
        hint: a concrete fix suggestion.
        pass_name: 'purity' | 'plan' | 'budget' | 'taint'.
    """

    code: str
    message: str
    severity: Severity
    file: str = ""
    line: int = 0
    col: int = 0
    obj: str = ""
    hint: str = ""
    pass_name: str = ""

    @property
    def location(self) -> str:
        if not self.file:
            return "<unknown>"
        return f"{self.file}:{self.line}" if self.line else self.file

    @property
    def sort_key(self):
        """The canonical deterministic ordering: file, line, col, code.

        Used everywhere diagnostics are rendered or compared, so two
        runs (and two passes emitting at the same site) always present
        findings identically.
        """
        return (self.file, self.line, self.col, self.code,
                -int(self.severity), self.message)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "obj": self.obj,
            "hint": self.hint,
            "pass": self.pass_name,
        }


def make_diagnostic(
    code: str,
    message: str,
    *,
    severity: Optional[Severity] = None,
    file: str = "",
    line: int = 0,
    col: int = 0,
    obj: str = "",
    hint: str = "",
    pass_name: str = "",
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the code registry."""
    info = CODE_REGISTRY.get(code)
    if info is None:
        raise KeyError(f"unknown diagnostic code {code!r}")
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else info.default_severity,
        file=file,
        line=line,
        col=col,
        obj=obj,
        hint=hint,
        pass_name=pass_name,
    )


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == Severity.ERROR for d in diagnostics)


def dedupe(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Drop identical findings (several passes can flag the same site)
    and impose the canonical (file, line, col, code) ordering."""
    return sorted(dict.fromkeys(diagnostics), key=lambda d: d.sort_key)


def render_text(diagnostics: List[Diagnostic]) -> str:
    """Compiler-style one-line-per-finding rendering plus a summary."""
    deduped = dedupe(diagnostics)
    lines = []
    for d in deduped:
        obj = f" [{d.obj}]" if d.obj else ""
        hint = f"\n    hint: {d.hint}" if d.hint else ""
        lines.append(
            f"{d.location}: {d.severity}: {d.code}{obj}: {d.message}{hint}"
        )
    errors = sum(1 for d in deduped if d.severity == Severity.ERROR)
    warnings = sum(1 for d in deduped if d.severity == Severity.WARNING)
    infos = sum(1 for d in deduped if d.severity == Severity.INFO)
    lines.append(
        f"{errors} error(s), {warnings} warning(s), {infos} info(s)"
    )
    return "\n".join(lines)


def render_json(diagnostics: List[Diagnostic]) -> str:
    """Machine-readable rendering (one JSON document, stable keys)."""
    deduped = dedupe(diagnostics)
    return json.dumps(
        {
            "diagnostics": [d.to_dict() for d in deduped],
            "errors": sum(
                1 for d in deduped if d.severity == Severity.ERROR
            ),
            "warnings": sum(
                1 for d in deduped if d.severity == Severity.WARNING
            ),
        },
        indent=2,
        sort_keys=True,
    )
