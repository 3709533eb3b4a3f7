"""Tests for the upalint static analyzer (repro.staticcheck).

The negative fixtures each seed one violation the ISSUE's acceptance
criteria name: a non-commutative reducer, a random-calling mapper, an
in-place-mutating combine, and an unsupported SQL plan — and the test
asserts the documented diagnostic code fires.  The positive test runs
the analyzer over all nine shipped workloads and requires zero
error-severity findings.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import random
import re
from typing import Any

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.common.errors import QueryShapeError, StaticAnalysisError
from repro.core.query import MapReduceQuery, Row, Tables
from repro.core.session import UPAConfig, UPASession
from repro.sql.functions import avg, count_star
from repro.sql.session import SQLSession
from repro.staticcheck import (
    CODE_REGISTRY,
    Diagnostic,
    Severity,
    check_plan,
    check_query,
    check_source,
    lint_workloads,
    render_json,
    render_text,
    run_lint,
)


# ---------------------------------------------------------------------------
# Fixture queries (each seeds exactly one violation)
# ---------------------------------------------------------------------------


class _FixtureBase(MapReduceQuery):
    """A minimal, well-behaved scalar count query."""

    name = "fixture"
    protected_table = "t"
    output_dim = 1

    def map_record(self, record: Row, aux: Any) -> float:
        return 1.0

    def zero(self) -> float:
        return 0.0

    def combine(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, agg: float, aux: Any) -> np.ndarray:
        return np.asarray([float(agg)], dtype=float)

    def sample_domain_record(self, rng: random.Random, tables: Tables) -> Row:
        return {"v": rng.randrange(10)}


class RandomMapperQuery(_FixtureBase):
    """UPA001: nondeterministic mapper."""

    name = "bad-random"

    def map_record(self, record: Row, aux: Any) -> float:
        return random.random()


class ClockFinalizeQuery(_FixtureBase):
    """UPA001: clock read in finalize."""

    name = "bad-clock"

    def finalize(self, agg: float, aux: Any) -> np.ndarray:
        import datetime

        _stamp = datetime.datetime.now()
        return np.asarray([float(agg)], dtype=float)


class SelfMutatingQuery(_FixtureBase):
    """UPA002: mapper accumulates into self."""

    name = "bad-stateful"

    def __init__(self) -> None:
        self.seen = 0

    def map_record(self, record: Row, aux: Any) -> float:
        self.seen += 1
        return 1.0


class MutatingCombineQuery(_FixtureBase):
    """UPA003: combine mutates its right argument in place."""

    name = "bad-mutating-combine"

    def zero(self) -> list:
        return [0.0]

    def combine(self, a: list, b: list) -> list:
        b.extend(a)
        return b

    def finalize(self, agg: list, aux: Any) -> np.ndarray:
        return np.asarray([float(sum(agg))], dtype=float)


class NonCommutativeQuery(_FixtureBase):
    """UPA004: subtraction across combine's arguments."""

    name = "bad-noncommutative"

    def combine(self, a: float, b: float) -> float:
        return a - b


class AuxReadsProtectedQuery(_FixtureBase):
    """UPA005: build_aux scans the protected table, undeclared."""

    name = "bad-aux"

    def build_aux(self, tables: Tables) -> float:
        return float(len(tables["t"]))


class DeclaredAuxQuery(AuxReadsProtectedQuery):
    """UPA005 downgrades to info when declared."""

    name = "declared-aux"
    aux_reads_protected = True


class OrphanBatchQuery(MapReduceQuery):
    """UPA010: map_batch overridden without map_record."""

    name = "bad-orphan-batch"
    protected_table = "t"
    output_dim = 1

    def zero(self) -> float:
        return 0.0

    def combine(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, agg: float, aux: Any) -> np.ndarray:
        return np.asarray([float(agg)], dtype=float)

    def map_batch(self, records, aux):
        return np.ones(len(records), dtype=float)


class MutatingBatchQuery(_FixtureBase):
    """UPA010: combine_batch writes into its input batch."""

    name = "bad-mutating-batch"

    def combine_batch(self, agg, elements):
        elements += agg
        return elements


class CleanBatchQuery(_FixtureBase):
    """Batched kernels with their scalar partners: no UPA010."""

    name = "clean-batch"

    def map_batch(self, records, aux):
        return np.ones(len(records), dtype=float)

    def combine_batch(self, agg, elements):
        return float(agg) + np.asarray(elements, dtype=float)


#: module-level containers the UPA015 fixtures mutate.
_LINT_CACHE: list = []
_LINT_STATE: dict = {}


class CapturedListQuery(_FixtureBase):
    """UPA015: mapper appends into a module-level list."""

    name = "bad-captured-list"

    def map_record(self, record: Row, aux: Any) -> float:
        _LINT_CACHE.append(record)
        return 1.0


class CapturedDictQuery(_FixtureBase):
    """UPA015: combine writes into a module-level dict."""

    name = "bad-captured-dict"

    def combine(self, a: float, b: float) -> float:
        _LINT_STATE["last"] = a
        return a + b


class MutableDefaultQuery(_FixtureBase):
    """UPA015: mapper accumulates into a mutable default argument."""

    name = "bad-mutable-default"

    def map_record(self, record: Row, aux: Any, seen: list = []) -> float:
        seen.append(record)
        return 1.0


class CapturedBatchKernelQuery(_FixtureBase):
    """UPA015 applies to batched kernels too."""

    name = "bad-captured-batch"

    def map_batch(self, records, aux):
        _LINT_CACHE.extend(records)
        return np.ones(len(records), dtype=float)


class ModuleCallQuery(_FixtureBase):
    """np.add(a, b) is an API call on a module, not captured state."""

    name = "good-module-call"

    def combine(self, a: float, b: float) -> float:
        return float(np.add(a, b))


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity == Severity.ERROR]


class TestPurityPass:
    def test_clean_fixture_has_no_findings(self):
        assert check_query(_FixtureBase()) == []

    def test_random_mapper_flagged(self):
        diags = check_query(RandomMapperQuery())
        assert "UPA001" in _codes(diags)
        (diag,) = [d for d in diags if d.code == "UPA001"]
        assert diag.severity == Severity.ERROR
        assert "random" in diag.message
        assert diag.file.endswith("test_staticcheck.py")
        assert diag.line > 0

    def test_clock_read_flagged(self):
        diags = check_query(ClockFinalizeQuery())
        assert "UPA001" in _codes(diags)

    def test_self_mutation_flagged(self):
        diags = check_query(SelfMutatingQuery())
        assert "UPA002" in _codes(diags)
        assert _errors(diags)

    def test_mutating_combine_flagged(self):
        diags = check_query(MutatingCombineQuery())
        assert "UPA003" in _codes(diags)
        (diag,) = [d for d in diags if d.code == "UPA003"]
        assert "b.extend" in diag.message

    def test_non_commutative_combine_flagged(self):
        diags = check_query(NonCommutativeQuery())
        assert "UPA004" in _codes(diags)

    def test_aux_reads_protected_flagged_as_warning(self):
        diags = check_query(AuxReadsProtectedQuery())
        (diag,) = [d for d in diags if d.code == "UPA005"]
        assert diag.severity == Severity.WARNING

    def test_declared_aux_downgrades_to_info(self):
        diags = check_query(DeclaredAuxQuery())
        (diag,) = [d for d in diags if d.code == "UPA005"]
        assert diag.severity == Severity.INFO

    def test_orphan_batch_kernel_flagged(self):
        diags = check_query(OrphanBatchQuery())
        (diag,) = [d for d in diags if d.code == "UPA010"]
        assert diag.severity == Severity.WARNING
        assert "map_record" in diag.message

    def test_mutating_batch_kernel_flagged(self):
        diags = check_query(MutatingBatchQuery())
        (diag,) = [d for d in diags if d.code == "UPA010"]
        assert diag.severity == Severity.WARNING
        assert "in-place" in diag.message

    def test_batch_kernels_with_scalar_partners_are_clean(self):
        assert check_query(CleanBatchQuery()) == []

    def test_shipped_batched_workloads_have_no_upa010(self):
        from repro.mining.kmeans import KMeansQuery
        from repro.mining.linreg import LinearRegressionQuery
        from repro.tpch import query_by_name

        for query in (query_by_name("tpch6"), KMeansQuery(),
                      LinearRegressionQuery()):
            assert not [
                d for d in check_query(query) if d.code == "UPA010"
            ]

    def test_captured_list_mutation_flagged(self):
        diags = [
            d for d in check_query(CapturedListQuery())
            if d.code == "UPA015"
        ]
        assert diags
        assert all(d.severity == Severity.ERROR for d in diags)
        assert "_LINT_CACHE" in diags[0].message

    def test_captured_dict_write_flagged(self):
        diags = [
            d for d in check_query(CapturedDictQuery())
            if d.code == "UPA015"
        ]
        assert diags
        assert "_LINT_STATE" in diags[0].message

    def test_mutable_default_argument_flagged(self):
        diags = [
            d for d in check_query(MutableDefaultQuery())
            if d.code == "UPA015"
        ]
        assert diags
        assert "mutable container" in diags[0].message

    def test_captured_state_in_batch_kernel_flagged(self):
        diags = [
            d for d in check_query(CapturedBatchKernelQuery())
            if d.code == "UPA015"
        ]
        assert diags

    def test_module_api_calls_not_flagged(self):
        assert not [
            d for d in check_query(ModuleCallQuery())
            if d.code == "UPA015"
        ]

    def test_strict_session_blocks_captured_state(self):
        session = UPASession(UPAConfig(sample_size=4, seed=0, strict=True))
        tables = {"t": [{"v": float(i)} for i in range(20)]}
        with pytest.raises(StaticAnalysisError, match="UPA015"):
            session.run(CapturedListQuery(), tables, epsilon=0.5)

    def test_shipped_workloads_have_no_upa015(self):
        from repro.workloads import all_workloads

        for workload in all_workloads():
            assert not [
                d for d in check_query(workload.query)
                if d.code == "UPA015"
            ]

    def test_source_unavailable_is_info_not_crash(self):
        namespace: dict = {"_FixtureBase": _FixtureBase}
        exec(
            "class Generated(_FixtureBase):\n"
            "    name = 'generated'\n"
            "    def combine(self, a, b):\n"
            "        return a + b\n",
            namespace,
        )
        diags = check_query(namespace["Generated"]())
        assert {d.code for d in diags} <= {"UPA006"}
        assert not _errors(diags)


class TestPlanPass:
    @staticmethod
    def _session() -> SQLSession:
        session = SQLSession()
        session.create_table("t", [{"v": 1, "g": "x"}])
        session.create_table("u", [{"w": 1}])
        return session

    def test_group_by_is_unsupported(self):
        session = self._session()
        plan = session.table("t").group_by("g").agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t", query_name="fix")
        errors = [d for d in _errors(diags) if d.code == "UPA101"]
        assert errors and "GROUP BY" in errors[0].message

    def test_avg_is_unsupported(self):
        from repro.sql.expr import col

        session = self._session()
        plan = session.table("t").agg(avg(col("v"), "a")).plan
        diags = check_plan(plan, protected_table="t")
        assert any(
            d.code == "UPA101" and "AVG" in d.message for d in _errors(diags)
        )

    def test_distinct_on_protected_path_is_unsupported(self):
        session = self._session()
        plan = session.table("t").distinct().agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t")
        assert any(d.code == "UPA101" for d in _errors(diags))

    def test_union_on_protected_path_is_unsupported(self):
        session = self._session()
        frame = session.table("t")
        plan = frame.union_all(frame).agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t")
        assert any(d.code == "UPA101" for d in _errors(diags))

    def test_protected_self_join_is_unsupported(self):
        from repro.sql.expr import col

        session = self._session()
        left = session.table("t")
        right = session.table("t").select(col("v").alias("v2"))
        plan = left.join(right, on=[("v", "v2")]).agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t")
        assert any(
            d.code == "UPA101" and "self-join" in d.message
            for d in _errors(diags)
        )

    def test_missing_aggregate_is_unsupported(self):
        session = self._session()
        plan = session.table("t").plan
        diags = check_plan(plan, protected_table="t")
        assert any(d.code == "UPA101" for d in _errors(diags))

    def test_supported_join_count_is_clean_with_amplification_info(self):
        session = self._session()
        joined = session.table("t").join(session.table("u"), on=[("v", "w")])
        plan = joined.agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t", query_name="joiny")
        assert not _errors(diags)
        assert any(d.code == "UPA102" for d in diags)

    def test_numeric_fanout_with_tables(self):
        session = SQLSession()
        t_rows = [{"v": 1}, {"v": 1}, {"v": 2}]
        u_rows = [{"w": 1}, {"w": 1}, {"w": 1}, {"w": 2}]
        session.create_table("t", t_rows)
        session.create_table("u", u_rows)
        joined = session.table("t").join(session.table("u"), on=[("v", "w")])
        plan = joined.agg(count_star("n")).plan
        diags = check_plan(
            plan, protected_table="t", tables={"t": t_rows, "u": u_rows}
        )
        (amp,) = [d for d in diags if d.code == "UPA102"]
        assert "fan-out 2 x 3" in amp.message

    def test_flex_mismatch_warning(self):
        session = self._session()
        plan = session.table("t").group_by("g").agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t", flex_supported=True)
        assert any(d.code == "UPA103" for d in diags)

    def test_computed_join_key_warns(self):
        from repro.sql.expr import col

        session = self._session()
        joined = session.table("t").join(
            session.table("u"), on=[(col("v") + 1, "w")]
        )
        diags = check_plan(joined.agg(count_star("n")).plan,
                           protected_table="t")
        (diag,) = [d for d in diags if d.code == "UPA104"]
        assert diag.severity == Severity.WARNING
        assert "computed" in diag.message

    def test_flex_consistent_count_no_mismatch(self):
        session = self._session()
        plan = session.table("t").agg(count_star("n")).plan
        diags = check_plan(plan, protected_table="t", flex_supported=True)
        assert not any(d.code == "UPA103" for d in diags)


class TestBudgetFlowPass:
    def test_uncharged_session_flagged(self):
        diags = check_source(
            "from repro.core import UPASession\n"
            "session = UPASession()\n"
            "result = session.run(query, tables, epsilon=0.5)\n",
            "snippet.py",
        )
        assert "UPA201" in _codes(diags)

    def test_accountant_session_is_clean(self):
        diags = check_source(
            "session = UPASession(config, accountant=acct)\n"
            "result = session.run(query, tables, epsilon=0.5)\n",
            "snippet.py",
        )
        assert "UPA201" not in _codes(diags)

    def test_invalid_epsilon_literal_is_error(self):
        diags = check_source(
            "session = UPASession(accountant=acct)\n"
            "session.run(q, t, epsilon=-0.5)\n",
            "snippet.py",
        )
        (diag,) = [d for d in diags if d.code == "UPA202"]
        assert diag.severity == Severity.ERROR
        assert diag.line == 2

    def test_invalid_delta_literal_is_error(self):
        diags = check_source(
            "acct = PrivacyAccountant(total_epsilon=1.0, total_delta=1.5)\n",
            "snippet.py",
        )
        assert "UPA202" in _codes(diags)

    def test_valid_literals_are_clean(self):
        diags = check_source(
            "acct = PrivacyAccountant(total_epsilon=1.0, total_delta=1e-6)\n"
            "session = UPASession(accountant=acct)\n"
            "session.run(q, t, epsilon=0.1)\n",
            "snippet.py",
        )
        assert diags == []

    def test_printing_raw_output_is_info(self):
        diags = check_source(
            "print('raw was', result.raw_output)\n", "snippet.py"
        )
        (diag,) = [d for d in diags if d.code == "UPA203"]
        assert diag.severity == Severity.INFO

    def test_syntax_error_reported_not_raised(self):
        diags = check_source("def broken(:\n", "snippet.py")
        assert diags and diags[0].severity == Severity.ERROR


class TestWorkloadsClean:
    def test_all_nine_workloads_have_no_error_diagnostics(self):
        diags = lint_workloads()
        assert _errors(diags) == [], render_text(_errors(diags))

    def test_all_nine_workloads_have_no_warnings_either(self):
        diags = lint_workloads()
        warnings = [d for d in diags if d.severity == Severity.WARNING]
        assert warnings == [], render_text(warnings)


class TestStrictMode:
    @staticmethod
    def _tiny_tables() -> Tables:
        return {"t": [{"v": float(i)} for i in range(8)]}

    def test_strict_gate_rejects_impure_query_before_spend(self):
        from repro.dp import PrivacyAccountant

        acct = PrivacyAccountant(total_epsilon=1.0)
        session = UPASession(
            UPAConfig(sample_size=4, seed=0, strict=True), accountant=acct
        )
        with pytest.raises(StaticAnalysisError) as excinfo:
            session.run(RandomMapperQuery(), self._tiny_tables(), epsilon=0.5)
        assert any(d.code == "UPA001" for d in excinfo.value.diagnostics)
        assert acct.spent() == (0.0, 0.0)  # rejected before charging

    def test_strict_gate_runs_validate_monoid(self):
        class RuntimeNonCommutative(_FixtureBase):
            """Statically clean, dynamically non-commutative."""

            name = "sneaky"

            def map_record(self, record: Row, aux: Any) -> float:
                return float(record["v"])

            def combine(self, a: float, b: float) -> float:
                return a + b * 0.5  # statically all-commutative ops

        session = UPASession(UPAConfig(sample_size=4, seed=0, strict=True))
        with pytest.raises(QueryShapeError):
            session.run(RuntimeNonCommutative(), self._tiny_tables(),
                        epsilon=0.5)

    def test_strict_mode_passes_clean_query(self):
        session = UPASession(UPAConfig(sample_size=4, seed=0, strict=True))
        result = session.run(_FixtureBase(), self._tiny_tables(), epsilon=0.5)
        assert result.plain_output[0] == 8.0
        # The gate caches per query class: a second run (distinct data,
        # so RANGE ENFORCER does not match it as a resubmission) does
        # not re-analyze the class.
        assert len(session._lint_cleared) == 1
        bigger = {"t": [{"v": float(i)} for i in range(30)]}
        session.run(_FixtureBase(), bigger, epsilon=0.5)
        assert len(session._lint_cleared) == 1

    def test_non_finite_epsilon_rejected(self):
        session = UPASession(UPAConfig(sample_size=4, seed=0))
        with pytest.raises(Exception, match="finite"):
            session.run(_FixtureBase(), self._tiny_tables(),
                        epsilon=float("inf"))


class TestRenderersAndRegistry:
    def test_every_diagnostic_code_is_registered(self):
        assert set(CODE_REGISTRY) == {
            "UPA001", "UPA002", "UPA003", "UPA004", "UPA005", "UPA006",
            "UPA010", "UPA015",
            "UPA101", "UPA102", "UPA103", "UPA104",
            "UPA201", "UPA202", "UPA203",
            "UPA301", "UPA302", "UPA303", "UPA304", "UPA305",
        }

    def test_json_renderer_round_trips(self):
        diags = check_query(RandomMapperQuery())
        payload = json.loads(render_json(diags))
        assert payload["errors"] >= 1
        assert payload["diagnostics"][0]["code"].startswith("UPA")

    def test_text_renderer_mentions_code_and_severity(self):
        diags = check_query(NonCommutativeQuery())
        text = render_text(diags)
        assert "UPA004" in text and "error" in text

    def test_unknown_code_rejected(self):
        from repro.staticcheck import make_diagnostic

        with pytest.raises(KeyError):
            make_diagnostic("UPA999", "nope")


class TestCLIAndReport:
    def test_run_lint_over_workloads_and_examples_is_error_free(self):
        # leaky_pipeline.py is the taint pass's deliberately-bad
        # fixture; everything else must stay clean.
        report = run_lint(
            paths=["examples"],
            exclude=["examples/leaky_pipeline.py"],
        )
        assert report.ok, render_text(report.errors)
        assert report.exit_code == 0

    def test_cli_lint_json(self, capsys):
        code = cli_main([
            "lint", "--json", "--no-workloads", "examples",
            "--exclude", "examples/leaky_pipeline.py",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["errors"] == 0

    def test_cli_lint_nonzero_on_error(self, tmp_path, capsys):
        bad = tmp_path / "bad_script.py"
        bad.write_text(
            "session = UPASession(accountant=a)\n"
            "session.run(q, t, epsilon=0.0)\n"
        )
        code = cli_main(["lint", "--no-workloads", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "UPA202" in out

    def test_cli_lint_single_workload(self, capsys):
        code = cli_main(["lint", "--workload", "tpch1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 error(s)" in out

    def test_cli_lint_nothing_selected_is_a_usage_error(self, capsys):
        code = cli_main(["lint", "--no-workloads"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nothing to lint" in captured.err
        assert captured.out == ""

    def test_cli_lint_workload_with_no_workloads_is_a_usage_error(
        self, capsys
    ):
        code = cli_main(["lint", "--no-workloads", "--workload", "tpch1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "contradict" in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# Every code names what it caught (docs/static_analysis.md)
# ---------------------------------------------------------------------------

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
_RETIRED = ("UPA011", "UPA012", "UPA013", "UPA014")


def _catalog():
    """code -> (severity, caught), from the doc's "Diagnostic catalog"."""
    path = os.path.join(_ROOT, "docs", "static_analysis.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("## Diagnostic catalog", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| UPA"):
            cells = [cell.strip() for cell in line.strip("| \n").split("|")]
            rows[cells[0]] = (cells[1], cells[-1])
    return rows


@functools.lru_cache(maxsize=None)
def _fired():
    """(code, file) for every finding on shipped code: the nine
    workloads plus the script passes over examples/ and the built-in
    query packages.  Plan findings carry no file; they count for the
    file that defines the workload's query."""
    from repro.workloads import all_workloads

    sources = {
        w.name: inspect.getsourcefile(type(w.query)) for w in all_workloads()
    }
    report = run_lint(paths=[
        os.path.join(_ROOT, sub)
        for sub in ("examples", "src/repro/tpch", "src/repro/mining")
    ])
    return {
        (d.code, os.path.relpath(
            os.path.abspath(d.file) if d.file else sources.get(d.obj, ""),
            _ROOT,
        ))
        for d in report.diagnostics
    }


def _fixture_codes(path, dotted, monkeypatch):
    """Codes the analyzer emits on the fixture ``dotted`` in ``path``:
    ``check_query`` on a query class, or every diagnostic built while
    a test method runs."""
    owner = importlib.import_module(path[:-len(".py")].replace("/", "."))
    parent = None
    for name in dotted.split("."):
        parent, owner = owner, getattr(owner, name)
    if isinstance(owner, type):
        return {d.code for d in check_query(owner)}
    emitted = set()
    build = Diagnostic.__init__

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        emitted.add(self.code)

    monkeypatch.setattr(Diagnostic, "__init__", recording)
    owner(parent())
    return emitted


@pytest.mark.parametrize("code", sorted(CODE_REGISTRY))
def test_every_code_names_what_it_caught(code, monkeypatch):
    severity, caught = _catalog().get(code, ("", ""))
    assert severity and severity != "retired", (
        f"docs/static_analysis.md has no live catalog row for {code}"
    )
    named = re.findall(r"`([^`]+\.py(?:::[\w.]+)?)`", caught)
    assert named, f"the catalog names nothing {code} caught"
    fixture_only = caught.startswith("fixture only:")
    for target in named:
        path, _, fixture = target.partition("::")
        if path.startswith("tests/"):
            assert fixture_only and fixture, (
                f"{code}: a tests/ file is a fixture; name the fixture"
            )
            assert code in _fixture_codes(path, fixture, monkeypatch), (
                f"{code} does not fire on {target}"
            )
        else:
            assert (code, path) in _fired(), (
                f"{code} does not fire on {path}"
            )


@pytest.mark.parametrize("code", _RETIRED)
def test_retired_codes_stay_retired(code):
    assert code not in CODE_REGISTRY
    assert _catalog()[code][0] == "retired"


def test_catalog_rows_are_the_registry_plus_retired_codes():
    assert set(_catalog()) == set(CODE_REGISTRY) | set(_RETIRED)


class TestAccountantHardening:
    def test_repr_shows_spend_and_remaining(self):
        from repro.dp import PrivacyAccountant

        acct = PrivacyAccountant(total_epsilon=1.0)
        acct.charge(0.25, label="q")
        text = repr(acct)
        assert "0.25" in text and "0.75" in text and "queries=1" in text

    def test_non_finite_parameters_rejected(self):
        from repro.common.errors import DPError
        from repro.dp import PrivacyAccountant

        for bad in (float("nan"), float("inf")):
            with pytest.raises(DPError):
                PrivacyAccountant(total_epsilon=bad)
        acct = PrivacyAccountant(total_epsilon=1.0, total_delta=1e-6)
        with pytest.raises(DPError):
            acct.charge(float("nan"))
        with pytest.raises(DPError):
            acct.charge(0.1, delta=float("inf"))

    def test_spent_and_charge_agree(self):
        from repro.dp import PrivacyAccountant

        acct = PrivacyAccountant(total_epsilon=1.0, total_delta=1e-5)
        acct.charge(0.3, delta=2e-6, label="a")
        acct.charge(0.2, delta=3e-6, label="b")
        eps, delta = acct.spent()
        assert eps == pytest.approx(0.5)
        assert delta == pytest.approx(5e-6)
        assert acct.remaining_epsilon() == pytest.approx(0.5)
