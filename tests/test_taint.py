"""Tests for the interprocedural taint pass (UPA3xx) and the shared
dataflow framework (cfg + worklist engine), plus deterministic
ordering and the strict session gate.

The deliberately leaky script ``examples/leaky_pipeline.py`` is the
ground-truth fixture: every violation line carries a ``# BAD: UPAxxx``
marker and the tests assert the analyzer reports exactly that set.
"""

import ast
import functools
import os
import re

import pytest

from repro import UPAConfig, UPASession, MapReduceQuery, declassify
from repro.common.errors import StaticAnalysisError
from repro.dp import PrivacyAccountant
from repro.staticcheck import (
    Severity,
    build_cfg,
    check_query,
    check_query_taint,
    check_source,
    check_source_taint,
    dedupe,
    env_join,
    lint_paths,
    solve_forward,
)
from repro.staticcheck import taint

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
LEAKY = os.path.join(EXAMPLES_DIR, "leaky_pipeline.py")

CLEAN_EXAMPLES = [
    "quickstart.py",
    "attack_defense.py",
    "grouped_histogram.py",
    "ad_hoc_sql.py",
    "private_ml.py",
    "tpch_private_analytics.py",
]


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class TestCFG:
    def _cfg(self, src):
        return build_cfg(ast.parse(src).body)

    def test_straight_line_single_block(self):
        cfg = self._cfg("a = 1\nb = 2\nc = 3\n")
        populated = [b for b in cfg.blocks_in_order() if b.elements]
        assert len(populated) == 1
        assert len(populated[0].elements) == 3

    def test_if_else_branches_and_join(self):
        cfg = self._cfg("if c:\n    x = 1\nelse:\n    x = 2\ny = x\n")
        guarded = [b for b in cfg.blocks_in_order() if b.guards]
        assert len(guarded) == 2  # then + else
        assert all(g.kind == "if" for b in guarded for g in b.guards)
        # both arms flow into the join block holding `y = x`
        join = [
            b for b in cfg.blocks_in_order()
            if any(isinstance(e, ast.Assign) and e.targets[0].id == "y"
                   for e in b.elements if isinstance(e, ast.Assign))
        ]
        assert len(join) == 1
        assert len(join[0].preds) == 2

    def test_while_has_back_edge(self):
        cfg = self._cfg("while c:\n    x = 1\n")
        back = [
            (b.bid, s) for b in cfg.blocks_in_order() for s in b.succs
            if s < b.bid
        ]
        assert back, "loop body must feed back to the header"

    def test_nested_guards_stack(self):
        cfg = self._cfg(
            "if a:\n    if b:\n        x = 1\n"
        )
        depths = {len(b.guards) for b in cfg.blocks_in_order()}
        assert 2 in depths

    def test_return_edges_to_exit(self):
        cfg = self._cfg("if c:\n    return 1\nx = 2\n")
        exit_preds = cfg.blocks[cfg.exit].preds
        assert len(exit_preds) >= 2  # the return and the fallthrough

    def test_try_body_reaches_handler(self):
        cfg = self._cfg(
            "try:\n    x = f()\nexcept ValueError:\n    x = 0\ny = x\n"
        )
        handler = [
            b for b in cfg.blocks_in_order()
            if any(g.kind == "except" for g in b.guards)
        ]
        assert len(handler) == 1
        assert handler[0].preds  # reachable from the try body


# ---------------------------------------------------------------------------
# Worklist engine
# ---------------------------------------------------------------------------


class TestDataflow:
    def test_branch_labels_join_at_merge(self):
        src = (
            "if c:\n    x = taint()\nelse:\n    x = clean()\ny = x\n"
        )
        cfg = build_cfg(ast.parse(src).body)

        def transfer(block, env):
            env = dict(env)
            for elem in block.elements:
                if isinstance(elem, ast.Assign) and isinstance(
                    elem.value, ast.Call
                ):
                    callee = elem.value.func.id
                    label = (frozenset({"T"}) if callee == "taint"
                             else frozenset())
                    for t in elem.targets:
                        env[t.id] = label | env.get(t.id, frozenset())
                elif isinstance(elem, ast.Assign) and isinstance(
                    elem.value, ast.Name
                ):
                    for t in elem.targets:
                        env[t.id] = env.get(elem.value.id, frozenset())
            return env

        states = solve_forward(cfg, transfer, {}, env_join)
        exit_in = states[cfg.exit][0]
        # x may be tainted (one branch), so y may be tainted too.
        assert "T" in exit_in["x"]
        assert "T" in exit_in["y"]

    def test_loop_reaches_fixed_point(self):
        src = "x = seed()\nwhile c:\n    x = taint()\ny = x\n"
        cfg = build_cfg(ast.parse(src).body)

        def transfer(block, env):
            env = dict(env)
            for elem in block.elements:
                if isinstance(elem, ast.Assign) and isinstance(
                    elem.value, ast.Call
                ):
                    label = (frozenset({"T"})
                             if elem.value.func.id == "taint"
                             else frozenset({"S"}))
                    for t in elem.targets:
                        env[t.id] = label
                elif isinstance(elem, ast.Assign) and isinstance(
                    elem.value, ast.Name
                ):
                    for t in elem.targets:
                        env[t.id] = env.get(elem.value.id, frozenset())
            return env

        states = solve_forward(cfg, transfer, {}, env_join)
        exit_in = states[cfg.exit][0]
        # after the loop, x is the seed (0 iterations) OR tainted.
        assert exit_in["x"] == frozenset({"S", "T"})


# ---------------------------------------------------------------------------
# The leaky fixture: exact findings at exact lines
# ---------------------------------------------------------------------------


def _expected_markers():
    expected = []
    with open(LEAKY, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            match = re.search(r"# BAD: (UPA\d+)", line)
            if match:
                expected.append((match.group(1), lineno))
    return expected


class TestLeakyFixture:
    def test_every_marked_line_is_flagged_and_nothing_else(self):
        expected = set(_expected_markers())
        assert len(expected) >= 9, "fixture must stay comprehensive"
        found = {
            (d.code, d.line) for d in taint.check_file(LEAKY)
        }
        assert found == expected

    def test_fixture_has_each_violation_class(self):
        codes = {code for code, _ in _expected_markers()}
        assert codes == {"UPA301", "UPA302", "UPA303", "UPA304"}

    def test_lint_paths_fails_the_fixture(self):
        diags = lint_paths([LEAKY])
        assert any(d.severity == Severity.ERROR for d in diags)

    def test_exclude_silences_the_fixture(self):
        assert lint_paths([LEAKY], exclude=[LEAKY]) == []

    def test_interprocedural_leak_is_inside_the_helper(self):
        diags = taint.check_file(LEAKY)
        src = open(LEAKY, "r", encoding="utf-8").read().splitlines()
        helper_lines = [
            d.line for d in diags
            if d.code == "UPA301" and "interprocedural" in src[d.line - 1]
        ]
        assert helper_lines, "the dump_rows print must be flagged"


class TestCleanExamples:
    @pytest.mark.parametrize("name", CLEAN_EXAMPLES)
    def test_clean_example_has_no_taint_findings(self, name):
        diags = taint.check_file(os.path.join(EXAMPLES_DIR, name))
        assert diags == []


# ---------------------------------------------------------------------------
# Targeted taint semantics
# ---------------------------------------------------------------------------


class TestTaintSemantics:
    def test_declassify_sanitizes(self):
        src = (
            "tables = make_tables(100)\n"
            "print(declassify(tables['t'][0], reason='reviewed'))\n"
        )
        assert check_source_taint(src, "s.py") == []

    def test_session_run_sanitizes(self):
        src = (
            "tables = make_tables(100)\n"
            "r = session.run(q, tables, epsilon=0.1)\n"
            "print(r)\n"
        )
        assert check_source_taint(src, "s.py") == []

    def test_source_flows_through_fstring(self):
        src = (
            "tables = make_tables(100)\n"
            "row = tables['t'][0]\n"
            "print(f'row={row}')\n"
        )
        codes = [d.code for d in check_source_taint(src, "s.py")]
        assert codes == ["UPA301"]

    def test_registration_marks_variable_protected(self):
        src = (
            "rows = load_rows()\n"
            "sql.create_table('t', rows, schema)\n"
            "print(rows)\n"
        )
        codes = [d.code for d in check_source_taint(src, "s.py")]
        assert codes == ["UPA301"]

    def test_opaque_aggregates_stay_clean(self):
        src = (
            "tables = make_tables(100)\n"
            "print(len(tables['t']))\n"
            "print(query.output(tables)[0])\n"
        )
        assert check_source_taint(src, "s.py") == []

    def test_evaluation_field_flow_is_info(self):
        src = (
            "result = session.run(q, tables, epsilon=0.5)\n"
            "raw = result.raw_output\n"
            "print(raw)\n"
        )
        diags = check_source_taint(src, "s.py")
        assert [(d.code, d.line) for d in diags] == [("UPA305", 3)]
        assert diags[0].severity == Severity.INFO

    def test_branch_only_taints_guarded_release(self):
        src = (
            "tables = make_tables(100)\n"
            "v = tables['t'][0]\n"
            "if v > 3:\n"
            "    session.run(q, tables, epsilon=0.1)\n"
            "session.run(q, tables, epsilon=0.1)\n"
        )
        diags = check_source_taint(src, "s.py")
        assert [(d.code, d.line) for d in diags] == [("UPA302", 4)]

    def test_monoid_method_print_is_flagged(self):
        class LeakyQuery(MapReduceQuery):
            name = "leaky-monoid"
            protected_table = "t"

            def map_record(self, record, aux=None):
                print(record)
                return 1.0

            def reduce_batch(self, a, b):
                return a + b

        codes = [d.code for d in check_query_taint(LeakyQuery())]
        assert "UPA301" in codes

    def test_clean_monoid_method_is_not_flagged(self):
        class CleanQuery(MapReduceQuery):
            name = "clean-monoid"
            protected_table = "t"

            def map_record(self, record, aux=None):
                return float(record["v"])

            def reduce_batch(self, a, b):
                return a + b

        assert check_query_taint(CleanQuery()) == []


# ---------------------------------------------------------------------------
# Strict session gate
# ---------------------------------------------------------------------------


class TestStrictGate:
    def _tables(self):
        return {"t": [{"v": float(i)} for i in range(20)]}

    def test_taint_error_blocks_before_any_charge(self):
        class LeakyQuery(MapReduceQuery):
            name = "leaky-gate"
            protected_table = "t"

            def map_record(self, record, aux=None):
                print(record)
                return 1.0

            def reduce_batch(self, a, b):
                return a + b

        accountant = PrivacyAccountant(total_epsilon=1.0)
        session = UPASession(
            UPAConfig(sample_size=4, seed=0, strict=True),
            accountant=accountant,
        )
        with pytest.raises(StaticAnalysisError, match="UPA301"):
            session.run(LeakyQuery(), self._tables(), epsilon=0.5)
        spent = accountant.spent()
        assert not any(spent) if isinstance(spent, tuple) else spent == 0

    def test_clean_query_passes_the_gate(self):
        import random

        import numpy as np

        class CleanQuery(MapReduceQuery):
            name = "clean-gate"
            protected_table = "t"
            output_dim = 1

            def map_record(self, record, aux=None):
                return 1.0

            def zero(self):
                return 0.0

            def combine(self, a, b):
                return a + b

            def finalize(self, agg, aux=None):
                return np.asarray([float(agg)], dtype=float)

            def sample_domain_record(self, rng: random.Random, tables):
                return {"v": rng.randrange(10)}

        session = UPASession(
            UPAConfig(sample_size=4, seed=0, strict=True),
            accountant=PrivacyAccountant(total_epsilon=1.0),
        )
        result = session.run(CleanQuery(), self._tables(), epsilon=0.5)
        assert result.noisy_output is not None


# ---------------------------------------------------------------------------
# UPA006 regression: decorated / partialmethod monoid methods
# ---------------------------------------------------------------------------


class TestSourceUnavailableRegression:
    def test_partialmethod_source_is_found(self):
        class PartialQuery(MapReduceQuery):
            name = "partial-query"
            protected_table = "t"

            def _map_impl(self, record, scale=1.0):
                return {"v": record["v"] * scale}

            map_record = functools.partialmethod(_map_impl, scale=2.0)

            def reduce_batch(self, a, b):
                return {"v": a["v"] + b["v"]}

        codes = [d.code for d in check_query(PartialQuery())]
        assert "UPA006" not in codes

    def test_wraps_chain_source_is_found(self):
        def traced(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return func(*args, **kwargs)

            return wrapper

        class WrappedQuery(MapReduceQuery):
            name = "wrapped-query"
            protected_table = "t"

            @traced
            def map_record(self, record, aux=None):
                return float(record["v"])

            def reduce_batch(self, a, b):
                return a + b

        codes = [d.code for d in check_query(WrappedQuery())]
        assert "UPA006" not in codes


# ---------------------------------------------------------------------------
# Ordering / dedupe
# ---------------------------------------------------------------------------


class TestOrderingAndDedupe:
    def test_findings_sorted_by_file_line_col_code(self):
        diags = taint.check_file(LEAKY)
        ordered = dedupe(diags)
        keys = [(d.file, d.line, d.col, d.code) for d in ordered]
        assert keys == sorted(keys)

    def test_identical_findings_collapse(self):
        diags = taint.check_file(LEAKY)
        assert dedupe(diags + diags) == dedupe(diags)

    def test_lint_paths_is_deterministic(self):
        first = lint_paths([LEAKY])
        second = lint_paths([LEAKY])
        assert first == second


# ---------------------------------------------------------------------------
# Budgetflow on the shared engine
# ---------------------------------------------------------------------------


class TestBudgetflowMigration:
    def test_uncharged_session_still_flagged(self):
        src = (
            "s = UPASession(UPAConfig())\n"
            "s.run(q, tables, epsilon=0.1)\n"
        )
        codes = [d.code for d in check_source(src, "s.py")]
        assert codes == ["UPA201"]

    def test_charged_on_one_branch_is_not_flagged(self):
        src = (
            "if cheap:\n"
            "    s = UPASession(UPAConfig())\n"
            "else:\n"
            "    s = UPASession(UPAConfig(), accountant=acct)\n"
            "s.run(q, tables, epsilon=0.1)\n"
        )
        # May-analysis: some path charges, so the release is not
        # *provably* uncharged — stay silent rather than cry wolf.
        assert check_source(src, "s.py") == []

    def test_uncharged_on_all_branches_is_flagged(self):
        src = (
            "if cheap:\n"
            "    s = UPASession(UPAConfig())\n"
            "else:\n"
            "    s = UPASession(UPAConfig())\n"
            "s.run(q, tables, epsilon=0.1)\n"
        )
        codes = [d.code for d in check_source(src, "s.py")]
        assert codes == ["UPA201"]

    def test_rebinding_clears_tracking(self):
        src = (
            "s = UPASession(UPAConfig())\n"
            "s = make_session_with_accountant()\n"
            "s.run(q, tables, epsilon=0.1)\n"
        )
        assert check_source(src, "s.py") == []


# ---------------------------------------------------------------------------
# declassify runtime behavior
# ---------------------------------------------------------------------------


class TestDeclassify:
    def test_identity_at_runtime(self):
        value = {"k": 1}
        assert declassify(value, reason="test") is value

    def test_reason_is_mandatory_and_non_empty(self):
        with pytest.raises(ValueError):
            declassify(1, reason="")
        with pytest.raises(ValueError):
            declassify(1, reason="   ")
        with pytest.raises(TypeError):
            declassify(1)  # reason is keyword-only and required
