"""The engine, the SQL layer and the packages keep what their callers run.

Every public method of :class:`RDD` and :class:`EngineContext`, of
:class:`SQLSession`, its :class:`Catalog` and the :class:`SQLQuery`
that ``SQLSession.sql`` returns, and every name in the ``__all__`` of
``repro``, ``repro.core``, ``repro.dp``, ``repro.mining`` and
``repro.sql``, is listed here with one caller outside ``tests/`` that
needs it: a function under ``src/``, ``examples/`` or
``benchmarks/``, or a kept engine method that calls it (which is listed
in turn).  A public method or exported name with no named caller fails,
and so does a named caller that no longer uses it — so what only tests
reach is deleted, not kept (DESIGN.md §7, "The engine keeps what its
callers run" and "The SQL layer keeps what SQL text reaches").

Every package (``repro.core``, ``tpch``, ``baselines``, ``dp``,
``mining``, ``analysis``, ``sql``, ``engine``, ``common``, ``obs``,
``repro.workloads`` and ``repro.cli``) is held to the same rule by a
scan instead of a table: each public function, class and method there
must be named somewhere in ``src/`` outside its own definition, or
anywhere in ``examples/`` or ``benchmarks/``; a re-export in an
``__init__.py`` is not a use.  A bare name does not tell two classes'
methods apart, so a method whose name a class outside its own
hierarchy under ``src/`` also defines is judged by its root (the
base-class method it overrides, else itself): the root is listed in
``SHARED_NAME_CALLERS`` with a caller that is checked, as the tables
above are.  ``KEPT_WITHOUT_CALLER`` lists the few that stay unnamed,
each with its reason.  ``repro.obs``'s surfaces
also need a consumer in ``tests/test_obs.py``'s table.
"""

import ast
import functools
import importlib
import re
from pathlib import Path

import pytest

from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.sql.catalog import Catalog
from repro.sql.session import SQLQuery, SQLSession

ROOT = Path(__file__).resolve().parent.parent

#: method -> "path::qualname" of a function that calls it.
RDD_CALLERS = {
    # a release: parallelize -> map_partitions -> aggregate
    "map_partitions": "src/repro/core/session.py::reduce_phase",
    "aggregate": "src/repro/core/session.py::reduce_phase",
    "map": "src/repro/core/session.py::UPASession.run_vanilla",
    # the Table I operators
    "collect": "src/repro/core/dpobject.py::dpread",
    "count": "src/repro/core/dpobject.py::JoinDPResult.count",
    # kept engine methods and the scheduler
    "compute": "src/repro/engine/rdd.py::RDD.iterator",
    "iterator": "src/repro/engine/scheduler.py::TaskScheduler._run_task",
}

CONTEXT_CALLERS = {
    "parallelize": "src/repro/core/session.py::reduce_phase",
    "install_tracer": "src/repro/core/session.py::UPASession.run",
    # fault injection with lineage retry
    "install_fault_injector": "examples/quickstart.py::main",
}

#: the SQL layer: text in (``sql``), a plan's rows out (``collect``).
SQL_SESSION_CALLERS = {
    "create_table": "benchmarks/e2e/workloads.py::_plain_sql",
    "execute_plan": "src/repro/core/sqlbridge.py::CompiledSQLQuery.build_aux",
    "sql": "src/repro/cli.py::_cmd_compare",
}

CATALOG_CALLERS = {
    "register": "src/repro/sql/session.py::SQLSession.create_table",
    "table": "src/repro/sql/parser.py::_Scope.__init__",
    "rdd": "src/repro/sql/physical.py::Executor._stage",
}

SQL_QUERY_CALLERS = {
    "collect": "benchmarks/e2e/workloads.py::_plain_sql",
}

#: package -> {name in its ``__all__``: "path::qualname" of a function
#: that uses it}.
EXPORT_CALLERS = {
    "repro": {
        "DPObject": "src/repro/core/dpobject.py::dpread",
        "DPObjectKV": "src/repro/core/dpobject.py::DPObject.as_kv",
        "EngineContext": "src/repro/core/session.py::reduce_phase",
        "MapReduceQuery":
            "src/repro/baselines/bruteforce.py::exact_local_sensitivity",
        "SQLSession": "src/repro/core/sqlbridge.py::compile_sql",
        "UPAConfig": "src/repro/cli.py::_cmd_run",
        "UPAResult": "src/repro/core/session.py::release",
        "UPASession": "src/repro/cli.py::_cmd_run",
        "dpread": "examples/quickstart.py::main",
        "__version__": "src/repro/cli.py::_build_parser",
    },
    "repro.core": {
        "MapReduceQuery":
            "src/repro/baselines/bruteforce.py::exact_local_sensitivity",
        "UPAConfig": "src/repro/cli.py::_cmd_run",
        "UPAResult": "src/repro/core/session.py::release",
        "UPASession": "src/repro/cli.py::_cmd_run",
    },
    "repro.dp": {
        "LaplaceMechanism": "src/repro/core/session.py::add_noise",
        "PrivacyAccountant": "src/repro/core/session.py::UPASession.__init__",
        "laplace_noise":
            "src/repro/dp/mechanisms.py::LaplaceMechanism.randomize",
    },
    "repro.mining": {
        "KMeansQuery": "src/repro/workloads.py::all_workloads",
        "LifeScienceConfig": "src/repro/workloads.py::_ml_tables",
        "LinearRegressionQuery": "src/repro/workloads.py::all_workloads",
        "make_life_science_tables": "src/repro/workloads.py::_ml_tables",
    },
    "repro.sql": {
        "Expression": "src/repro/core/sqlbridge.py::_DynFilter.__init__",
        "SQLSession": "src/repro/cli.py::_cmd_compare",
        "col": "src/repro/tpch/queries/q13.py::Q13.build_aux",
        "compile_expression": "src/repro/core/sqlbridge.py::_row_key",
        "compile_predicate": "src/repro/core/sqlbridge.py::_DynFilter.__init__",
        "compile_projection": "src/repro/sql/physical.py::Executor._stage",
        "plan_fingerprint": "src/repro/core/sqlbridge.py::_compile_dynamic",
    },
}

_CLASSES = [
    (RDD, RDD_CALLERS),
    (EngineContext, CONTEXT_CALLERS),
    (SQLSession, SQL_SESSION_CALLERS),
    (Catalog, CATALOG_CALLERS),
    (SQLQuery, SQL_QUERY_CALLERS),
]

_CASES = [
    (cls, name, caller)
    for cls, table in _CLASSES
    for name, caller in sorted(table.items())
]


def _public_methods(cls) -> set:
    return {
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, property))
    }


@functools.lru_cache(maxsize=None)
def _tree(path: str) -> ast.Module:
    return ast.parse((ROOT / path).read_text())


def _function(path: str, qualname: str) -> ast.AST:
    node: ast.AST = _tree(path)
    for part in qualname.split("."):
        node = next(
            (
                child for child in ast.iter_child_nodes(node)
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
                and child.name == part
            ),
            None,
        )
        assert node is not None, f"{path} defines no {qualname}"
    return node


@pytest.mark.parametrize(
    "cls, table", _CLASSES, ids=[cls.__name__ for cls, _ in _CLASSES],
)
def test_every_public_method_has_a_named_caller(cls, table):
    public = _public_methods(cls)
    assert not public - set(table), (
        f"{cls.__name__} methods with no caller outside tests/: "
        f"{sorted(public - set(table))}"
    )
    assert not set(table) - public, (
        f"listed but not {cls.__name__} methods: "
        f"{sorted(set(table) - public)}"
    )


def test_sql_returns_the_listed_class():
    """What ``SQLSession.sql`` returns is the class whose methods are
    listed, so a builder method added to it fails above."""
    session = SQLSession()
    session.create_table("t", [{"a": 1}])
    assert type(session.sql("SELECT a FROM t")) is SQLQuery


@pytest.mark.parametrize(
    "cls, name, caller", _CASES,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in _CASES],
)
def test_named_caller_still_calls_it(cls, name, caller):
    path, qualname = caller.split("::")
    assert path.split("/")[0] in ("src", "examples", "benchmarks"), caller
    function = _function(path, qualname)
    assert any(
        isinstance(node, ast.Attribute) and node.attr == name
        for node in ast.walk(function)
    ), f"{caller} no longer uses .{name}"


@pytest.mark.parametrize("package", sorted(EXPORT_CALLERS))
def test_every_exported_name_has_a_named_caller(package):
    exported = set(importlib.import_module(package).__all__)
    table = set(EXPORT_CALLERS[package])
    assert not exported - table, (
        f"{package} exports with no caller outside tests/: "
        f"{sorted(exported - table)}"
    )
    assert not table - exported, (
        f"listed but not exported by {package}: {sorted(table - exported)}"
    )


_EXPORT_CASES = [
    (package, name, caller)
    for package, table in sorted(EXPORT_CALLERS.items())
    for name, caller in sorted(table.items())
]


@pytest.mark.parametrize(
    "package, name, caller", _EXPORT_CASES,
    ids=[f"{package}.{name}" for package, name, _ in _EXPORT_CASES],
)
def test_named_caller_still_uses_the_export(package, name, caller):
    path, qualname = caller.split("::")
    assert path.split("/")[0] in ("src", "examples", "benchmarks"), caller
    function = _function(path, qualname)
    assert any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        for node in ast.walk(function)
    ), f"{caller} no longer uses {name}"


# ---------------------------------------------------------------------------
# Every public definition of the pipeline's packages is named by a caller
# ---------------------------------------------------------------------------

#: what the scan below holds to the rule, under ``src/repro``.
SCANNED = ("core", "tpch", "baselines", "dp", "mining", "analysis",
           "workloads.py", "sql", "engine", "common", "obs", "cli.py")

#: "path::qualname" (or a whole module's path) -> why it stays with no
#: caller in the program.
KEPT_WITHOUT_CALLER = {
    "src/repro/core/dpobject.py::DPObjectKV.map_dp_kv":
        "Table I's mapDP over key/value objects: the operator API a "
        "Spark program ports to (DESIGN.md section 7)",
    "src/repro/core/dpobject.py::JoinDPResult.influence_of_left":
        "Table I's joinDP: a record's influence through the left side",
    "src/repro/core/dpobject.py::JoinDPResult.influence_of_right":
        "Table I's joinDP: a record's influence through the right side",
    "src/repro/core/group_privacy.py":
        "the paper's section VI-E group-privacy extension, which "
        "DESIGN.md section 7 keeps",
    "src/repro/baselines/flex/smooth.py::flex_smooth_sensitivity":
        "FLEX's smooth bound, the form ROADMAP item 1(c)(i) names",
}

#: "path::Class.method" -> "path::qualname" of a function that calls it,
#: for each root method whose bare name another root under ``src/``
#: shares (the methods of the classes in ``_CLASSES`` are listed there).
SHARED_NAME_CALLERS = {
    "src/repro/core/batch.py::ScalarSumBatch.combine_batch":
        "src/repro/core/session.py::reduce_phase",
    "src/repro/core/batch.py::ScalarSumBatch.finalize_batch":
        "src/repro/core/session.py::_PipelineState.partition_outputs",
    "src/repro/core/batch.py::ScalarSumBatch.fold_batch":
        "src/repro/core/session.py::_PipelineState._fold_samples_in",
    "src/repro/core/batch.py::ScalarSumBatch.map_batch":
        "src/repro/core/session.py::_MapFoldSlice.__call__",
    "src/repro/core/batch.py::ScalarSumBatch.prefix_suffix_batch":
        "src/repro/core/session.py::reduce_phase",
    "src/repro/core/dpobject.py::JoinDPResult.count":
        "examples/quickstart.py::main",
    "src/repro/core/query.py::MapReduceQuery.combine_batch":
        "src/repro/core/session.py::reduce_phase",
    "src/repro/core/query.py::MapReduceQuery.finalize_batch":
        "src/repro/core/session.py::reduce_phase",
    "src/repro/core/query.py::MapReduceQuery.fold_batch":
        "src/repro/core/session.py::_MapFoldSlice.__call__",
    "src/repro/core/query.py::MapReduceQuery.map_batch":
        "src/repro/core/session.py::_MapFoldSlice.__call__",
    "src/repro/core/query.py::MapReduceQuery.prefix_suffix_batch":
        "src/repro/core/session.py::reduce_phase",
    "src/repro/core/query.py::MapReduceQuery.zero":
        "src/repro/core/session.py::reduce_phase",
    "src/repro/core/range_enforcer.py::EnforcerRuntime.final_output":
        "src/repro/core/range_enforcer.py::RangeEnforcer.enforce",
    "src/repro/core/range_enforcer.py::EnforcerRuntime.partition_outputs":
        "src/repro/core/range_enforcer.py::RangeEnforcer._read",
    "src/repro/core/range_enforcer.py::EnforcerRuntime.remove_two_records":
        "src/repro/core/range_enforcer.py::RangeEnforcer.enforce",
    "src/repro/core/range_enforcer.py::_ShapeRegistry.append":
        "src/repro/core/range_enforcer.py::RangeEnforcer.enforce",
    "src/repro/core/sampling.py::RecordView.numpy_column":
        "src/repro/core/batch.py::column_values",
    "src/repro/core/session.py::UPASession.append":
        "src/repro/cli.py::_cmd_run",
    "src/repro/core/session.py::UPASession.retire":
        "benchmarks/e2e/workloads.py::IncrWindow.round",
    "src/repro/core/session.py::_IncrementalState.matches":
        "src/repro/core/session.py::UPASession._remember_run",
    "src/repro/core/session.py::_PipelineState.final_output":
        "src/repro/core/range_enforcer.py::RangeEnforcer.enforce",
    "src/repro/core/session.py::_PipelineState.partition_outputs":
        "src/repro/core/range_enforcer.py::RangeEnforcer._read",
    "src/repro/core/session.py::_PipelineState.remove_two_records":
        "src/repro/core/range_enforcer.py::RangeEnforcer.enforce",
    "src/repro/core/session.py::_VanillaAux.value":
        "src/repro/core/session.py::UPASession.run_vanilla",
    "src/repro/core/sqlbridge.py::_Block.numpy_column":
        "src/repro/sql/vectorized.py::_ColumnValue.__call__",
    "src/repro/core/sqlbridge.py::_Block.take":
        "src/repro/core/sqlbridge.py::_DynFilter.block",
    "src/repro/core/sqlbridge.py::_StaticIndex.lookup":
        "src/repro/core/sqlbridge.py::_DynJoinStatic.block",
    "src/repro/core/table.py::ProtectedTable.append":
        "src/repro/core/table.py::TableRegistry.append",
    "src/repro/core/table.py::ProtectedTable.matches":
        "src/repro/core/table.py::TableRegistry.lookup",
    "src/repro/core/table.py::ProtectedTable.retire":
        "src/repro/core/table.py::TableRegistry.retire",
    "src/repro/core/table.py::TableRegistry.append":
        "src/repro/core/session.py::UPASession.append",
    "src/repro/core/table.py::TableRegistry.lookup":
        "src/repro/core/session.py::UPASession._lookup",
    "src/repro/core/table.py::TableRegistry.retire":
        "src/repro/core/session.py::UPASession.retire",
    "src/repro/dp/budget.py::_RunningSum.add":
        "src/repro/dp/budget.py::PrivacyAccountant.charge",
    "src/repro/dp/budget.py::_RunningSum.value":
        "src/repro/dp/budget.py::PrivacyAccountant.spent",
    "src/repro/engine/columnar.py::ColumnarPartition.numpy_column":
        "src/repro/core/batch.py::column_values",
    "src/repro/engine/columnar.py::ColumnarPartition.take":
        "src/repro/engine/columnar.py::ColumnarPartition.__getitem__",
    "src/repro/engine/metrics.py::MetricsRegistry.get":
        "src/repro/engine/scheduler.py::TaskScheduler.run_job",
    "src/repro/engine/metrics.py::MetricsSnapshot.get":
        "src/repro/cli.py::_cmd_run",
    "src/repro/obs/ledger.py::LedgerEntry.to_dict":
        "src/repro/obs/ledger.py::PrivacyLedger.dump_jsonl",
    "src/repro/obs/ledger.py::PrivacyLedger.append":
        "src/repro/core/session.py::UPASession._append_ledger",
    "src/repro/obs/report.py::ObservedRun.to_dict":
        "src/repro/obs/report.py::ObservedRun.render_json",
    "src/repro/obs/report.py::SpanStat.to_dict":
        "src/repro/obs/report.py::ObservedRun.to_dict",
    "src/repro/obs/tracing.py::Span.set_attribute":
        "src/repro/core/session.py::_fit",
    "src/repro/obs/tracing.py::_NullSpan.set_attribute":
        "src/repro/core/session.py::_fit",
    "src/repro/sql/expr.py::Expression.children":
        "src/repro/sql/parser.py::_refuse_placeholders",
    "src/repro/sql/expr.py::Expression.references":
        "src/repro/sql/optimizer.py::_required_for_node",
    "src/repro/sql/functions.py::AggregateSpec.add":
        "src/repro/sql/physical.py::Executor._execute_aggregate",
    "src/repro/sql/functions.py::AggregateSpec.merge":
        "src/repro/sql/physical.py::Executor._execute_aggregate",
    "src/repro/sql/functions.py::AggregateSpec.references":
        "src/repro/sql/logical.py::Aggregate.__init__",
    "src/repro/sql/functions.py::AggregateSpec.zero":
        "src/repro/sql/physical.py::Executor._execute_aggregate",
    "src/repro/sql/logical.py::LogicalPlan.children":
        "src/repro/sql/logical.py::LogicalPlan.walk",
    "src/repro/sql/types.py::Schema.merge":
        "src/repro/sql/logical.py::Join.__init__",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z_0-9]*(\.[A-Za-z_][A-Za-z_0-9]*)*")


def _scanned_files():
    for part in SCANNED:
        path = ROOT / "src" / "repro" / part
        yield from [path] if path.suffix == ".py" else sorted(
            path.rglob("*.py")
        )


def _definitions():
    """(path, qualname, node) of every public function, class and
    method defined (outside an ``__init__.py``) in the scanned files."""
    found = []

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = prefix + child.name
                if not child.name.startswith("_"):
                    found.append((path, qualname, child))
                if isinstance(child, ast.ClassDef):
                    walk(path, child, qualname + ".")

    for file in _scanned_files():
        if file.name != "__init__.py":
            path = str(file.relative_to(ROOT))
            walk(path, _tree(path), "")
    return found


def _names(node: ast.AST, skip: ast.AST = None, strings: bool = False):
    """Every name ``node`` uses (``Name`` ids and ``Attribute`` attrs),
    outside ``skip``; with ``strings``, also each part of a dotted name
    written as a string that is not a docstring (a patch point)."""
    docstrings = {
        id(child.value) for child in ast.walk(node)
        if isinstance(child, ast.Expr)
        and isinstance(child.value, ast.Constant)
    }
    names, stack = set(), [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name):
            names.add(current.id)
        elif isinstance(current, ast.Attribute):
            names.add(current.attr)
        elif (strings and isinstance(current, ast.Constant)
              and isinstance(current.value, str)
              and id(current) not in docstrings
              and _DOTTED.fullmatch(current.value)):
            names.update(current.value.split("."))
        stack.extend(ast.iter_child_nodes(current))
    return names


_METHOD = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.lru_cache(maxsize=None)
def _classes():
    """Bare name -> ["path::qualname", ClassDef] of each class under
    ``src/`` (outside function bodies)."""
    found = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = prefix + child.name
                found.setdefault(child.name, []).append(
                    (f"{path}::{qualname}", child)
                )
                walk(path, child, qualname + ".")

    for file in sorted((ROOT / "src").rglob("*.py")):
        path = str(file.relative_to(ROOT))
        walk(path, _tree(path), "")
    return found


def _roots(where: str, cls: ast.ClassDef, name: str, seen=()) -> frozenset:
    """The methods ``name`` that ``cls`` (at ``where``) inherits or
    overrides and that override nothing themselves: ``cls``'s own when
    no base class under ``src/`` defines ``name``."""
    found = set()
    for base in cls.bases:
        base_name = getattr(base, "attr", getattr(base, "id", None))
        for base_where, base_cls in _classes().get(base_name, ()):
            if base_cls is not cls and base_cls not in seen:
                found |= _roots(base_where, base_cls, name, seen + (cls,))
    if not found and any(
        isinstance(child, _METHOD) and child.name == name
        for child in cls.body
    ):
        found.add(f"{where}.{name}")
    return frozenset(found)


@functools.lru_cache(maxsize=None)
def _shared_roots() -> frozenset:
    """Every root method whose bare name another root under ``src/``
    shares."""
    by_name = {}
    for entries in _classes().values():
        for where, cls in entries:
            for child in cls.body:
                if isinstance(child, _METHOD) and not child.name.startswith("_"):
                    by_name.setdefault(child.name, set()).update(
                        _roots(where, cls, child.name)
                    )
    return frozenset(
        root for roots in by_name.values() if len(roots) > 1
        for root in roots
    )


def _class_table_methods() -> set:
    """"path::Class.method" of each method ``_CLASSES`` lists."""
    return {
        f"src/{cls.__module__.replace('.', '/')}.py::{cls.__name__}.{name}"
        for cls, table in _CLASSES for name in table
    }


@functools.lru_cache(maxsize=None)
def _unnamed():
    """"path::qualname" of every definition nothing in the program names."""
    elsewhere = set()
    for top in ("examples", "benchmarks"):
        for file in sorted((ROOT / top).rglob("*.py")):
            elsewhere |= _names(
                _tree(str(file.relative_to(ROOT))), strings=True
            )
    sources = [
        str(file.relative_to(ROOT))
        for file in sorted((ROOT / "src").rglob("*.py"))
        if file.name != "__init__.py"
    ]
    by_source = {source: _names(_tree(source)) for source in sources}
    listed = set(SHARED_NAME_CALLERS) | _class_table_methods()
    unnamed = []
    for path, qualname, node in _definitions():
        name = node.name
        owner = qualname.rpartition(".")[0]
        if owner:
            roots = _roots(f"{path}::{owner}", _function(path, owner), name)
            if roots & _shared_roots():
                # A use of the bare name may be another class's method.
                if not roots & listed:
                    unnamed.append(f"{path}::{qualname}")
                continue
        if name in elsewhere or any(
            name in names for source, names in by_source.items()
            if source != path
        ) or name in _names(_tree(path), skip=node):
            continue
        unnamed.append(f"{path}::{qualname}")
    return tuple(unnamed)


def test_shared_name_callers_lists_shared_roots():
    """Each entry is a root whose name another root shares, listed once."""
    keys = set(SHARED_NAME_CALLERS)
    assert not keys - _shared_roots(), sorted(keys - _shared_roots())
    assert not keys & _class_table_methods(), sorted(
        keys & _class_table_methods()
    )


@pytest.mark.parametrize(
    "method, caller", sorted(SHARED_NAME_CALLERS.items()),
    ids=sorted(SHARED_NAME_CALLERS),
)
def test_shared_name_caller_still_calls_it(method, caller):
    """The caller reads the method as an attribute, or by name through
    ``getattr``."""
    name = method.rpartition(".")[2]
    path, qualname = caller.split("::")
    assert path.split("/")[0] in ("src", "examples", "benchmarks"), caller
    assert any(
        (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.Constant) and node.value == name)
        for node in ast.walk(_function(path, qualname))
    ), f"{caller} no longer uses .{name}"


def _exemption(entry: str):
    """The ``KEPT_WITHOUT_CALLER`` key covering ``entry``, or None."""
    for key in (entry, entry.split("::")[0]):
        if key in KEPT_WITHOUT_CALLER:
            return key
    return None


def test_every_public_definition_is_named_by_the_program():
    unnamed = [entry for entry in _unnamed() if _exemption(entry) is None]
    assert not unnamed, (
        "public definitions no caller outside tests/ names (delete them, "
        f"or list them in KEPT_WITHOUT_CALLER with why): {unnamed}"
    )


@pytest.mark.parametrize("kept", sorted(KEPT_WITHOUT_CALLER))
def test_what_is_kept_without_a_caller_still_has_none(kept):
    """An exemption whose definition went, or gained a caller, goes."""
    assert kept in {_exemption(entry) for entry in _unnamed()}, (
        f"{kept} is gone or named now: drop it from KEPT_WITHOUT_CALLER"
    )
