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
``__init__.py`` is not a use.  ``KEPT_WITHOUT_CALLER`` lists the few
that stay unnamed, each with its reason.  ``repro.obs``'s surfaces
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
    unnamed = []
    for path, qualname, node in _definitions():
        name = node.name
        if name in elsewhere or any(
            name in names for source, names in by_source.items()
            if source != path
        ) or name in _names(_tree(path), skip=node):
            continue
        unnamed.append(f"{path}::{qualname}")
    return tuple(unnamed)


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
