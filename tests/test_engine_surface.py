"""The engine and the packages keep what their callers run.

Every public method of :class:`RDD` and :class:`EngineContext`, and
every name in the ``__all__`` of ``repro``, ``repro.core``, ``repro.dp``
and ``repro.mining``, is listed here with one caller outside ``tests/``
that needs it: a function under ``src/``, ``examples/`` or
``benchmarks/``, or a kept engine method that calls it (which is listed
in turn).  A public method or exported name with no named caller fails,
and so does a named caller that no longer uses it — so what only tests
reach is deleted, not kept (DESIGN.md §7, "The engine keeps what its
callers run").
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

from repro.engine.context import EngineContext
from repro.engine.rdd import RDD

ROOT = Path(__file__).resolve().parent.parent

#: method -> "path::qualname" of a function that calls it.
RDD_CALLERS = {
    # a release: parallelize -> map_partitions -> aggregate
    "map_partitions": "src/repro/core/session.py::reduce_phase",
    "aggregate": "src/repro/core/session.py::reduce_phase",
    "map": "src/repro/core/session.py::UPASession.run_vanilla",
    # the SQL executor
    "first": "src/repro/sql/dataframe.py::DataFrame.first",
    "take": "src/repro/sql/physical.py::Executor._execute_limit",
    "count": "src/repro/sql/dataframe.py::DataFrame.count",
    # the Table I operators
    "collect": "src/repro/core/dpobject.py::dpread",
    # kept engine methods and the scheduler
    "compute": "src/repro/engine/rdd.py::RDD.iterator",
    "iterator": "src/repro/engine/scheduler.py::TaskScheduler._run_task",
    "union": "src/repro/engine/context.py::EngineContext.union",
}

CONTEXT_CALLERS = {
    "parallelize": "src/repro/core/session.py::reduce_phase",
    "union": "src/repro/sql/physical.py::Executor._stage",
    "install_tracer": "src/repro/core/session.py::UPASession.run",
    # fault injection with lineage retry
    "install_fault_injector": "examples/quickstart.py::main",
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
        "UPAResult": "src/repro/core/session.py::UPASession._release",
        "UPASession": "src/repro/cli.py::_cmd_run",
        "dpread": "examples/quickstart.py::main",
        "__version__": "src/repro/cli.py::_build_parser",
    },
    "repro.core": {
        "MapReduceQuery":
            "src/repro/baselines/bruteforce.py::exact_local_sensitivity",
        "UPAConfig": "src/repro/cli.py::_cmd_run",
        "UPAResult": "src/repro/core/session.py::UPASession._release",
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
}

_CASES = [
    (cls, name, caller)
    for cls, table in ((RDD, RDD_CALLERS), (EngineContext, CONTEXT_CALLERS))
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
    "cls, table",
    [(RDD, RDD_CALLERS), (EngineContext, CONTEXT_CALLERS)],
    ids=["RDD", "EngineContext"],
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
