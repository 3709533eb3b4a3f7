"""The engine keeps what its callers run.

Every public method of :class:`RDD` and :class:`EngineContext` is listed
here with one caller outside ``tests/`` that needs it: a function under
``src/``, ``examples/`` or ``benchmarks/``, or a kept engine method that
calls it (which is listed in turn).  A public method with no named
caller fails, and so does a named caller that no longer calls it — so a
method that only tests reach is deleted, not kept (DESIGN.md §7, "The
engine keeps what its callers run").
"""

import ast
import functools
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
    # the Table I operators
    "zip_with_index": "src/repro/core/dpobject.py::dpread",
    "filter": "src/repro/core/dpobject.py::dpread",
    "count": "src/repro/core/dpobject.py::dpread",
    "collect": "src/repro/core/dpobject.py::dpread",
    "is_empty": "src/repro/core/dpobject.py::DPObject.reduce_dp",
    "reduce": "src/repro/core/dpobject.py::DPObject.reduce_dp",
    "reduce_by_key":
        "src/repro/core/dpobject.py::DPObjectKV.reduce_by_key_dp",
    "join": "src/repro/core/dpobject.py::DPObjectKV.join_dp",
    # kept engine methods and the scheduler
    "compute": "src/repro/engine/rdd.py::RDD.iterator",
    "iterator": "src/repro/engine/scheduler.py::TaskScheduler._run_task",
    "combine_by_key": "src/repro/engine/rdd.py::RDD.reduce_by_key",
    "cogroup": "src/repro/engine/rdd.py::RDD.join",
    "flat_map": "src/repro/engine/rdd.py::RDD.join",
    "take": "src/repro/engine/rdd.py::RDD.first",
    "union": "src/repro/engine/context.py::EngineContext.union",
}

CONTEXT_CALLERS = {
    "parallelize": "src/repro/core/session.py::reduce_phase",
    "union": "src/repro/sql/physical.py::Executor._stage",
    "install_tracer": "src/repro/core/session.py::UPASession.run",
    "serve": "src/repro/core/session.py::UPASession.serve",
    "install_job_listener": "src/repro/cli.py::_install_events",
    "job_listener": "src/repro/cli.py::_emit_observability",
    "stop": "src/repro/engine/context.py::EngineContext.__exit__",
    # fault injection with lineage retry
    "install_fault_injector": "examples/quickstart.py::main",
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
