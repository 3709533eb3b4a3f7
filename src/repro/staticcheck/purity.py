"""Query-purity pass: AST inspection of MapReduceQuery monoid methods.

UPA's pipeline evaluates ``map_record`` once per record and then reuses
every mapped element and partial aggregate across ~2n sampled
neighbouring datasets (prefix/suffix folds, ``R(M(S'))`` reuse).  That
only computes ``f`` correctly if the monoid methods are *pure*:

* deterministic — no ``random``/``time``/``datetime.now``/``uuid``;
* stateless — no mutation of ``self``, globals, or closures;
* non-destructive — ``combine`` must not mutate its arguments in
  place (the right argument is always borrowed; the left argument is
  reused by the prefix/suffix folds too);
* structurally commutative — ``combine`` applying ``-``/``/`` across
  its two arguments cannot form a commutative monoid.

``build_aux`` additionally must not read the protected table (aux is
computed once from x, not per neighbour) unless the class explicitly
declares ``aux_reads_protected = True`` and its semantics stay linear
in protected records (e.g. KMeans' deterministic center init).

Everything here is best-effort static analysis over
``inspect.getsource``: methods whose source is unavailable produce an
``UPA006`` info diagnostic and are skipped, never crash the lint.
"""

from __future__ import annotations

import ast
import inspect
import os
import textwrap
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.query import MapReduceQuery
from repro.staticcheck.diagnostics import (
    Diagnostic,
    Severity,
    make_diagnostic,
)

PASS = "purity"

#: monoid methods inspected on every query class.
MONOID_METHODS = ("map_record", "zero", "combine", "finalize", "build_aux")

#: batched kernels and the scalar method defining each one's semantics.
#: validate_monoid cross-checks an overridden kernel against the scalar
#: path, which only means something if the scalar side is the query's
#: own (the prefix/suffix and combine kernels both re-implement the
#: reducer, hence ``combine``).
BATCH_PARTNERS = {
    "map_batch": "map_record",
    "prefix_suffix_batch": "combine",
    "combine_batch": "combine",
    "finalize_batch": "finalize",
    "fold_batch": "combine",
}

#: module roots whose calls are nondeterministic.
_NONDET_ROOTS = {"random", "uuid", "secrets", "time"}

#: attribute names that read the clock regardless of the module alias.
_CLOCK_ATTRS = {"now", "utcnow", "today"}

#: method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "popitem", "sort", "reverse",
    "fill", "resize", "put", "itemset",
}

#: non-commutative binary operators (commutativity heuristic).
_NON_COMMUTATIVE_OPS = (
    ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.LShift, ast.RShift, ast.MatMult,
)


def _root_name(node: ast.AST) -> Optional[str]:
    """The base Name id of an Attribute/Subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _names_in(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unwrap_callable(func):
    """Peel decorator layers down to the innermost plain function.

    ``inspect.unwrap`` only follows ``__wrapped__`` (functools.wraps);
    methods built from ``functools.partial`` / ``partialmethod`` hide
    the real function behind ``.func``, and bound/class methods behind
    ``__func__`` — none of which ``inspect.getsourcelines`` can read,
    so UPA006 used to misreport them as "source unavailable".
    """
    seen = set()
    while id(func) not in seen:
        seen.add(id(func))
        for attr in ("__wrapped__", "__func__", "func"):
            inner = getattr(func, attr, None)
            if callable(inner):
                func = inner
                break
        else:
            break
    return func


class _MethodSource:
    """Parsed source of one method with absolute line mapping."""

    def __init__(self, func, owner_name: str, method_name: str):
        self.owner_name = owner_name
        self.method_name = method_name
        self.func = func
        raw = _unwrap_callable(func)
        lines, start = inspect.getsourcelines(raw)
        self.start_line = start
        filename = inspect.getsourcefile(raw) or ""
        try:
            self.file = os.path.relpath(filename)
        except ValueError:  # different drive on windows
            self.file = filename
        tree = ast.parse(textwrap.dedent("".join(lines)))
        node = tree.body[0]
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raise TypeError(f"{method_name} source is not a function def")
        self.node = node
        args = list(node.args.posonlyargs) + list(node.args.args)
        if args and args[0].arg in ("self", "cls"):
            args = args[1:]
        self.params = [a.arg for a in args]

    def line_of(self, node: ast.AST) -> int:
        return self.start_line + getattr(node, "lineno", 1) - 1

    def where(self) -> str:
        return f"{self.owner_name}.{self.method_name}"


def _resolve_method(cls: type, name: str):
    """The function implementing ``name``, skipping the abstract base.

    Returns None when the class inherits MapReduceQuery's default
    (raise NotImplementedError / return None) — nothing to analyze.
    """
    for klass in cls.__mro__:
        if klass in (MapReduceQuery, object):
            return None
        func = klass.__dict__.get(name)
        if func is not None:
            if isinstance(func, (staticmethod, classmethod)):
                func = func.__func__
            return func
    return None


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_nondeterminism(src: _MethodSource) -> Iterable[Diagnostic]:
    for node in ast.walk(src.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        reason = None
        if isinstance(func, ast.Attribute):
            root = _root_name(func)
            if root in _NONDET_ROOTS:
                reason = f"calls {root}.{func.attr}()"
            elif func.attr in _CLOCK_ATTRS:
                reason = f"reads the clock via .{func.attr}()"
            elif func.attr == "urandom" and root == "os":
                reason = "calls os.urandom()"
            else:
                # numpy.random.* through any attribute chain.
                chain = []
                probe: ast.AST = func
                while isinstance(probe, ast.Attribute):
                    chain.append(probe.attr)
                    probe = probe.value
                if isinstance(probe, ast.Name) and "random" in chain and (
                    probe.id in ("np", "numpy")
                ):
                    reason = f"calls {probe.id}.random.{chain[0]}()"
        if reason:
            yield make_diagnostic(
                "UPA001",
                f"{src.where()} {reason}; monoid methods must be "
                "deterministic (UPA replays them across ~2n sampled "
                "neighbouring datasets)",
                file=src.file,
                line=src.line_of(node),
                obj=src.owner_name,
                hint="move randomness to sample_domain_record() / "
                "sample_domain_batch() or inject it through the dataset, "
                "never the monoid",
                pass_name=PASS,
            )


def _check_state_mutation(src: _MethodSource) -> Iterable[Diagnostic]:
    for node in ast.walk(src.node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            yield make_diagnostic(
                "UPA002",
                f"{src.where()} declares `{kind} "
                f"{', '.join(node.names)}`; monoid methods must not "
                "write shared state (folds run in any order on any "
                "partition)",
                file=src.file,
                line=src.line_of(node),
                obj=src.owner_name,
                hint="thread state through the monoid element or aux",
                pass_name=PASS,
            )
            continue
        targets: Sequence[ast.AST] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,) if node.target is not None else ()
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, (ast.Attribute, ast.Subscript)) and (
                    _root_name(leaf) == "self"
                ):
                    yield make_diagnostic(
                        "UPA002",
                        f"{src.where()} assigns to an attribute of "
                        "self; monoid methods must be stateless",
                        file=src.file,
                        line=src.line_of(node),
                        obj=src.owner_name,
                        hint="compute in build_aux() (once per run) or "
                        "carry the value inside the monoid element",
                        pass_name=PASS,
                    )
                    break
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS and isinstance(
                node.func.value, (ast.Attribute, ast.Subscript)
            ) and _root_name(node.func.value) == "self":
                yield make_diagnostic(
                    "UPA002",
                    f"{src.where()} calls the mutating method "
                    f".{node.func.attr}() on an attribute of self",
                    file=src.file,
                    line=src.line_of(node),
                    obj=src.owner_name,
                    hint="monoid methods must not accumulate into self",
                    pass_name=PASS,
                )


def _argument_mutations(
    src: _MethodSource, param: str
) -> Iterable[Tuple[ast.AST, str]]:
    """Yield (node, description) for statements that mutate ``param``."""
    for node in ast.walk(src.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                    _root_name(target) == param
                ):
                    yield node, f"assigns into `{param}[...]`"
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                _root_name(target) == param
            ):
                yield node, f"augments `{param}[...]` in place"
            elif isinstance(target, ast.Name) and target.id == param:
                yield node, (
                    f"augments `{param}` with an in-place operator "
                    "(mutates lists/ndarrays)"
                )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if _root_name(target) == param and isinstance(
                    target, (ast.Subscript, ast.Attribute)
                ):
                    yield node, f"deletes from `{param}`"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and (
                func.attr in _MUTATOR_METHODS
                and _root_name(func.value) == param
            ):
                yield node, f"calls `{param}.{func.attr}(...)`"
            for kw in node.keywords:
                if kw.arg == "out" and isinstance(kw.value, ast.Name) and (
                    kw.value.id == param
                ):
                    yield node, f"writes into `{param}` via out={param}"


def _check_combine(src: _MethodSource) -> Iterable[Diagnostic]:
    if len(src.params) < 2:
        return
    left, right = src.params[0], src.params[1]
    for node, what in _argument_mutations(src, right):
        yield make_diagnostic(
            "UPA003",
            f"{src.where()} {what}: combine's right argument is always "
            "borrowed — the union-preserving reduce reuses every mapped "
            "element across prefix/suffix folds",
            file=src.file,
            line=src.line_of(node),
            obj=src.owner_name,
            hint="build and return a fresh element "
            "(e.g. `return a + b`, not `b += a`)",
            pass_name=PASS,
        )
    for node, what in _argument_mutations(src, left):
        yield make_diagnostic(
            "UPA003",
            f"{src.where()} {what}: the prefix/suffix folds also reuse "
            "left-hand aggregates, so mutating the left argument "
            "corrupts later neighbour outputs",
            severity=Severity.WARNING,
            file=src.file,
            line=src.line_of(node),
            obj=src.owner_name,
            hint="return a fresh element instead of mutating either "
            "argument",
            pass_name=PASS,
        )
    # Commutativity heuristic: a - b style expressions across params.
    for node in ast.walk(src.node):
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, _NON_COMMUTATIVE_OPS
        ):
            lhs, rhs = _names_in(node.left), _names_in(node.right)
            crosses = (left in lhs and right in rhs) or (
                right in lhs and left in rhs
            )
            if crosses:
                op = type(node.op).__name__
                yield make_diagnostic(
                    "UPA004",
                    f"{src.where()} combines its arguments with the "
                    f"non-commutative operator {op}; the reducer must "
                    "be a commutative monoid (partial aggregates merge "
                    "in partition-dependent order)",
                    file=src.file,
                    line=src.line_of(node),
                    obj=src.owner_name,
                    hint="restructure the element so combine is a sum/"
                    "max/union; run validate_monoid() to confirm",
                    pass_name=PASS,
                )


#: ast default-value nodes that denote a freshly built mutable container.
_MUTABLE_DEFAULT_NODES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)

#: constructor names whose call as a default builds a mutable container.
_MUTABLE_DEFAULT_CALLS = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
}


def _local_bindings(node: ast.AST) -> set:
    """Names bound inside a function body (stores, imports, handlers)."""
    bound: set = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            bound.add(sub.id)
        elif isinstance(
            sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and sub is not node:
            bound.add(sub.name)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            bound.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                bound.add((alias.asname or alias.name).split(".")[0])
    return bound


def _resolved_capture(src: _MethodSource, name: str) -> Any:
    """The runtime object ``name`` resolves to in the method's scope.

    Checks closure cells first, then the defining module's globals —
    the two places a captured (non-local, non-parameter) name can live.
    Returns None when unresolvable, which callers treat as "not
    provably a module" (i.e. still suspicious).
    """
    raw = _unwrap_callable(src.func)
    code = getattr(raw, "__code__", None)
    closure = getattr(raw, "__closure__", None)
    if code is not None and closure and name in code.co_freevars:
        try:
            return closure[code.co_freevars.index(name)].cell_contents
        except ValueError:  # empty cell
            return None
    return getattr(raw, "__globals__", {}).get(name)


def _mutable_default_params(node) -> set:
    """Parameter names whose default value is a mutable container."""
    import itertools as _it

    suspects: set = set()
    positional = list(node.args.posonlyargs) + list(node.args.args)
    defaults = node.args.defaults
    pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
    pairs.extend(
        (a, d) for a, d in _it.zip_longest(
            node.args.kwonlyargs, node.args.kw_defaults
        ) if d is not None
    )
    for arg, default in pairs:
        if isinstance(default, _MUTABLE_DEFAULT_NODES) or (
            isinstance(default, ast.Call)
            and isinstance(default.func, ast.Name)
            and default.func.id in _MUTABLE_DEFAULT_CALLS
        ):
            suspects.add(arg.arg)
    return suspects


def _check_captured_state(src: _MethodSource) -> Iterable[Diagnostic]:
    """UPA015: mutation of state captured from outside the call.

    UPA002 flags mutation of ``self`` and explicit ``global``/
    ``nonlocal`` declarations; this check covers what those miss —
    writes through names that are neither parameters nor locals
    (``CACHE.append(x)``, ``STATE[key] = v`` on a free variable or
    module-level container) and mutation of mutable default arguments.
    Both accumulate across calls, and the incremental session path
    replays *cached* mapped elements instead of re-invoking the
    method, so any such accumulation diverges from a cold run and
    breaks append()'s bitwise-equivalence guarantee.
    """
    import inspect as _inspect

    node = src.node
    known = set(src.params) | _local_bindings(node)
    known.update(("self", "cls"))
    if node.args.vararg:
        known.add(node.args.vararg.arg)
    if node.args.kwarg:
        known.add(node.args.kwarg.arg)
    known.update(a.arg for a in node.args.kwonlyargs)

    def captured(name: Optional[str]) -> bool:
        if name is None or name in known:
            return False
        # A name resolving to a module (np, math, ...) is an API
        # surface, not captured state: `np.add(a, b)` is not `np`
        # being mutated.
        return not _inspect.ismodule(_resolved_capture(src, name))

    hint = (
        "thread state through the monoid element or aux; the "
        "incremental path replays cached elements, so cross-call "
        "accumulation never re-executes"
    )
    for sub in ast.walk(node):
        targets: Sequence[ast.AST] = ()
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = (sub.target,) if sub.target is not None else ()
        elif isinstance(sub, ast.Delete):
            targets = sub.targets
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                root = _root_name(target)
                if captured(root):
                    yield make_diagnostic(
                        "UPA015",
                        f"{src.where()} writes into the captured name "
                        f"`{root}`; state that outlives the call makes "
                        "the monoid unsafe on the incremental "
                        "append()/retire() path, which replays cached "
                        "mapped elements instead of re-running it",
                        file=src.file,
                        line=src.line_of(sub),
                        obj=src.owner_name,
                        hint=hint,
                        pass_name=PASS,
                    )
        if isinstance(sub, ast.Call) and isinstance(
            sub.func, ast.Attribute
        ) and sub.func.attr in _MUTATOR_METHODS:
            root = _root_name(sub.func.value)
            if captured(root):
                yield make_diagnostic(
                    "UPA015",
                    f"{src.where()} calls the mutating method "
                    f".{sub.func.attr}() on the captured name "
                    f"`{root}`; cross-call accumulation diverges from "
                    "a cold run once append()/retire() replays cached "
                    "elements",
                    file=src.file,
                    line=src.line_of(sub),
                    obj=src.owner_name,
                    hint=hint,
                    pass_name=PASS,
                )
    for param in _mutable_default_params(node):
        for sub, what in _argument_mutations(src, param):
            yield make_diagnostic(
                "UPA015",
                f"{src.where()} {what}, and `{param}` defaults to a "
                "mutable container — the default is created once and "
                "shared across every call, so it accumulates state "
                "exactly like a captured global",
                file=src.file,
                line=src.line_of(sub),
                obj=src.owner_name,
                hint="use None as the default and build the container "
                "inside the call",
                pass_name=PASS,
            )


def _check_build_aux(
    src: _MethodSource, protected: str, declared: bool
) -> Iterable[Diagnostic]:
    if not src.params:
        return
    tables_param = src.params[0]
    for node in ast.walk(src.node):
        hit = False
        if isinstance(node, ast.Subscript) and isinstance(
            node.value, ast.Name
        ) and node.value.id == tables_param:
            key = node.slice
            if isinstance(key, ast.Constant) and key.value == protected:
                hit = bool(protected)
            elif isinstance(key, ast.Attribute) and (
                key.attr == "protected_table"
                and _root_name(key) == "self"
            ):
                hit = True
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ) and node.func.attr == "get" and isinstance(
            node.func.value, ast.Name
        ) and node.func.value.id == tables_param and node.args:
            key = node.args[0]
            if isinstance(key, ast.Constant) and key.value == protected:
                hit = bool(protected)
        if hit:
            severity = Severity.INFO if declared else None
            suffix = (
                " (declared via aux_reads_protected=True)"
                if declared else ""
            )
            yield make_diagnostic(
                "UPA005",
                f"{src.where()} reads the protected table "
                f"{protected or 'self.protected_table'!r}{suffix}; aux "
                "is built once from x, not per neighbour, so the "
                "query is only sound if it stays linear in protected "
                "records",
                severity=severity,
                file=src.file,
                line=src.line_of(node),
                obj=src.owner_name,
                hint="derive the structure from auxiliary tables, or "
                "set `aux_reads_protected = True` and document why "
                "linearity still holds",
                pass_name=PASS,
            )


def _check_batch_kernels(
    cls: type, owner: str
) -> Iterable[Diagnostic]:
    """UPA010: overridden batched kernels without their scalar partner,
    or batched kernels that mutate their input batches in place."""
    for batch_name, partner in BATCH_PARTNERS.items():
        func = _resolve_method(cls, batch_name)
        if func is None:
            continue
        try:
            src = _MethodSource(func, owner, batch_name)
        except (OSError, TypeError, SyntaxError, IndentationError) as exc:
            yield make_diagnostic(
                "UPA006",
                f"{owner}.{batch_name}: source unavailable "
                f"({type(exc).__name__}); batch-kernel checks skipped",
                obj=owner,
                pass_name=PASS,
            )
            continue
        yield from _check_captured_state(src)
        if _resolve_method(cls, partner) is None:
            yield make_diagnostic(
                "UPA010",
                f"{src.where()} overrides a batched kernel but the "
                f"class never overrides {partner}(), the scalar method "
                "that defines its semantics; validate_monoid has no "
                "reference to cross-check the kernel against",
                file=src.file,
                line=src.line_of(src.node),
                obj=owner,
                hint=f"implement {partner}() alongside {batch_name}() "
                "and run validate_monoid() to confirm they agree",
                pass_name=PASS,
            )
        for param in src.params:
            for node, what in _argument_mutations(src, param):
                yield make_diagnostic(
                    "UPA010",
                    f"{src.where()} {what}: batched kernels borrow "
                    "their input batches — the session reuses the same "
                    "mapped batch across prefix/suffix folds, partition "
                    "outputs and the final aggregate, so in-place "
                    "writes corrupt later neighbour outputs",
                    file=src.file,
                    line=src.line_of(node),
                    obj=owner,
                    hint="allocate a fresh array (np.copy / arithmetic "
                    "that returns a new array) instead of writing into "
                    f"`{param}`",
                    pass_name=PASS,
                )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_query(query: Any) -> List[Diagnostic]:
    """Run the purity pass on a MapReduceQuery instance or class."""
    cls = query if isinstance(query, type) else type(query)
    owner = getattr(query, "name", "") or cls.__name__
    protected = str(getattr(query, "protected_table", "") or "")
    declared = bool(getattr(query, "aux_reads_protected", False))
    diagnostics: List[Diagnostic] = []
    for method_name in MONOID_METHODS:
        func = _resolve_method(cls, method_name)
        if func is None:
            continue
        try:
            src = _MethodSource(func, owner, method_name)
        except (OSError, TypeError, SyntaxError, IndentationError) as exc:
            diagnostics.append(
                make_diagnostic(
                    "UPA006",
                    f"{owner}.{method_name}: source unavailable "
                    f"({type(exc).__name__}); purity not verified",
                    obj=owner,
                    pass_name=PASS,
                )
            )
            continue
        diagnostics.extend(_check_nondeterminism(src))
        diagnostics.extend(_check_state_mutation(src))
        diagnostics.extend(_check_captured_state(src))
        if method_name == "combine":
            diagnostics.extend(_check_combine(src))
        if method_name == "build_aux":
            diagnostics.extend(_check_build_aux(src, protected, declared))
    diagnostics.extend(_check_batch_kernels(cls, owner))
    return diagnostics
