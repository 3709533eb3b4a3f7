"""SQL text parser for the subset used by the TPC-H workloads.

Supported grammar (case-insensitive keywords)::

    SELECT item [, item ...]
    FROM table [alias] [, table [alias] ...]
    [WHERE predicate]

with expressions covering arithmetic, comparisons, AND/OR/NOT, LIKE,
BETWEEN, IN (value list or subquery), IS [NOT] NULL, EXISTS / NOT
EXISTS correlated subqueries, uncorrelated scalar subqueries, ``DATE
'yyyy-mm-dd'`` literals, ``INTERVAL 'n' DAY`` arithmetic, and the
aggregates COUNT(*)/COUNT/COUNT(DISTINCT)/SUM/AVG/MIN/MAX.

A query yields plain rows or, when a select item holds an aggregate,
one global aggregate row: what a release computes (DESIGN.md section
7).  GROUP BY, HAVING, ORDER BY, LIMIT and UNION ALL are refused with a
:class:`~repro.common.errors.ParseError` that names the clause.

Joins are expressed TPC-H style: tables in the FROM list with equality
predicates in WHERE.  The planner extracts equi-join edges, builds a
join tree and places every other WHERE conjunct where it reads: one
filter on each table's scan, and a conjunct over several tables right
above the join that first brings them together.  It converts
EXISTS/NOT EXISTS into semi/anti joins (including
non-equality correlated residuals, as TPC-H Q21 needs), and evaluates
uncorrelated scalar subqueries eagerly: each runs once, while planning,
and reaches the plan as a literal.  DISTINCT is accepted only inside
``COUNT(DISTINCT ...)``, and joins are inner, semi or anti.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import AnalysisError, ParseError
from repro.sql.expr import (
    Alias,
    BinaryOp,
    CaseWhen,
    Column,
    Expression,
    FuncCall,
    InOp,
    IsNullOp,
    LikeOp,
    Literal,
    UnaryOp,
    combine_conjuncts,
    split_conjuncts,
)
from repro.sql.functions import AggregateSpec
from repro.sql.logical import Aggregate, Filter, Join, LogicalPlan, Project, Scan

_KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "and", "or", "not", "in", "like", "between", "exists", "is", "null",
    "as", "asc", "desc", "date", "interval", "day", "distinct", "count",
    "sum", "avg", "min", "max", "union", "all", "case", "when", "then",
    "else", "end",
}

_AGG_FUNCS = {"count", "sum", "avg", "min", "max"}

#: clause keyword -> why the grammar refuses it: a query plans one
#: aggregate row (or plain rows), so nothing groups, filters groups,
#: orders, truncates or concatenates what it yields.
_REFUSED_CLAUSES = {
    "group": "GROUP BY output is not a scalar query",
    "having": "HAVING filters groups, and a query has no GROUP BY",
    "order": "ORDER BY is not supported: a query yields one aggregate "
             "row or unordered rows",
    "limit": "LIMIT is not supported: a query yields one aggregate row "
             "or all its rows",
    "union": "UNION ALL is not supported: a query is one SELECT",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|/|\(|\)|,|\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'number' | 'string' | 'ident' | 'keyword' | 'op' | 'eof'
    value: str
    position: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        kind = match.lastgroup or "op"
        value = match.group()
        if kind == "ident" and value.lower() in _KEYWORDS:
            tokens.append(Token("keyword", value.lower(), match.start()))
        else:
            tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


@dataclass
class _SelectItem:
    expr: Expression  # raw (unresolved) expression, or None for '*'
    alias: Optional[str]
    is_star: bool = False


@dataclass
class _SubquerySpec:
    """A [NOT] EXISTS or [NOT] IN subquery found in a WHERE clause."""

    query: "_ParsedQuery"
    negated: bool
    #: where the predicate starts in the text.
    position: int
    # for IN subqueries: the outer expression being tested.
    in_expr: Optional[Expression] = None


@dataclass
class _ParsedQuery:
    select_items: List[_SelectItem]
    tables: List[Tuple[str, str]]  # (table_name, alias)
    where: Optional[Expression]
    subqueries: List[_SubquerySpec] = field(default_factory=list)


class _Parser:
    """Recursive-descent parser producing a :class:`_ParsedQuery`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _next(self) -> Token:
        token = self._peek()
        self._pos += 1
        return token

    def _accept_keyword(self, *words: str) -> bool:
        token = self._peek()
        if token.kind == "keyword" and token.value in words:
            self._pos += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.value != word:
            raise ParseError(f"expected {word.upper()}, got {token.value!r}",
                             token.position)

    def _accept_op(self, op: str) -> bool:
        token = self._peek()
        if token.kind == "op" and token.value == op:
            self._pos += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        token = self._next()
        if token.kind != "op" or token.value != op:
            raise ParseError(f"expected {op!r}, got {token.value!r}", token.position)

    def _expect_ident(self) -> str:
        token = self._next()
        if token.kind != "ident":
            raise ParseError(f"expected identifier, got {token.value!r}",
                             token.position)
        return token.value

    # -- query -----------------------------------------------------------

    def parse_query(self) -> _ParsedQuery:
        self._expect_keyword("select")
        items = [self._parse_select_item()]
        while self._accept_op(","):
            items.append(self._parse_select_item())

        self._expect_keyword("from")
        tables = [self._parse_table_ref()]
        while self._accept_op(","):
            tables.append(self._parse_table_ref())

        query = _ParsedQuery(items, tables, None)

        if self._accept_keyword("where"):
            query.where = self._parse_expr(query)
        token = self._peek()
        if token.kind == "keyword" and token.value in _REFUSED_CLAUSES:
            raise ParseError(_REFUSED_CLAUSES[token.value], token.position)
        return query

    def _parse_select_item(self) -> _SelectItem:
        if self._accept_op("*"):
            return _SelectItem(Literal(1), None, is_star=True)
        expr = self._parse_expr(None)
        alias: Optional[str] = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return _SelectItem(expr, alias)

    def _parse_table_ref(self) -> Tuple[str, str]:
        name = self._expect_ident()
        alias = name
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return (name, alias)

    # -- expressions -------------------------------------------------------
    # Column references are kept *raw* here ("alias.col" or "col"); the
    # planner resolves them against the FROM scope afterwards.

    def _parse_expr(self, query: Optional[_ParsedQuery]) -> Expression:
        return self._parse_or(query)

    def _parse_or(self, query) -> Expression:
        expr = self._parse_and(query)
        while self._accept_keyword("or"):
            expr = BinaryOp("or", expr, self._parse_and(query))
        return expr

    def _parse_and(self, query) -> Expression:
        expr = self._parse_not(query)
        while self._accept_keyword("and"):
            expr = BinaryOp("and", expr, self._parse_not(query))
        return expr

    def _parse_not(self, query) -> Expression:
        if self._accept_keyword("not"):
            if self._peek().kind == "keyword" and self._peek().value == "exists":
                return self._parse_exists(query, negated=True)
            return UnaryOp("not", self._parse_not(query))
        if self._peek().kind == "keyword" and self._peek().value == "exists":
            return self._parse_exists(query, negated=False)
        return self._parse_predicate(query)

    def _parse_exists(self, query, negated: bool) -> Expression:
        position = self._peek().position
        if query is None:
            raise ParseError("EXISTS only allowed in WHERE clauses", position)
        self._expect_keyword("exists")
        self._expect_op("(")
        sub = self._parse_subquery()
        self._expect_op(")")
        marker = _SubqueryMarker(len(query.subqueries))
        query.subqueries.append(_SubquerySpec(sub, negated, position))
        return marker

    def _parse_subquery(self) -> _ParsedQuery:
        return self.parse_query()

    def _parse_predicate(self, query) -> Expression:
        expr = self._parse_additive(query)
        token = self._peek()
        if token.kind == "op" and token.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self._pos += 1
            op = "<>" if token.value == "!=" else token.value
            return BinaryOp(op, expr, self._parse_additive(query))
        negated = False
        if token.kind == "keyword" and token.value == "not":
            follow = self._peek(1)
            if follow.kind == "keyword" and follow.value in ("like", "in", "between"):
                self._pos += 1
                negated = True
                token = self._peek()
        if token.kind == "keyword" and token.value == "like":
            self._pos += 1
            pattern_token = self._next()
            if pattern_token.kind != "string":
                raise ParseError("LIKE expects a string pattern",
                                 pattern_token.position)
            return LikeOp(expr, _unquote(pattern_token.value), negated)
        if token.kind == "keyword" and token.value == "between":
            self._pos += 1
            low = self._parse_additive(query)
            self._expect_keyword("and")
            high = self._parse_additive(query)
            between = BinaryOp(
                "and", BinaryOp(">=", expr, low), BinaryOp("<=", expr, high)
            )
            return UnaryOp("not", between) if negated else between
        if token.kind == "keyword" and token.value == "in":
            self._pos += 1
            return self._parse_in(query, expr, negated)
        if token.kind == "keyword" and token.value == "is":
            self._pos += 1
            is_negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNullOp(expr, is_negated)
        return expr

    def _parse_in(self, query, expr: Expression, negated: bool) -> Expression:
        position = self._peek().position
        self._expect_op("(")
        if self._peek().kind == "keyword" and self._peek().value == "select":
            if query is None:
                raise ParseError("IN (SELECT ...) only allowed in WHERE clauses",
                                 self._peek().position)
            sub = self._parse_subquery()
            self._expect_op(")")
            marker = _SubqueryMarker(len(query.subqueries))
            query.subqueries.append(
                _SubquerySpec(sub, negated, position, in_expr=expr)
            )
            return marker
        values = [self._parse_literal_value()]
        while self._accept_op(","):
            values.append(self._parse_literal_value())
        self._expect_op(")")
        return InOp(expr, values, negated)

    def _parse_literal_value(self) -> Any:
        token = self._next()
        if token.kind == "number":
            return float(token.value) if "." in token.value else int(token.value)
        if token.kind == "string":
            return _unquote(token.value)
        if token.kind == "keyword" and token.value == "date":
            return self._parse_date_literal()
        raise ParseError(f"expected literal, got {token.value!r}", token.position)

    def _parse_additive(self, query) -> Expression:
        expr = self._parse_multiplicative(query)
        while True:
            if self._accept_op("+"):
                expr = BinaryOp("+", expr, self._parse_multiplicative(query))
            elif self._accept_op("-"):
                expr = BinaryOp("-", expr, self._parse_multiplicative(query))
            else:
                return expr

    def _parse_multiplicative(self, query) -> Expression:
        expr = self._parse_unary(query)
        while True:
            if self._accept_op("*"):
                expr = BinaryOp("*", expr, self._parse_unary(query))
            elif self._accept_op("/"):
                expr = BinaryOp("/", expr, self._parse_unary(query))
            else:
                return expr

    def _parse_unary(self, query) -> Expression:
        if self._accept_op("-"):
            return UnaryOp("-", self._parse_unary(query))
        return self._parse_primary(query)

    def _parse_primary(self, query) -> Expression:
        token = self._peek()
        if token.kind == "number":
            self._pos += 1
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.kind == "string":
            self._pos += 1
            return Literal(_unquote(token.value))
        if token.kind == "keyword" and token.value == "date":
            self._pos += 1
            return Literal(self._parse_date_literal())
        if token.kind == "keyword" and token.value == "interval":
            self._pos += 1
            amount_token = self._next()
            if amount_token.kind != "string":
                raise ParseError("INTERVAL expects a quoted amount",
                                 amount_token.position)
            self._expect_keyword("day")
            return Literal(datetime.timedelta(days=int(_unquote(amount_token.value))))
        if token.kind == "keyword" and token.value == "case":
            return self._parse_case(query)
        if token.kind == "keyword" and token.value in _AGG_FUNCS:
            return self._parse_aggregate(query)
        if token.kind == "ident":
            return self._parse_ident_expr(query)
        if self._accept_op("("):
            if self._peek().kind == "keyword" and self._peek().value == "select":
                sub = self._parse_subquery()
                self._expect_op(")")
                return _ScalarSubquery(sub)
            expr = self._parse_expr(query)
            self._expect_op(")")
            return expr
        raise ParseError(f"unexpected token {token.value!r}", token.position)

    def _parse_case(self, query) -> Expression:
        from repro.sql.expr import CaseWhen

        self._expect_keyword("case")
        branches = []
        while self._accept_keyword("when"):
            condition = self._parse_expr(query)
            self._expect_keyword("then")
            branches.append((condition, self._parse_expr(query)))
        default = None
        if self._accept_keyword("else"):
            default = self._parse_expr(query)
        self._expect_keyword("end")
        if not branches:
            raise ParseError("CASE needs at least one WHEN",
                             self._peek().position)
        return CaseWhen(branches, default)

    def _parse_date_literal(self) -> datetime.date:
        token = self._next()
        if token.kind != "string":
            raise ParseError("DATE expects a quoted string", token.position)
        return datetime.date.fromisoformat(_unquote(token.value))

    def _parse_aggregate(self, query) -> Expression:
        func = self._next().value  # the aggregate keyword
        self._expect_op("(")
        distinct = self._accept_keyword("distinct")
        if func == "count" and self._accept_op("*"):
            self._expect_op(")")
            return _RawAggregate("count", None, distinct=False)
        arg = self._parse_expr(query)
        self._expect_op(")")
        if distinct and func != "count":
            raise ParseError("DISTINCT only supported inside COUNT",
                             self._peek().position)
        return _RawAggregate(func, arg, distinct=distinct)

    def _parse_ident_expr(self, query) -> Expression:
        name = self._expect_ident()
        if self._accept_op("."):
            column = self._expect_ident()
            return Column(f"{name}.{column}")
        if self._peek().kind == "op" and self._peek().value == "(":
            self._pos += 1
            args = []
            if not self._accept_op(")"):
                args.append(self._parse_expr(query))
                while self._accept_op(","):
                    args.append(self._parse_expr(query))
                self._expect_op(")")
            return FuncCall(name, args)
        return Column(name)


class _SubqueryMarker(Expression):
    """Placeholder for an EXISTS/IN-subquery predicate inside WHERE.

    The planner replaces each marker that is a top-level conjunct of
    WHERE with a semi/anti join, and refuses the text if any other
    marker is left.
    """

    def __init__(self, index: int):
        self.index = index

    def eval(self, row):
        raise AnalysisError("subquery marker cannot be evaluated directly")

    def references(self) -> Set[str]:
        return set()

    def __repr__(self) -> str:
        return f"<subquery #{self.index}>"


class _ScalarSubquery(Expression):
    """Placeholder for an uncorrelated scalar subquery."""

    def __init__(self, query: _ParsedQuery):
        self.query = query

    def eval(self, row):
        raise AnalysisError("scalar subquery must be planned before evaluation")

    def references(self) -> Set[str]:
        return set()

    def __repr__(self) -> str:
        return "<scalar subquery>"


class _RawAggregate(Expression):
    """Placeholder for an aggregate call before planning."""

    def __init__(self, func: str, arg: Optional[Expression], distinct: bool):
        self.func = func
        self.arg = arg
        self.distinct = distinct

    def eval(self, row):
        raise AnalysisError("aggregate must be planned before evaluation")

    def references(self) -> Set[str]:
        return self.arg.references() if self.arg is not None else set()

    def children(self):
        return (self.arg,) if self.arg is not None else ()

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "distinct " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


def _unquote(raw: str) -> str:
    return raw[1:-1].replace("''", "'")


# ---------------------------------------------------------------------------
# Planner: _ParsedQuery -> LogicalPlan
# ---------------------------------------------------------------------------


class _Scope:
    """Column resolution scope: alias -> schema, with an optional parent."""

    def __init__(self, session, tables: Sequence[Tuple[str, str]],
                 parent: Optional["_Scope"] = None):
        self.session = session
        self.parent = parent
        self.aliases: Dict[str, Any] = {}
        for table_name, alias in tables:
            if alias in self.aliases:
                raise AnalysisError(f"duplicate table alias {alias!r}")
            self.aliases[alias] = session.catalog.table(table_name)

    def resolve_local(self, raw: str) -> Optional[str]:
        """Resolve a raw reference to a plain column name in this scope."""
        if "." in raw:
            alias, column = raw.split(".", 1)
            table = self.aliases.get(alias)
            if table is None:
                return None
            if not table.schema.has(column):
                raise AnalysisError(
                    f"table alias {alias!r} has no column {column!r}"
                )
            return column
        hits = [a for a, t in self.aliases.items() if t.schema.has(raw)]
        if len(hits) > 1:
            raise AnalysisError(f"ambiguous column reference {raw!r}: {hits}")
        return raw if hits else None

    def classify(self, raw: str) -> str:
        """'local', 'outer', or raise for unresolvable references."""
        if self.resolve_local(raw) is not None:
            return "local"
        if self.parent is not None and self.parent.resolve_local(raw) is not None:
            return "outer"
        raise AnalysisError(f"cannot resolve column reference {raw!r}")


def _resolve_expr(expr: Expression, scope: _Scope,
                  outer_prefix: str = "", local_prefix: str = "") -> Expression:
    """Replace raw column refs with resolved names.

    ``local_prefix`` is applied to local (inner) columns and
    ``outer_prefix`` to columns resolved in the parent scope — used to
    build residual-join conditions where right-side columns carry the
    ``__r_`` prefix.
    """
    _refuse_placeholders(expr)
    mapping: Dict[str, Expression] = {}
    for raw in _collect_columns(expr):
        side = scope.classify(raw)
        if side == "local":
            mapping[raw] = Column(local_prefix + scope.resolve_local(raw))
        else:
            assert scope.parent is not None
            mapping[raw] = Column(outer_prefix + scope.parent.resolve_local(raw))
    return _substitute(expr, mapping)


def _substitute(expr: Expression, mapping: Dict[str, Expression]) -> Expression:
    """Rebuild ``expr`` with column references replaced via ``mapping``."""
    if isinstance(expr, Column):
        return mapping.get(expr.name, expr)
    return _map_children(expr, lambda child: _substitute(child, mapping))


def _refuse_placeholders(expr: Expression) -> None:
    """Raise unless ``expr`` is free of the parser's placeholders: the
    planner turns an aggregate into a column only in SELECT, and runs a
    scalar subquery only in the main query."""
    if isinstance(expr, _RawAggregate):
        raise AnalysisError(f"aggregate {expr!r} is allowed only in SELECT")
    if isinstance(expr, _ScalarSubquery):
        raise AnalysisError(
            "a scalar subquery inside an EXISTS or IN subquery is not "
            "supported"
        )
    for child in expr.children():
        _refuse_placeholders(child)


def _collect_columns(expr: Expression) -> Set[str]:
    if isinstance(expr, Column):
        return {expr.name}
    refs: Set[str] = set()
    for child in expr.children():
        refs |= _collect_columns(child)
    return refs


def _aliases(expr: Expression, scope: _Scope) -> Optional[Set[str]]:
    """The FROM aliases an expression reads, or None when a column
    reference names no alias, or no single one."""
    aliases: Set[str] = set()
    for raw in _collect_columns(expr):
        if "." in raw:
            alias = raw.split(".", 1)[0]
            if alias not in scope.aliases:
                return None
            aliases.add(alias)
        else:
            hits = [a for a, t in scope.aliases.items() if t.schema.has(raw)]
            if len(hits) != 1:
                return None
            aliases.add(hits[0])
    return aliases


def _expr_sides(expr: Expression, scope: _Scope) -> Set[str]:
    """Which scopes ({'local', 'outer'}) an expression's columns live in."""
    return {scope.classify(raw) for raw in _collect_columns(expr)}


class _Planner:
    """Builds a logical plan from a parsed query."""

    def __init__(self, session, scalar_tables: Set[str]):
        self.session = session
        self._agg_counter = 0
        #: receives the base tables of every scalar subquery evaluated
        #: while planning.
        self.scalar_tables = scalar_tables

    # -- public ----------------------------------------------------------

    def plan(self, query: _ParsedQuery) -> LogicalPlan:
        scope = _Scope(self.session, query.tables)
        plan = self._plan_from_where(query, scope)
        plan = self._plan_aggregation_and_select(query, scope, plan)
        return plan

    # -- FROM + WHERE ------------------------------------------------------

    def _plan_from_where(self, query: _ParsedQuery, scope: _Scope) -> LogicalPlan:
        conjuncts: List[Expression] = (
            split_conjuncts(query.where) if query.where is not None else []
        )
        markers = [c for c in conjuncts if isinstance(c, _SubqueryMarker)]
        if len(markers) < len(query.subqueries):
            planned = {marker.index for marker in markers}
            stray = next(
                spec for index, spec in enumerate(query.subqueries)
                if index not in planned
            )
            raise ParseError(
                "an IN or EXISTS subquery is allowed only as a top-level "
                "AND conjunct of WHERE; to negate one write NOT IN or "
                "NOT EXISTS", stray.position,
            )
        plan = self._build_join_tree(query, scope, [
            c for c in conjuncts if not isinstance(c, _SubqueryMarker)
        ])
        for marker in markers:
            spec = query.subqueries[marker.index]
            plan = self._apply_subquery(plan, spec, scope)
        return plan

    def _as_join_edge(self, conjunct: Expression, scope: _Scope
                      ) -> Optional[Tuple[str, str, Expression, Expression]]:
        """Detect ``a.x = b.y`` with sides in two different FROM tables."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        left_alias = self._single_alias(conjunct.left, scope)
        right_alias = self._single_alias(conjunct.right, scope)
        if left_alias is None or right_alias is None or left_alias == right_alias:
            return None
        return (left_alias, right_alias, conjunct.left, conjunct.right)

    def _single_alias(self, expr: Expression, scope: _Scope) -> Optional[str]:
        """The unique FROM alias an expression references, if exactly one."""
        aliases = _aliases(expr, scope)
        if aliases is None or len(aliases) != 1:
            return None
        return next(iter(aliases))

    def _build_join_tree(
        self,
        query: _ParsedQuery,
        scope: _Scope,
        conjuncts: List[Expression],
    ) -> LogicalPlan:
        """Join the FROM tables along the WHERE equalities between two of
        them, and place every other conjunct where it reads: one
        ``Filter`` on each table's scan (a conjunct that reads no column
        goes with the first FROM table), and a conjunct over several
        tables directly above the join that first brings them all
        together.  Each ``Filter`` keeps its conjuncts in WHERE order."""
        first = query.tables[0][1]
        edges = {}
        for index, conjunct in enumerate(conjuncts):
            edge = self._as_join_edge(conjunct, scope)
            if edge is not None:
                edges[index] = edge
        # The join order: each step joins one new table along the first
        # edge, in WHERE order, that reaches it from the joined ones.
        joined: List[str] = [first]
        steps: List[Tuple[str, Expression, Expression]] = []
        keys_used: Set[int] = set()
        progress = True
        while progress:
            progress = False
            for index, (left, right, left_expr, right_expr) in edges.items():
                if index in keys_used or (left in joined) == (right in joined):
                    continue
                if left in joined:
                    steps.append((right, left_expr, right_expr))
                else:
                    steps.append((left, right_expr, left_expr))
                joined.append(steps[-1][0])
                keys_used.add(index)
                progress = True
        unjoined = {alias for _name, alias in query.tables} - set(joined)
        if unjoined:
            raise AnalysisError(
                f"tables {sorted(unjoined)} are not connected by join "
                "predicates (cross joins are not supported)"
            )

        # Where each other conjunct goes: the position in ``joined`` of
        # the last table it reads, and whether it reads several.
        placed: Dict[Tuple[str, bool], List[Expression]] = {}
        for index, conjunct in enumerate(conjuncts):
            if index in keys_used:
                continue
            resolved = self._resolve_main(conjunct, scope)
            reads = _aliases(conjunct, scope) or {first}
            last = max(reads, key=joined.index)
            placed.setdefault((last, len(reads) > 1), []).append(resolved)

        def filtered(plan: LogicalPlan, at: Tuple[str, bool]) -> LogicalPlan:
            condition = combine_conjuncts(placed.get(at, []))
            return plan if condition is None else Filter(plan, condition)

        def scan(alias: str) -> LogicalPlan:
            table_name = scope.aliases[alias].name
            return filtered(
                Scan(table_name, scope.aliases[alias].schema), (alias, False)
            )

        plan = scan(first)
        for alias, joined_key, new_key in steps:
            plan = Join(
                plan,
                scan(alias),
                [(
                    self._resolve_main(joined_key, scope),
                    self._resolve_main(new_key, scope),
                )],
                how="inner",
            )
            plan = filtered(plan, (alias, True))
        return plan

    def _apply_subquery(self, plan: LogicalPlan, spec: _SubquerySpec,
                        scope: _Scope) -> LogicalPlan:
        sub_scope = _Scope(self.session, spec.query.tables, scope)
        conjuncts = (
            split_conjuncts(spec.query.where)
            if spec.query.where is not None
            else []
        )
        if spec.query.subqueries:
            raise AnalysisError("nested subqueries inside subqueries are not supported")

        keys: List[Tuple[Expression, Expression]] = []
        inner_filters: List[Expression] = []
        residuals: List[Expression] = []
        for conjunct in conjuncts:
            sides = _expr_sides(conjunct, sub_scope)
            if sides <= {"local"}:
                inner_filters.append(
                    _resolve_expr(conjunct, sub_scope)
                )
                continue
            key_pair = self._as_correlated_key(conjunct, sub_scope)
            if key_pair is not None:
                keys.append(key_pair)
            else:
                residuals.append(
                    _resolve_expr(
                        conjunct, sub_scope,
                        local_prefix=Join.RESIDUAL_RIGHT_PREFIX,
                    )
                )

        inner_plan = self._subquery_scan(spec.query, sub_scope, inner_filters)

        if spec.in_expr is not None:
            # [NOT] IN (SELECT col ...): key is outer expr = subquery output.
            if len(spec.query.select_items) != 1 or spec.query.select_items[0].is_star:
                raise AnalysisError("IN subquery must select exactly one column")
            inner_col = _resolve_expr(
                spec.query.select_items[0].expr, sub_scope
            )
            outer_expr = self._resolve_main(spec.in_expr, scope)
            keys.append((outer_expr, inner_col))

        if not keys:
            raise AnalysisError(
                "subquery has no equality correlation with the outer query; "
                "uncorrelated EXISTS is not supported"
            )
        residual = combine_conjuncts(residuals)
        how = "anti" if spec.negated else "semi"
        return Join(plan, inner_plan, keys, how, residual=residual)

    def _as_correlated_key(self, conjunct: Expression, sub_scope: _Scope
                           ) -> Optional[Tuple[Expression, Expression]]:
        """Detect ``outer_expr = inner_expr`` correlation conjuncts."""
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        left_sides = _expr_sides(conjunct.left, sub_scope)
        right_sides = _expr_sides(conjunct.right, sub_scope)
        if left_sides == {"outer"} and right_sides <= {"local"}:
            outer_side, inner_side = conjunct.left, conjunct.right
        elif right_sides == {"outer"} and left_sides <= {"local"}:
            outer_side, inner_side = conjunct.right, conjunct.left
        else:
            return None
        assert sub_scope.parent is not None
        outer_resolved = _resolve_expr(outer_side, sub_scope.parent)
        inner_resolved = _resolve_expr(inner_side, sub_scope)
        return (outer_resolved, inner_resolved)

    def _subquery_scan(self, query: _ParsedQuery, sub_scope: _Scope,
                       inner_filters: List[Expression]) -> LogicalPlan:
        if len(query.tables) != 1:
            raise AnalysisError("subqueries may only scan a single table")
        table_name, _alias = query.tables[0]
        table = self.session.catalog.table(table_name)
        plan: LogicalPlan = Scan(table_name, table.schema)
        cond = combine_conjuncts(inner_filters)
        if cond is not None:
            plan = Filter(plan, cond)
        return plan

    # -- aggregation + select ------------------------------------------------

    def _resolve_main(self, expr: Expression, scope: _Scope) -> Expression:
        """Resolve an expression in the main query scope.

        Also evaluates scalar subqueries eagerly and resolves raw
        aggregates' argument expressions.
        """
        expr = self._eval_scalar_subqueries(expr)
        return _resolve_expr(expr, scope)

    def _eval_scalar_subqueries(self, expr: Expression) -> Expression:
        if isinstance(expr, _ScalarSubquery):
            value = self._execute_scalar(expr.query)
            return Literal(value)
        if isinstance(expr, _RawAggregate):
            if expr.arg is None:
                return expr
            return _RawAggregate(
                expr.func, self._eval_scalar_subqueries(expr.arg), expr.distinct
            )
        return _map_children(expr, self._eval_scalar_subqueries)

    def _execute_scalar(self, query: _ParsedQuery) -> Any:
        sub_plan = self.plan(query)
        self.scalar_tables |= sub_plan.base_tables()
        rows = self.session.execute_plan(sub_plan).collect()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise AnalysisError("scalar subquery must produce one row, one column")
        return next(iter(rows[0].values()))

    def _plan_aggregation_and_select(
        self, query: _ParsedQuery, scope: _Scope, plan: LogicalPlan
    ) -> LogicalPlan:
        if any(_contains_aggregate(item.expr) for item in query.select_items):
            return self._plan_aggregate_select(query, scope, plan)
        return self._plan_plain_select(query, scope, plan)

    def _plan_plain_select(self, query: _ParsedQuery, scope: _Scope,
                           plan: LogicalPlan) -> LogicalPlan:
        exprs: List[Expression] = []
        for item in query.select_items:
            if item.is_star:
                exprs.extend(Column(n) for n in plan.schema.names)
                continue
            resolved = self._resolve_main(item.expr, scope)
            if item.alias is not None:
                resolved = Alias(resolved, item.alias)
            exprs.append(resolved)
        return Project(plan, exprs)

    def _plan_aggregate_select(self, query: _ParsedQuery, scope: _Scope,
                               plan: LogicalPlan) -> LogicalPlan:
        """One global aggregate row: every select item is a function of
        the aggregates."""
        specs: List[AggregateSpec] = []
        final_exprs: List[Expression] = []
        for item in query.select_items:
            if item.is_star:
                raise AnalysisError("SELECT * is not valid in aggregate queries")
            output, new_specs = self._lower_aggregates(item.expr, scope)
            specs.extend(new_specs)
            if item.alias is not None:
                output = Alias(output, item.alias)
            missing = output.references() - {s.alias for s in specs}
            if missing:
                raise AnalysisError(
                    f"select expression references columns outside an "
                    f"aggregate: {sorted(missing)}"
                )
            final_exprs.append(output)
        return Project(Aggregate(plan, specs), final_exprs)

    def _lower_aggregates(self, expr: Expression, scope: _Scope
                          ) -> Tuple[Expression, List[AggregateSpec]]:
        """Replace _RawAggregate nodes with references to agg output columns."""
        specs: List[AggregateSpec] = []

        def lower(node: Expression) -> Expression:
            if isinstance(node, _RawAggregate):
                self._agg_counter += 1
                alias = f"__agg_{self._agg_counter}"
                arg = (
                    self._resolve_main(node.arg, scope)
                    if node.arg is not None
                    else None
                )
                func = "count_distinct" if node.distinct else node.func
                specs.append(AggregateSpec(func, arg, alias))
                return Column(alias)
            if isinstance(node, _ScalarSubquery):
                return Literal(self._execute_scalar(node.query))
            if isinstance(node, Column):
                resolved = scope.resolve_local(node.name)
                if resolved is None:
                    raise AnalysisError(f"cannot resolve column {node.name!r}")
                return Column(resolved)
            if isinstance(node, Literal):
                return node
            return _map_children(node, lower)

        return lower(expr), specs


def _map_children(expr: Expression, f) -> Expression:
    """Rebuild an expression applying ``f`` to each child."""
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, f(expr.left), f(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, f(expr.operand))
    if isinstance(expr, LikeOp):
        return LikeOp(f(expr.operand), expr.pattern, expr.negated)
    if isinstance(expr, InOp):
        return InOp(f(expr.operand), expr.values, expr.negated)
    if isinstance(expr, IsNullOp):
        return IsNullOp(f(expr.operand), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, [f(a) for a in expr.args])
    if isinstance(expr, Alias):
        return Alias(f(expr.child), expr.name)
    if isinstance(expr, CaseWhen):
        return CaseWhen(
            [(f(c), f(v)) for c, v in expr.branches],
            f(expr.default) if expr.default is not None else None,
        )
    return expr


def _contains_aggregate(expr: Expression) -> bool:
    if isinstance(expr, _RawAggregate):
        return True
    return any(_contains_aggregate(c) for c in expr.children())


def parse_sql(text: str, session,
              scalar_tables: Optional[Set[str]] = None) -> LogicalPlan:
    """Parse one SELECT and plan it.

    An uncorrelated scalar subquery runs here, over ``session``'s
    tables, and the plan holds its value as a literal; pass a set as
    ``scalar_tables`` to learn which tables those subqueries read.
    """
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    trailing = parser._peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.value!r}",
                         trailing.position)
    planner = _Planner(
        session, set() if scalar_tables is None else scalar_tables
    )
    return planner.plan(query)
