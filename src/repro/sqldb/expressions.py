"""Compile expression ASTs into executable closures.

Compilation resolves every column reference to a slot index at plan time
(:class:`Scope`), so evaluation is a straight tuple lookup.  References
that do not resolve in the current scope are searched in the enclosing
subquery frames; such references compile to reads of the runtime
outer-row stack and mark every frame they cross as *correlated*, which is
what disables result caching for the affected subqueries.

All predicates follow SQL three-valued logic: closures return ``True``,
``False`` or ``None`` (UNKNOWN); only ``True`` keeps a row.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, ExecutionError, SQLError, TypeMismatchError
from repro.sqldb import ast_nodes as ast
from repro.sqldb.functions import AGGREGATE_NAMES
from repro.sqldb.types import (
    coerce_value,
    compare_values,
    is_null,
    logical_and,
    logical_not,
    logical_or,
)

ExprFn = Callable[[Tuple[Any, ...], Any], Any]


class UnresolvedColumnError(SQLError):
    """Internal: a column reference did not resolve in any visible scope."""


class Scope:
    """Column namespace of one SELECT core.

    Slots are the concatenated output columns of the FROM clause; each slot
    carries the binding name it belongs to (table alias, lowercased) and
    its column name.  Resolution is case-insensitive and detects ambiguity.
    """

    def __init__(self, bindings: Sequence[Tuple[Optional[str], Sequence[str]]]) -> None:
        self.bindings: List[Tuple[Optional[str], List[str]]] = [
            (name.lower() if name else None, list(columns))
            for name, columns in bindings
        ]
        self._slots: List[Tuple[Optional[str], str]] = []
        for name, columns in self.bindings:
            for column in columns:
                self._slots.append((name, column.lower()))

    @property
    def arity(self) -> int:
        return len(self._slots)

    def binding_names(self) -> List[str]:
        return [name for name, __ in self.bindings if name]

    def has_binding(self, name: str) -> bool:
        return name.lower() in self.binding_names()

    def binding_slot_range(self, name: str) -> Tuple[int, int]:
        """Return the (start, end) slot range of a binding, for ``alias.*``."""
        offset = 0
        wanted = name.lower()
        for binding_name, columns in self.bindings:
            if binding_name == wanted:
                return offset, offset + len(columns)
            offset += len(columns)
        raise UnresolvedColumnError(f"unknown table alias {name!r}")

    def slot_names(self) -> List[str]:
        return [column for __, column in self._slots]

    def binding_of_slot(self, slot: int) -> Optional[str]:
        """The (lowercased) binding name a slot belongs to, or None."""
        return self._slots[slot][0]

    def resolve(self, qualifier: Optional[str], name: str) -> int:
        """Return the slot index of ``qualifier.name`` / ``name``.

        Raises :class:`UnresolvedColumnError` when absent and
        :class:`CatalogError` when an unqualified name is ambiguous.
        """
        wanted = name.lower()
        if qualifier is not None:
            qualifier = qualifier.lower()
            offset = 0
            for binding_name, columns in self.bindings:
                if binding_name == qualifier:
                    for position, column in enumerate(columns):
                        if column.lower() == wanted:
                            return offset + position
                    raise UnresolvedColumnError(
                        f"binding {qualifier!r} has no column {name!r}"
                    )
                offset += len(columns)
            raise UnresolvedColumnError(f"unknown table alias {qualifier!r}")
        matches = [
            index
            for index, (__, column) in enumerate(self._slots)
            if column == wanted
        ]
        if not matches:
            raise UnresolvedColumnError(f"unknown column {name!r}")
        if len(matches) > 1:
            raise CatalogError(f"ambiguous column reference {name!r}")
        return matches[0]


class Frame:
    """One subquery nesting level during compilation.

    ``scope`` is mutable: a statement with a UNION body compiles each core
    sequentially against the same frame with the scope swapped in.
    ``correlated`` becomes True as soon as any expression compiled within
    this frame resolves a column in an enclosing frame.
    """

    __slots__ = ("scope", "correlated")

    def __init__(self, scope: Optional[Scope] = None) -> None:
        self.scope = scope
        self.correlated = False


class SlotRef(ast.Expression):
    """Planner-internal expression: read output slot *index* directly.

    Produced by the aggregate rewrite (group keys and aggregate results
    become slots of the Aggregate operator's output row).
    """

    def __init__(self, index: int) -> None:
        self.index = index


class CompileContext:
    """Everything :func:`compile_expression` needs.

    ``frames`` is the stack of subquery frames, innermost last.
    ``plan_subquery`` is the planner callback used for subquery
    expressions; it returns an object with ``exists/value_list/scalar``
    runtime methods (see :class:`repro.sqldb.planner.CompiledSubquery`).
    """

    def __init__(self, frames: List[Frame], plan_subquery, functions) -> None:
        self.frames = frames
        self.plan_subquery = plan_subquery
        self.functions = functions

    @property
    def scope(self) -> Scope:
        return self.frames[-1].scope

    def resolve_column(self, ref: ast.ColumnRef) -> Tuple[int, int]:
        """Resolve *ref* against the frame stack.

        Returns ``(depth, slot)`` where depth 0 is the current frame.
        Marks every frame inside the resolution point as correlated.
        """
        last_error: Optional[SQLError] = None
        for distance, frame in enumerate(reversed(self.frames)):
            if frame.scope is None:
                continue
            try:
                slot = frame.scope.resolve(ref.qualifier, ref.name)
            except UnresolvedColumnError as exc:
                last_error = exc
                continue
            if distance > 0:
                for inner in self.frames[len(self.frames) - distance :]:
                    inner.correlated = True
            return distance, slot
        if last_error is None:
            last_error = UnresolvedColumnError(f"unknown column {ref}")
        raise last_error


def compile_expression(node: ast.Expression, ctx: CompileContext) -> ExprFn:
    """Compile *node* into a closure ``(row, env) -> value``."""
    if isinstance(node, SlotRef):
        index = node.index
        return lambda row, env: row[index]
    if isinstance(node, ast.Literal):
        value = node.value
        return lambda row, env: value
    if isinstance(node, ast.Parameter):
        index = node.index
        return lambda row, env: env.parameter(index)
    if isinstance(node, ast.ColumnRef):
        depth, slot = ctx.resolve_column(node)
        if depth == 0:
            return lambda row, env: row[slot]
        return lambda row, env: env.outer_rows[-depth][slot]
    if isinstance(node, ast.UnaryOp):
        return _compile_unary(node, ctx)
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, ctx)
    if isinstance(node, ast.FunctionCall):
        return _compile_call(node, ctx)
    if isinstance(node, ast.Cast):
        operand = compile_expression(node.operand, ctx)
        target = node.target
        return lambda row, env: coerce_value(operand(row, env), target)
    if isinstance(node, ast.IsNullTest):
        operand = compile_expression(node.operand, ctx)
        if node.negated:
            return lambda row, env: not is_null(operand(row, env))
        return lambda row, env: is_null(operand(row, env))
    if isinstance(node, ast.InList):
        return _compile_in_list(node, ctx)
    if isinstance(node, ast.InSubquery):
        return _compile_in_subquery(node, ctx)
    if isinstance(node, ast.ExistsTest):
        subquery = ctx.plan_subquery(node.subquery, ctx.frames)
        if node.negated:
            return lambda row, env: not subquery.exists(row, env)
        return lambda row, env: subquery.exists(row, env)
    if isinstance(node, ast.ScalarSubquery):
        subquery = ctx.plan_subquery(node.subquery, ctx.frames)
        return lambda row, env: subquery.scalar(row, env)
    if isinstance(node, ast.Between):
        return _compile_between(node, ctx)
    if isinstance(node, ast.Like):
        return _compile_like(node, ctx)
    if isinstance(node, ast.CaseWhen):
        return _compile_case(node, ctx)
    raise ExecutionError(f"cannot compile {type(node).__name__}")


def to_bool(value: Any) -> Optional[bool]:
    """Interpret a value in boolean context (NULL stays UNKNOWN)."""
    if is_null(value):
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    raise TypeMismatchError(f"{value!r} is not a boolean")


def _compile_unary(node: ast.UnaryOp, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    if node.operator == "NOT":
        return lambda row, env: logical_not(to_bool(operand(row, env)))
    if node.operator == "-":
        def negate(row, env):
            value = operand(row, env)
            return None if is_null(value) else -value

        return negate
    if node.operator == "+":
        return operand
    raise ExecutionError(f"unknown unary operator {node.operator!r}")


_COMPARISONS = {
    "=": lambda cmp: cmp == 0,
    "<>": lambda cmp: cmp != 0,
    "<": lambda cmp: cmp < 0,
    "<=": lambda cmp: cmp <= 0,
    ">": lambda cmp: cmp > 0,
    ">=": lambda cmp: cmp >= 0,
}


def _compile_binary(node: ast.BinaryOp, ctx: CompileContext) -> ExprFn:
    operator = node.operator
    if operator == "AND":
        left = compile_expression(node.left, ctx)
        right = compile_expression(node.right, ctx)

        def and_fn(row, env):
            left_value = to_bool(left(row, env))
            if left_value is False:
                return False
            return logical_and(left_value, to_bool(right(row, env)))

        return and_fn
    if operator == "OR":
        left = compile_expression(node.left, ctx)
        right = compile_expression(node.right, ctx)

        def or_fn(row, env):
            left_value = to_bool(left(row, env))
            if left_value is True:
                return True
            return logical_or(left_value, to_bool(right(row, env)))

        return or_fn
    left = compile_expression(node.left, ctx)
    right = compile_expression(node.right, ctx)
    if operator in _COMPARISONS:
        decide = _COMPARISONS[operator]

        def compare(row, env):
            result = compare_values(left(row, env), right(row, env))
            return None if result is None else decide(result)

        return compare
    if operator in ("+", "-", "*", "/", "%"):
        return _arithmetic(operator, left, right)
    if operator == "||":
        def concat(row, env):
            left_value = left(row, env)
            right_value = right(row, env)
            if is_null(left_value) or is_null(right_value):
                return None
            return str(left_value) + str(right_value)

        return concat
    raise ExecutionError(f"unknown operator {operator!r}")


def _arithmetic(operator: str, left: ExprFn, right: ExprFn) -> ExprFn:
    def apply(row, env):
        left_value = left(row, env)
        right_value = right(row, env)
        if is_null(left_value) or is_null(right_value):
            return None
        if not isinstance(left_value, (int, float)) or not isinstance(
            right_value, (int, float)
        ):
            raise TypeMismatchError(
                f"arithmetic on non-numeric values "
                f"{left_value!r} {operator} {right_value!r}"
            )
        try:
            if operator == "+":
                return left_value + right_value
            if operator == "-":
                return left_value - right_value
            if operator == "*":
                return left_value * right_value
            if operator == "/":
                if isinstance(left_value, int) and isinstance(right_value, int):
                    # SQL integer division truncates toward zero.
                    return int(left_value / right_value)
                return left_value / right_value
            return left_value % right_value
        except ZeroDivisionError:
            raise ExecutionError("division by zero") from None

    return apply


def _compile_call(node: ast.FunctionCall, ctx: CompileContext) -> ExprFn:
    name = node.name.upper()
    if name in AGGREGATE_NAMES:
        raise ExecutionError(
            f"aggregate function {name} used outside of a grouped query context"
        )
    if name == "COALESCE":
        args = [compile_expression(arg, ctx) for arg in node.args]

        def coalesce(row, env):
            for arg in args:
                value = arg(row, env)
                if not is_null(value):
                    return value
            return None

        return coalesce
    if name == "NULLIF":
        if len(node.args) != 2:
            raise ExecutionError("NULLIF takes exactly two arguments")
        first = compile_expression(node.args[0], ctx)
        second = compile_expression(node.args[1], ctx)

        def nullif(row, env):
            value = first(row, env)
            if compare_values(value, second(row, env)) == 0:
                return None
            return value

        return nullif
    args = [compile_expression(arg, ctx) for arg in node.args]

    def call(row, env):
        return env.functions.call(name, [arg(row, env) for arg in args])

    return call


def _compile_in_list(node: ast.InList, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    negated = node.negated
    # Fast path: a list of literals/parameters is row-independent, so the
    # membership set can be built once per execution.  This matters for the
    # bulk check-out statements (``WHERE obid IN (?, ?, ..thousands..)``),
    # where the naive per-row linear scan would be quadratic.
    if all(
        isinstance(item, (ast.Literal, ast.Parameter)) for item in node.items
    ):
        item_fns = [compile_expression(item, ctx) for item in node.items]
        cache_token = object()

        def contains_static(row, env):
            cached = env.subquery_cache.get(cache_token)
            if cached is None:
                values = set()
                has_null = False
                for fn in item_fns:
                    item_value = fn(row, env)
                    if is_null(item_value):
                        has_null = True
                    else:
                        values.add(item_value)
                cached = (values, has_null)
                env.subquery_cache[cache_token] = cached
            values, has_null = cached
            value = operand(row, env)
            if is_null(value):
                result: Optional[bool] = None if (values or has_null) else False
            elif value in values:
                result = True
            elif has_null:
                result = None
            else:
                result = False
            return logical_not(result) if negated else result

        return contains_static
    items = [compile_expression(item, ctx) for item in node.items]

    def contains(row, env):
        value = operand(row, env)
        result: Optional[bool] = False
        for item in items:
            comparison = compare_values(value, item(row, env))
            if comparison == 0:
                result = True
                break
            if comparison is None:
                result = None
        return logical_not(result) if negated else result

    return contains


def _compile_in_subquery(node: ast.InSubquery, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    subquery = ctx.plan_subquery(node.subquery, ctx.frames)
    negated = node.negated

    def contains(row, env):
        value = operand(row, env)
        values, has_null = subquery.value_set(row, env)
        if not is_null(value) and value in values:
            result: Optional[bool] = True
        elif is_null(value) and (values or has_null):
            result = None
        elif has_null:
            result = None
        else:
            result = False
        return logical_not(result) if negated else result

    return contains


def _compile_between(node: ast.Between, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    low = compile_expression(node.low, ctx)
    high = compile_expression(node.high, ctx)
    negated = node.negated

    def between(row, env):
        value = operand(row, env)
        low_cmp = compare_values(value, low(row, env))
        high_cmp = compare_values(value, high(row, env))
        above_low = None if low_cmp is None else low_cmp >= 0
        below_high = None if high_cmp is None else high_cmp <= 0
        result = logical_and(above_low, below_high)
        return logical_not(result) if negated else result

    return between


def _compile_like(node: ast.Like, ctx: CompileContext) -> ExprFn:
    operand = compile_expression(node.operand, ctx)
    pattern = compile_expression(node.pattern, ctx)
    negated = node.negated
    cache: dict = {}

    def like(row, env):
        value = operand(row, env)
        pattern_value = pattern(row, env)
        if is_null(value) or is_null(pattern_value):
            return None
        regex = cache.get(pattern_value)
        if regex is None:
            regex = _like_to_regex(str(pattern_value))
            cache[pattern_value] = regex
        result = regex.fullmatch(str(value)) is not None
        return (not result) if negated else result

    return like


def _like_to_regex(pattern: str) -> "re.Pattern":
    parts: List[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def _compile_case(node: ast.CaseWhen, ctx: CompileContext) -> ExprFn:
    branches = [
        (compile_expression(condition, ctx), compile_expression(value, ctx))
        for condition, value in node.branches
    ]
    default = (
        compile_expression(node.default, ctx) if node.default is not None else None
    )

    def case(row, env):
        for condition, value in branches:
            if to_bool(condition(row, env)) is True:
                return value(row, env)
        if default is not None:
            return default(row, env)
        return None

    return case


def contains_aggregate(node: ast.Expression) -> bool:
    """True if *node* contains an aggregate call outside any subquery."""
    for sub in ast.walk_expression(node):
        if isinstance(sub, ast.FunctionCall) and sub.name.upper() in AGGREGATE_NAMES:
            return True
    return False
