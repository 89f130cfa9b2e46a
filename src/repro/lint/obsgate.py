"""Observability-gating rules (O501/O502) for the hot modules.

The observability contract (see ``repro.obs``) is *zero overhead when
disabled*: with no :class:`~repro.obs.sink.Observer` attached, both
engines must execute exactly the code they executed before the
subsystem existed, so the differential matrix keeps certifying
bit-identical results.  Every counter update and trace emission inside
a loop is therefore gated behind a cheap check — per request in the
decide loops, or once around a whole loop that only runs for an
attached sink (the fast engine emits serves and trace records from
each block's serving column after its decide loop)::

    if observing:                 # fast decide loop: one pre-bound bool
        rec_copies[node] += 1
    if rec is not None:           # reference engine: one is-check
        rec.serves[serving] += 1
    if tracer is not None:        # fast accounting: once per block
        for k in sampled:
            tracer.emit_request(...)

``O501`` pins that pattern statically.  Inside any ``for``/``while``
body of ``core/engine.py`` or ``core/fastpath.py``, a call or an
augmented assignment that touches a *sink-named* value — a name
matching ``obs | observer | observing | rec | recorder | trace |
tracer | sink``, bare or with a ``_suffix`` (``rec_serves``,
``trace_emit``) — must have an ancestor ``if`` whose test mentions a
sink name, inside the loop or around it.  The test itself is exempt
(``if trace_wants(i):`` *is* the gate), as is any statement outside a
loop, where a single ungated touch costs one branch per run rather
than one per request.  A nested ``def`` is checked on its own: a guard
around its definition does not cover its body.

``O502`` extends the same contract to the sweep-scale sinks: inside the
hot loops of ``core/sweep.py`` and ``idicn/simnet.py``, touches of
span / progress / heartbeat sinks (``span``, ``spans``, ``tracker``,
``progress``, ``heartbeat``, ``reporter`` — plus the O501 vocabulary,
since sweeps also merge observer registries) must be gated the same
way (``if spans is not None:``, ``if progress:``).

False-positive escapes: name a variable outside the sink vocabulary,
or justify an inline ``# lint: disable=O501`` / ``disable=O502``.
"""

from __future__ import annotations

import ast
import re

from . import rules
from .diagnostics import Diagnostic, Rule

#: Vocabulary of observability sink names: bare or ``_suffix``-ed.
_SINK_NAME = re.compile(
    r"^(obs|observer|observing|rec|recorder|trace|tracer|sink)(_\w+)?$"
)

#: O502 vocabulary: the sweep-scale sinks plus the O501 set (a sweep
#: loop that merges worker registries touches ``observer`` too).
_SPAN_SINK_NAME = re.compile(
    r"^(obs|observer|observing|rec|recorder|trace|tracer|sink"
    r"|span|spans|tracker|progress|heartbeat|reporter)(_\w+)?$"
)

_O501_MESSAGE = (
    "observability sink touched in a hot loop without an "
    "enclosing sink-guard if (e.g. `if observing:`); ungated "
    "instrumentation taxes every run, observed or not"
)

_O502_MESSAGE = (
    "span/progress sink touched in a hot loop without an enclosing "
    "sink-guard if (e.g. `if spans is not None:`); ungated "
    "instrumentation taxes every sweep, observed or not"
)


def _mentions_sink(expr: ast.expr, matcher: re.Pattern[str]) -> bool:
    """Whether any plain name in the expression is sink-vocabulary."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and matcher.match(node.id):
            return True
        if isinstance(node, ast.Attribute) and matcher.match(node.attr):
            return True
    return False


def check_obsgate(
    hot_modules: list[tuple[str, ast.Module]],
) -> list[Diagnostic]:
    """Run O501 over the engine/fastpath module pair."""
    return _check_gating(
        hot_modules, _SINK_NAME, rules.OBS_UNGATED, _O501_MESSAGE
    )


def check_spangate(
    hot_modules: list[tuple[str, ast.Module]],
) -> list[Diagnostic]:
    """Run O502 over the sweep/scheduler module pair."""
    return _check_gating(
        hot_modules, _SPAN_SINK_NAME, rules.SPAN_UNGATED, _O502_MESSAGE
    )


def _check_gating(
    hot_modules: list[tuple[str, ast.Module]],
    matcher: re.Pattern[str],
    rule: Rule,
    message: str,
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for path, tree in hot_modules:
        for stmt in tree.body:
            _scan(path, stmt, False, False, out, matcher, rule, message)
    return out


def _scan(
    path: str,
    stmt: ast.stmt,
    guarded: bool,
    in_loop: bool,
    out: list[Diagnostic],
    matcher: re.Pattern[str],
    rule: Rule,
    message: str,
) -> None:
    """Flag ungated sink touches in one statement.

    ``guarded`` is carried down once an ancestor ``if`` tested a sink
    name — inside the loop or around it: a loop that only runs when a
    sink is attached (``if tracer is not None: for ...``) costs nothing
    when observability is off.  ``in_loop`` is set inside any
    ``for``/``while`` body; only there is a touch flagged.  A nested
    ``def``/``class`` starts afresh: its body executes elsewhere.
    """
    def scan_all(children: list[ast.stmt], guard: bool, loop: bool) -> None:
        for child in children:
            _scan(path, child, guard, loop, out, matcher, rule, message)

    check = in_loop and not guarded
    if isinstance(stmt, ast.If):
        if _mentions_sink(stmt.test, matcher):
            # This *is* the gate: the test's own sink reads are the one
            # permitted per-iteration cost; everything below is covered.
            scan_all(stmt.body + stmt.orelse, True, in_loop)
            return
        if check:
            _flag_expr(path, stmt.test, out, matcher, rule, message)
        scan_all(stmt.body + stmt.orelse, guarded, in_loop)
        return
    if isinstance(stmt, (ast.For, ast.While)):
        if check:
            _flag_expr(
                path,
                stmt.iter if isinstance(stmt, ast.For) else stmt.test,
                out,
                matcher,
                rule,
                message,
            )
        scan_all(stmt.body + stmt.orelse, guarded, True)
        return
    if isinstance(stmt, ast.With):
        if check:
            for item in stmt.items:
                _flag_expr(path, item.context_expr, out, matcher, rule, message)
        scan_all(stmt.body, guarded, in_loop)
        return
    if isinstance(stmt, ast.Try):
        scan_all(stmt.body + stmt.orelse + stmt.finalbody, guarded, in_loop)
        for handler in stmt.handlers:
            scan_all(handler.body, guarded, in_loop)
        return
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scan_all(stmt.body, False, False)
        return
    if not check:
        return
    # Leaf statements: expression statements, assignments, etc.
    for node in ast.walk(stmt):
        if isinstance(node, ast.AugAssign) and _mentions_sink(
            node.target, matcher
        ):
            out.append(_diagnostic(path, node, rule, message))
        elif isinstance(node, ast.Call) and _mentions_sink(
            node.func, matcher
        ):
            out.append(_diagnostic(path, node, rule, message))


def _flag_expr(
    path: str,
    expr: ast.expr,
    out: list[Diagnostic],
    matcher: re.Pattern[str],
    rule: Rule,
    message: str,
) -> None:
    """Flag sink *calls* inside a non-gate expression."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and _mentions_sink(node.func, matcher):
            out.append(_diagnostic(path, node, rule, message))


def _diagnostic(
    path: str, node: ast.AST, rule: Rule, message: str
) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        path=path,
        line=node.lineno,
        col=node.col_offset,
        message=message,
    )
