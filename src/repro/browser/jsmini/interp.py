"""Tree-walking evaluator for jsmini.

The host (the simulated browser) supplies builtins; scripts are sandboxed
to those builtins plus local variables, with a step limit against runaway
loops.  Script errors never crash the page — like a real browser, the
error is recorded on the interpreter and execution of that script stops.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.browser.jsmini import parser as ast
from repro.browser.jsmini.lexer import JsSyntaxError
from repro.browser.jsmini.parser import parse_program
from repro.core.errors import ReproError


#: Evaluation steps one interpreter may take before a script is stopped.
_STEP_BUDGET = 100_000


class JsError(ReproError):
    """Raised inside script evaluation (caught at the page boundary)."""


class Interpreter:
    """Evaluates jsmini programs against host-provided builtins."""

    def __init__(self, builtins: Dict[str, Callable]) -> None:
        self._builtins = dict(builtins)
        self._builtins.setdefault("len", lambda value: len(str(value)))
        self._builtins.setdefault("str", lambda value: _to_text(value))
        self._steps = 0
        self.errors: List[str] = []

    def run(self, source: str) -> None:
        """Execute a script; syntax/runtime errors are recorded, not raised."""
        try:
            program = parse_program(source)
        except JsSyntaxError as exc:
            self.errors.append(f"syntax error: {exc}")
            return
        env: Dict[str, object] = {}
        try:
            self._exec_block(program, env)
        except (JsError, JsSyntaxError) as exc:
            self.errors.append(str(exc))

    # -- statements ------------------------------------------------------------

    def _exec_block(self, statements, env: Dict[str, object]) -> None:
        for stmt in statements:
            self._exec(stmt, env)

    def _exec(self, stmt, env: Dict[str, object]) -> None:
        self._step()
        if isinstance(stmt, ast.VarDecl):
            env[stmt.name] = self._eval(stmt.value, env)
        elif isinstance(stmt, ast.Assign):
            if stmt.name not in env:
                raise JsError(f"assignment to undeclared variable {stmt.name!r}")
            env[stmt.name] = self._eval(stmt.value, env)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.If):
            if _truthy(self._eval(stmt.cond, env)):
                self._exec_block(stmt.then, env)
            else:
                self._exec_block(stmt.otherwise, env)
        elif isinstance(stmt, ast.While):
            while _truthy(self._eval(stmt.cond, env)):
                self._step()
                self._exec_block(stmt.body, env)
        else:  # pragma: no cover - parser produces no other nodes
            raise JsError(f"unknown statement {type(stmt).__name__}")

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr, env: Dict[str, object]):
        self._step()
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Ident):
            if expr.name in env:
                return env[expr.name]
            raise JsError(f"undefined variable {expr.name!r}")
        if isinstance(expr, ast.ObjectLit):
            return {key: self._eval(value, env) for key, value in expr.items}
        if isinstance(expr, ast.Call):
            func = self._builtins.get(expr.func)
            if func is None:
                raise JsError(f"undefined function {expr.func!r}")
            args = [self._eval(arg, env) for arg in expr.args]
            try:
                return func(*args)
            except ReproError:
                raise
            except Exception as exc:  # host builtin misuse becomes a JS error
                raise JsError(f"{expr.func}: {exc}") from exc
        if isinstance(expr, ast.Unary):
            value = self._eval(expr.operand, env)
            if expr.op == "!":
                return not _truthy(value)
            return -value
        if isinstance(expr, ast.Binary):
            return self._binary(expr, env)
        raise JsError(f"unknown expression {type(expr).__name__}")

    def _binary(self, expr: ast.Binary, env):
        op = expr.op
        if op == "&&":
            left = self._eval(expr.left, env)
            if not _truthy(left):
                return left
            return self._eval(expr.right, env)
        if op == "||":
            left = self._eval(expr.left, env)
            if _truthy(left):
                return left
            return self._eval(expr.right, env)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                return _to_text(left) + _to_text(right)
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise JsError("division by zero")
            return left / right
        if op == "%":
            return left % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError:
            raise JsError(f"cannot compare {left!r} and {right!r}") from None
        raise JsError(f"unknown operator {op!r}")

    def _step(self) -> None:
        self._steps += 1
        if self._steps > _STEP_BUDGET:
            raise JsError("script exceeded execution budget")


def _truthy(value) -> bool:
    return bool(value)


def _to_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
