"""Reference tree-walking interpreter: the oracle for ``repro.dynamic.interpreter``.

This is the interpreter the Inspector used before it was lowered to closures,
kept as a differential oracle (``test_interpreter_differential.py``) and
used to record the Inspector golden digest (``test_inspector_golden.py``).
It walks the AST on every step with an ``isinstance`` ladder.  It differs
from the original walker only by the typed-error fixes pinned in
``test_interpreter_robustness.py`` (negative and out-of-range subscripts,
non-scalar operands, modulo by zero, shift counts, integer growth, array
size, call depth, ``break``/``continue`` outside a loop), which it must
share with the lowered interpreter.

``ReferenceInterpreter(...).run_source(src)`` returns the same
``ExecutionTrace`` the lowered interpreter returns, leaves the same
``_memory`` behind, and raises ``InterpreterError`` with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cparse import ast, parse
from repro.cparse.symbols import build_symbol_table
from repro.dynamic.events import AccessEvent, ExecutionTrace, TaskInfo
from repro.dynamic.interpreter import (
    MAX_ARRAY_ELEMENTS,
    MAX_CALL_DEPTH,
    MAX_INT_BITS,
    InterpreterError,
    InterpreterLimits,
)

__all__ = ["ReferenceInterpreter"]

#: How a non-scalar value reads in an error message.
_KINDS = {list: "array", str: "string", tuple: "address"}


def _check_scalar(value, what: str):
    """Return ``value`` if it is an int or a float; raise naming ``what`` otherwise."""
    if type(value) is int or type(value) is float:
        return value
    kind = _KINDS.get(type(value), type(value).__name__)
    raise InterpreterError(f"bad {what}: {kind} is not a scalar")


def _to_int(value, what: str) -> int:
    """``int(value)`` of a scalar, as an ``InterpreterError`` naming ``what`` if it fails."""
    try:
        return int(_check_scalar(value, what))
    except (OverflowError, ValueError) as exc:
        raise InterpreterError(f"bad {what}: {exc}") from None


_COMPARISONS = ("==", "!=", "<", ">", "<=", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        super().__init__("return")
        self.value = value


@dataclass
class _ThreadState:
    """Per-thread execution context inside a parallel region."""

    thread_id: int
    team_size: int
    privates: Dict[str, object] = field(default_factory=dict)
    epoch: int = 0
    step: int = 0
    locks: Tuple[str, ...] = ()
    critical: Tuple[str, ...] = ()
    atomic_depth: int = 0
    ordered_depth: int = 0
    task_seq: int = 0
    current_task: Optional[TaskInfo] = None


class ReferenceInterpreter:
    """Executes a parsed microbenchmark and records shared-access events."""

    #: Reduction identity values per operator.
    _REDUCTION_INIT = {"+": 0, "-": 0, "*": 1, "max": float("-inf"), "min": float("inf"),
                       "|": 0, "&": ~0, "^": 0, "||": 0, "&&": 1}

    def __init__(
        self,
        *,
        num_threads: int = 4,
        schedule: str = "static",
        limits: Optional[InterpreterLimits] = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if schedule not in ("static", "roundrobin"):
            raise ValueError("schedule must be 'static' or 'roundrobin'")
        self.num_threads = num_threads
        self.schedule = schedule
        self.limits = limits or InterpreterLimits()

    # ------------------------------------------------------------------ run --

    def run_source(self, source: str) -> ExecutionTrace:
        """Parse and execute a C source string."""
        return self.run(parse(source))

    def run(self, unit: ast.TranslationUnit) -> ExecutionTrace:
        """Execute ``main`` of an already parsed translation unit."""
        main = unit.main
        if main is None or main.body is None:
            raise InterpreterError("program has no main function")
        self._unit = unit
        self._symbols = build_symbol_table(unit)
        self._memory: Dict[str, object] = {}
        self._trace = ExecutionTrace(num_threads=self.num_threads)
        self._steps = 0
        self._region_counter = 0
        self._task_counter = 0
        self._depend_last_out: Dict[str, int] = {}
        self._parallel_state: Optional[_ThreadState] = None
        self._call_depth = 0

        try:
            for decl in unit.globals:
                self._exec_declaration(decl, None)
            self._exec_stmt(main.body, None)
        except _ReturnSignal:
            pass
        except _BreakSignal:
            raise InterpreterError("break outside a loop") from None
        except _ContinueSignal:
            raise InterpreterError("continue outside a loop") from None
        except RecursionError:
            raise InterpreterError("program nests too deeply to interpret") from None
        self._trace.steps_executed = self._steps
        self._trace.regions_executed = self._region_counter
        return self._trace

    # ------------------------------------------------------------- plumbing --

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.limits.max_steps:
            raise InterpreterError("execution step limit exceeded")

    def _is_private(self, name: str, state: Optional[_ThreadState]) -> bool:
        return state is not None and name in state.privates

    def _read_var(self, name: str, state: Optional[_ThreadState]):
        if self._is_private(name, state):
            return state.privates[name]
        if name in self._memory:
            return self._memory[name]
        raise InterpreterError(f"read of undeclared variable {name!r}")

    def _write_var(self, name: str, value, state: Optional[_ThreadState]) -> None:
        if self._is_private(name, state):
            state.privates[name] = value
            return
        self._memory[name] = value

    # -------------------------------------------------------------- events --

    def _emit(
        self,
        state: Optional[_ThreadState],
        *,
        address: str,
        variable: str,
        expr_text: str,
        loc: ast.SourceLoc,
        is_write: bool,
    ) -> None:
        if state is None:
            return  # sequential accesses cannot race
        state.step += 1
        task = state.current_task
        self._trace.append(
            AccessEvent(
                address=address,
                variable=variable,
                expr_text=expr_text,
                line=loc.line,
                col=loc.col,
                is_write=is_write,
                thread=state.thread_id,
                region=self._region_counter,
                epoch=state.epoch,
                step=state.step,
                locks=frozenset(state.locks) | frozenset(state.critical),
                atomic=state.atomic_depth > 0,
                ordered=state.ordered_depth > 0,
                task=task,
                task_seq=state.task_seq,
            )
        )

    # --------------------------------------------------------- declarations --

    def _default_value(self, type_name: str):
        return 0.0 if type_name in ("float", "double") else 0

    def _alloc_array(self, dims: List[int], type_name: str):
        if not dims:
            return self._default_value(type_name)
        head, *rest = dims
        return [self._alloc_array(rest, type_name) for _ in range(head)]

    def _exec_declaration(self, decl: ast.Declaration, state: Optional[_ThreadState]) -> None:
        for declarator in decl.declarators:
            dims: List[int] = []
            for dim_expr in declarator.array_dims:
                if dim_expr is None:
                    dims.append(0)
                else:
                    dim = _to_int(self._eval(dim_expr, state), "array dimension")
                    if dim < 0:
                        raise InterpreterError(f"bad array dimension: negative size {dim}")
                    dims.append(dim)
            if dims:
                elements = 1
                for dim in dims:
                    elements *= max(dim, 1)
                if elements > MAX_ARRAY_ELEMENTS:
                    raise InterpreterError(
                        f"bad array dimension: {elements} elements exceed the limit of "
                        f"{MAX_ARRAY_ELEMENTS}"
                    )
                value = self._alloc_array(dims, decl.type_name)
            elif declarator.init is not None:
                value = self._eval(declarator.init, state)
            else:
                value = self._default_value(decl.type_name)
            if declarator.init is not None and dims:
                init = declarator.init
                if isinstance(init, ast.Call) and init.name == "__init_list__":
                    for idx, element in enumerate(init.args[: dims[0]]):
                        value[idx] = self._eval(element, state)
            if state is not None:
                # Declarations inside a parallel construct are block locals,
                # private to the executing thread/task.
                state.privates[declarator.name] = value
            else:
                self._memory[declarator.name] = value

    # ---------------------------------------------------------- expressions --

    def _eval(self, expr: ast.Expr, state: Optional[_ThreadState]):
        self._tick()
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.StringLiteral):
            return expr.value
        if isinstance(expr, ast.Identifier):
            value = self._read_var(expr.name, state)
            if not self._is_private(expr.name, state) and not isinstance(value, list):
                self._emit(
                    state,
                    address=expr.name,
                    variable=expr.name,
                    expr_text=expr.name,
                    loc=expr.loc,
                    is_write=False,
                )
            return value
        if isinstance(expr, ast.ArraySubscript):
            return self._eval_subscript(expr, state, emit_read=True)[2]
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, state)
        if isinstance(expr, ast.UnaryOp):
            value = self._eval(expr.operand, state)
            if expr.op == "-":
                return -_check_scalar(value, "operand of -")
            if expr.op == "+":
                return _check_scalar(value, "operand of +")
            if expr.op == "!":
                return 0 if value else 1
            if expr.op == "~":
                return ~_to_int(value, "operand of ~")
            raise InterpreterError(f"unsupported unary operator {expr.op}")
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, state)
        if isinstance(expr, ast.IncDec):
            return self._eval_incdec(expr, state)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.AddressOf):
            operand = expr.operand
            if isinstance(operand, ast.Identifier):
                return ("&", operand.name)
            return ("&", "<expr>")
        if isinstance(expr, ast.Deref):
            return self._eval(expr.operand, state)
        if isinstance(expr, ast.ConditionalExpr):
            return (
                self._eval(expr.then, state)
                if self._eval(expr.cond, state)
                else self._eval(expr.other, state)
            )
        raise InterpreterError(f"unsupported expression {type(expr).__name__}")

    def _eval_binary(self, expr: ast.BinaryOp, state: Optional[_ThreadState]):
        op = expr.op
        if op == "&&":
            return 1 if (self._eval(expr.left, state) and self._eval(expr.right, state)) else 0
        if op == "||":
            return 1 if (self._eval(expr.left, state) or self._eval(expr.right, state)) else 0
        if op == ",":
            self._eval(expr.left, state)
            return self._eval(expr.right, state)
        left = self._eval(expr.left, state)
        right = self._eval(expr.right, state)
        if op not in _COMPARISONS and op not in _ARITHMETIC:
            raise InterpreterError(f"unsupported binary operator {op}")
        what = f"operand of {op}"
        _check_scalar(left, what)
        _check_scalar(right, what)
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
        return self._eval_binary_value(op, left, right)

    def _render(self, expr: ast.Expr) -> str:
        from repro.analysis.accesses import render_expr

        return render_expr(expr)

    def _eval_subscript(self, expr: ast.ArraySubscript, state, *, emit_read: bool):
        """Resolve an array subscript.  Returns (container, index, value)."""
        root = expr.root_name()
        if root is None:
            raise InterpreterError("cannot resolve array expression")
        what = f"subscript on {root}"
        indices = [_to_int(self._eval(ix, state), what) for ix in expr.indices()]
        container = self._read_var(root, state)
        shared = not self._is_private(root, state)
        target = container
        for depth, index in enumerate(indices[:-1]):
            target = self._subscript(target, index, root)
        last = indices[-1]
        value = self._subscript(target, last, root)
        address = f"{root}[{','.join(str(i) for i in indices)}]"
        if shared and emit_read:
            self._emit(
                state,
                address=address,
                variable=root,
                expr_text=self._render(expr),
                loc=expr.loc,
                is_write=False,
            )
        return (target, last, value) if shared else (target, last, value)

    def _subscript(self, container, index: int, root: str):
        """``container[index]`` for C: a negative index is out of range, not from the end."""
        if index < 0:
            raise InterpreterError(f"bad subscript on {root}: negative index {index}")
        try:
            return container[index]
        except (IndexError, TypeError) as exc:
            raise InterpreterError(f"bad subscript on {root}: {exc}") from exc

    def _assign_target(self, target: ast.Expr, value, state: Optional[_ThreadState]) -> None:
        if isinstance(target, ast.Identifier):
            shared = not self._is_private(target.name, state)
            self._write_var(target.name, value, state)
            if shared:
                self._emit(
                    state,
                    address=target.name,
                    variable=target.name,
                    expr_text=target.name,
                    loc=target.loc,
                    is_write=True,
                )
            return
        if isinstance(target, ast.ArraySubscript):
            root = target.root_name()
            what = f"subscript on {root}"
            indices = [_to_int(self._eval(ix, state), what) for ix in target.indices()]
            container = self._read_var(root, state)
            shared = not self._is_private(root, state)
            dest = container
            for index in indices[:-1]:
                dest = self._subscript(dest, index, root)
            if indices[-1] < 0:
                raise InterpreterError(f"bad subscript on {root}: negative index {indices[-1]}")
            try:
                dest[indices[-1]] = value
            except (IndexError, TypeError) as exc:
                raise InterpreterError(f"bad subscript on {root}: {exc}") from exc
            if shared:
                address = f"{root}[{','.join(str(i) for i in indices)}]"
                self._emit(
                    state,
                    address=address,
                    variable=root,
                    expr_text=self._render(target),
                    loc=target.loc,
                    is_write=True,
                )
            return
        if isinstance(target, ast.Deref):
            raise InterpreterError("pointer stores are not supported")
        raise InterpreterError(f"unsupported assignment target {type(target).__name__}")

    def _eval_assignment(self, expr: ast.Assignment, state: Optional[_ThreadState]):
        if expr.is_compound:
            current = self._eval(expr.target, state)
            rhs = self._eval(expr.value, state)
            op = expr.op[:-1]
            if op not in _ARITHMETIC:
                raise InterpreterError(f"unsupported compound operator {op}=")
            what = f"operand of {op}"
            _check_scalar(current, what)
            _check_scalar(rhs, what)
            combined = self._eval_binary_value(op, current, rhs)
            self._assign_target(expr.target, combined, state)
            return combined
        value = self._eval(expr.value, state)
        self._assign_target(expr.target, value, state)
        return value

    def _eval_binary_value(self, op: str, left, right):
        """Apply arithmetic operator ``op`` to two scalars (shared by ``a op b`` and ``a op= b``)."""
        what = f"operand of {op}"
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return self._bounded(left * right, op)
            if op == "/":
                if right == 0:
                    raise InterpreterError("division by zero")
                if isinstance(left, int) and isinstance(right, int):
                    return left // right
                return left / right
            left, right = _to_int(left, what), _to_int(right, what)
            if op == "%":
                if right == 0:
                    raise InterpreterError("modulo by zero")
                return left % right
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "<<":
                if right > MAX_INT_BITS:
                    raise self._too_wide(op)
                return self._bounded(left << right, op)
            return left >> right
        except (OverflowError, ValueError) as exc:
            raise InterpreterError(f"bad {what}: {exc}") from None

    @staticmethod
    def _too_wide(op: str) -> InterpreterError:
        return InterpreterError(f"bad operand of {op}: integer result exceeds {MAX_INT_BITS} bits")

    def _bounded(self, value, op: str):
        if type(value) is int and value.bit_length() > MAX_INT_BITS:
            raise self._too_wide(op)
        return value

    def _eval_incdec(self, expr: ast.IncDec, state: Optional[_ThreadState]):
        current = _check_scalar(self._eval(expr.operand, state), f"operand of {expr.op}")
        delta = 1 if expr.op == "++" else -1
        updated = current + delta
        self._assign_target(expr.operand, updated, state)
        return updated if expr.prefix else current

    def _eval_call(self, expr: ast.Call, state: Optional[_ThreadState]):
        name = expr.name
        if name == "printf":
            for arg in expr.args[1:]:
                self._eval(arg, state)
            return 0
        if name in ("omp_init_lock", "omp_destroy_lock", "omp_init_nest_lock",
                    "omp_destroy_nest_lock"):
            return 0
        if name in ("omp_set_lock", "omp_set_nest_lock"):
            lock = self._lock_name(expr)
            if state is not None and lock is not None:
                state.locks = state.locks + (lock,)
            return 0
        if name in ("omp_unset_lock", "omp_unset_nest_lock"):
            lock = self._lock_name(expr)
            if state is not None and lock is not None:
                state.locks = tuple(l for l in state.locks if l != lock)
            return 0
        if name == "omp_get_thread_num":
            return state.thread_id if state is not None else 0
        if name == "omp_get_num_threads":
            return state.team_size if state is not None else 1
        if name == "omp_get_wtime":
            return float(self._steps)
        if name == "sizeof":
            return 8
        if name in ("fabs", "abs", "sqrt"):
            if not expr.args:
                raise InterpreterError(f"bad call of {name}: missing argument")
            value = _check_scalar(self._eval(expr.args[0], state), f"operand of {name}")
            if name == "sqrt":
                try:
                    return value ** 0.5
                except OverflowError as exc:
                    raise InterpreterError(f"bad operand of sqrt: {exc}") from None
            return abs(value)
        if name == "__init_list__":
            return [self._eval(a, state) for a in expr.args]
        # user-defined helper function
        fn = self._unit.function(name)
        if fn is not None:
            return self._call_user_function(fn, expr, state)
        # Unknown library call: evaluate arguments for their side effects.
        for arg in expr.args:
            self._eval(arg, state)
        return 0

    def _lock_name(self, expr: ast.Call) -> Optional[str]:
        if not expr.args:
            return None
        arg = expr.args[0]
        if isinstance(arg, ast.AddressOf) and isinstance(arg.operand, ast.Identifier):
            return arg.operand.name
        if isinstance(arg, ast.Identifier):
            return arg.name
        return None

    def _call_user_function(self, fn: ast.FunctionDef, call: ast.Call, state):
        if self._call_depth >= MAX_CALL_DEPTH:
            raise InterpreterError(f"call depth exceeds {MAX_CALL_DEPTH}")
        self._call_depth += 1
        try:
            return self._call_user_function_body(fn, call, state)
        finally:
            self._call_depth -= 1

    def _call_user_function_body(self, fn: ast.FunctionDef, call: ast.Call, state):
        saved_memory_keys = set(self._memory)
        # Arguments are passed by value into temporary globals (the corpus
        # uses helper functions only for scalar work).
        for param, arg in zip(fn.params, call.args):
            self._memory[param.name] = self._eval(arg, state)
        try:
            self._exec_stmt(fn.body, state)
            result = 0
        except _ReturnSignal as signal:
            result = signal.value if signal.value is not None else 0
        for key in set(self._memory) - saved_memory_keys:
            del self._memory[key]
        return result

    # ----------------------------------------------------------- statements --

    def _exec_stmt(self, stmt: ast.Stmt, state: Optional[_ThreadState]) -> None:
        self._tick()
        if isinstance(stmt, ast.CompoundStmt):
            for child in stmt.body:
                self._exec_stmt(child, state)
            return
        if isinstance(stmt, ast.Declaration):
            self._exec_declaration(stmt, state)
            return
        if isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, state)
            return
        if isinstance(stmt, ast.ForStmt):
            self._exec_for(stmt, state)
            return
        if isinstance(stmt, ast.WhileStmt):
            iterations = 0
            while self._eval(stmt.cond, state):
                iterations += 1
                if iterations > self.limits.max_loop_iterations:
                    raise InterpreterError("while loop iteration limit exceeded")
                try:
                    self._exec_stmt(stmt.body, state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, ast.IfStmt):
            if self._eval(stmt.cond, state):
                self._exec_stmt(stmt.then, state)
            elif stmt.other is not None:
                self._exec_stmt(stmt.other, state)
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = self._eval(stmt.value, state) if stmt.value is not None else None
            raise _ReturnSignal(value)
        if isinstance(stmt, ast.BreakStmt):
            raise _BreakSignal()
        if isinstance(stmt, ast.ContinueStmt):
            raise _ContinueSignal()
        if isinstance(stmt, ast.NullStmt):
            return
        if isinstance(stmt, ast.OmpStmt):
            self._exec_omp(stmt, state)
            return
        raise InterpreterError(f"unsupported statement {type(stmt).__name__}")

    def _exec_for(self, stmt: ast.ForStmt, state: Optional[_ThreadState]) -> None:
        if stmt.init is not None:
            self._exec_stmt(stmt.init, state)
        iterations = 0
        while stmt.cond is None or self._eval(stmt.cond, state):
            iterations += 1
            if iterations > self.limits.max_loop_iterations:
                raise InterpreterError("for loop iteration limit exceeded")
            try:
                self._exec_stmt(stmt.body, state)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if stmt.step is not None:
                self._eval(stmt.step, state)
        return

    # --------------------------------------------------------------- OpenMP --

    def _exec_omp(self, stmt: ast.OmpStmt, state: Optional[_ThreadState]) -> None:
        pragma = stmt.pragma
        if pragma.has_directive("parallel") and state is None:
            self._exec_parallel_region(stmt)
            return
        if pragma.has_directive("parallel") and state is not None:
            # Nested parallelism: execute with the existing team (serialized).
            self._exec_parallel_inner(stmt, state)
            return
        if state is None:
            # Orphaned worksharing/simd constructs outside a parallel region
            # execute sequentially on the initial thread.
            if stmt.body is not None:
                self._exec_stmt(stmt.body, state)
            return
        self._exec_parallel_inner(stmt, state)

    # -- region management ---------------------------------------------------

    def _team_size(self, pragma: ast.OmpPragma) -> int:
        clause = pragma.clause("num_threads")
        if clause and clause.arguments:
            try:
                return max(1, int(clause.arguments[0]))
            except ValueError:
                return self.num_threads
        return self.num_threads

    def _apply_data_clauses(self, pragma: ast.OmpPragma, state: _ThreadState) -> Dict[str, Tuple[str, str]]:
        """Populate private storage for clause-listed variables.

        Returns a mapping var -> (kind, op) for variables needing post-region
        handling (lastprivate write-back, reduction merge).
        """
        post: Dict[str, Tuple[str, str]] = {}
        for name in pragma.clause_vars("private"):
            state.privates[name] = 0
        for name in pragma.clause_vars("firstprivate"):
            state.privates[name] = self._memory.get(name, 0)
        for name in pragma.clause_vars("lastprivate"):
            state.privates[name] = self._memory.get(name, 0)
            post[name] = ("lastprivate", "")
        for name in pragma.clause_vars("linear"):
            state.privates[name] = self._memory.get(name, 0)
        for clause in pragma.clauses:
            if clause.name == "reduction":
                op = clause.reduction_op or "+"
                for name in clause.arguments:
                    state.privates[name] = self._REDUCTION_INIT.get(op, 0)
                    post[name] = ("reduction", op)
        return post

    def _merge_post_region(self, post: Dict[str, Tuple[str, str]], states: List[_ThreadState]) -> None:
        for name, (kind, op) in post.items():
            if kind == "lastprivate":
                self._memory[name] = states[-1].privates.get(name, self._memory.get(name, 0))
            elif kind == "reduction":
                total = self._memory.get(name, 0)
                what = f"operand of reduction {op}"
                for state in states:
                    value = _check_scalar(state.privates.get(name, 0), what)
                    _check_scalar(total, what)
                    try:
                        if op == "*":
                            total = total * value
                        elif op == "max":
                            total = max(total, value)
                        elif op == "min":
                            total = min(total, value)
                        else:
                            total = total + value
                    except OverflowError as exc:
                        raise InterpreterError(f"bad {what}: {exc}") from None
                self._memory[name] = total

    def _exec_parallel_region(self, stmt: ast.OmpStmt) -> None:
        pragma = stmt.pragma
        self._region_counter += 1
        team = self._team_size(pragma)
        self._trace.num_threads = max(self._trace.num_threads, team)
        states: List[_ThreadState] = []
        post: Dict[str, Tuple[str, str]] = {}
        for tid in range(team):
            state = _ThreadState(thread_id=tid, team_size=team)
            post = self._apply_data_clauses(pragma, state)
            # Combined parallel-for/sections constructs: the region body *is*
            # the worksharing construct.
            if pragma.has_directive("for") or pragma.has_directive("simd"):
                self._exec_worksharing_for(stmt.body, pragma, state)
            elif pragma.has_directive("sections"):
                self._exec_sections(stmt.body, pragma, state)
            else:
                self._exec_stmt(stmt.body, state)
            states.append(state)
        self._merge_post_region(post, states)

    def _exec_parallel_inner(self, stmt: ast.OmpStmt, state: _ThreadState) -> None:
        """Execute a non-region OpenMP construct inside a parallel region."""
        pragma = stmt.pragma
        if pragma.has_directive("barrier"):
            state.epoch += 1
            return
        if pragma.has_directive("taskwait"):
            state.task_seq += 1
            return
        if pragma.has_directive("for") or pragma.has_directive("taskloop") or (
            pragma.has_directive("simd") and stmt.body is not None and not pragma.has_directive("task")
        ):
            post = self._apply_data_clauses(pragma, state)
            self._exec_worksharing_for(stmt.body, pragma, state)
            self._merge_post_region(post, [state])
            if pragma.clause("nowait") is None:
                state.epoch += 1
            return
        if pragma.has_directive("sections"):
            self._exec_sections(stmt.body, pragma, state)
            if pragma.clause("nowait") is None:
                state.epoch += 1
            return
        if pragma.has_directive("single"):
            if state.thread_id == 0:
                self._exec_stmt(stmt.body, state)
            if pragma.clause("nowait") is None:
                state.epoch += 1
            return
        if pragma.has_directive("master"):
            if state.thread_id == 0:
                self._exec_stmt(stmt.body, state)
            return
        if pragma.has_directive("critical"):
            name_clause = pragma.clause("name")
            name = name_clause.arguments[0] if name_clause else "__critical__"
            state.critical = state.critical + (name,)
            try:
                self._exec_stmt(stmt.body, state)
            finally:
                state.critical = state.critical[:-1]
            return
        if pragma.has_directive("atomic"):
            state.atomic_depth += 1
            try:
                self._exec_stmt(stmt.body, state)
            finally:
                state.atomic_depth -= 1
            return
        if pragma.has_directive("ordered"):
            state.ordered_depth += 1
            try:
                self._exec_stmt(stmt.body, state)
            finally:
                state.ordered_depth -= 1
            return
        if pragma.has_directive("task"):
            self._exec_task(stmt, state)
            return
        if pragma.has_directive("parallel"):
            # Nested region: run the body on the current thread only.
            if pragma.has_directive("for") or pragma.has_directive("simd"):
                self._exec_worksharing_for(stmt.body, pragma, state)
            elif stmt.body is not None:
                self._exec_stmt(stmt.body, state)
            return
        if stmt.body is not None:
            self._exec_stmt(stmt.body, state)

    # -- worksharing ----------------------------------------------------------

    def _loop_iterations(self, loop: ast.ForStmt, state: _ThreadState) -> Tuple[str, List[int]]:
        """Evaluate the iteration space of a canonical OpenMP loop."""
        var = loop.loop_variable()
        if var is None:
            raise InterpreterError("worksharing loop has no canonical induction variable")
        # start value
        if isinstance(loop.init, ast.Declaration):
            init_expr = loop.init.declarators[0].init
        elif isinstance(loop.init, ast.ExprStmt) and isinstance(loop.init.expr, ast.Assignment):
            init_expr = loop.init.expr.value
        else:
            raise InterpreterError("unsupported worksharing loop initialisation")
        start = _to_int(self._eval(init_expr, state), "worksharing loop bound")
        # bound
        cond = loop.cond
        if not isinstance(cond, ast.BinaryOp):
            raise InterpreterError("unsupported worksharing loop condition")
        bound = _to_int(self._eval(cond.right, state), "worksharing loop bound")
        op = cond.op
        # step
        step_expr = loop.step
        step = 1
        if isinstance(step_expr, ast.IncDec):
            step = 1 if step_expr.op == "++" else -1
        elif isinstance(step_expr, ast.Assignment) and step_expr.is_compound:
            delta = _to_int(self._eval(step_expr.value, state), "worksharing loop step")
            step = delta if step_expr.op == "+=" else -delta
        iterations: List[int] = []
        value = start
        guard = 0
        while True:
            guard += 1
            if guard > self.limits.max_loop_iterations:
                raise InterpreterError("worksharing loop iteration limit exceeded")
            if op == "<" and not value < bound:
                break
            if op == "<=" and not value <= bound:
                break
            if op == ">" and not value > bound:
                break
            if op == ">=" and not value >= bound:
                break
            if op not in ("<", "<=", ">", ">="):
                raise InterpreterError(f"unsupported loop condition operator {op}")
            iterations.append(value)
            value += step
        return var, iterations

    def _partition(self, iterations: List[int], thread_id: int, team: int, pragma: ast.OmpPragma) -> List[int]:
        schedule_clause = pragma.clause("schedule")
        kind = self.schedule
        if schedule_clause and schedule_clause.arguments:
            requested = schedule_clause.arguments[0]
            kind = "roundrobin" if requested in ("dynamic", "guided") else "static"
        if kind == "roundrobin":
            return iterations[thread_id::team]
        # default static: contiguous chunks
        total = len(iterations)
        chunk = (total + team - 1) // team if total else 0
        start = thread_id * chunk
        return iterations[start : start + chunk]

    def _exec_worksharing_for(self, body: ast.Stmt, pragma: ast.OmpPragma, state: _ThreadState) -> None:
        loop = body
        while isinstance(loop, ast.CompoundStmt) and len(loop.body) == 1:
            loop = loop.body[0]
        if not isinstance(loop, ast.ForStmt):
            # A simd-only construct may wrap a non-canonical body; execute it.
            self._exec_stmt(body, state)
            return
        var, iterations = self._loop_iterations(loop, state)
        mine = self._partition(iterations, state.thread_id, state.team_size, pragma)
        collapse = pragma.clause("collapse")
        # (collapse is accepted but the corpus only parallelizes the outer loop)
        _ = collapse
        # the loop variable is implicitly private
        state.privates.setdefault(var, 0)
        for value in mine:
            state.privates[var] = value
            try:
                self._exec_stmt(loop.body, state)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue
        if iterations:
            state.privates[var] = iterations[-1] + 1

    def _exec_sections(self, body: ast.Stmt, pragma: ast.OmpPragma, state: _ThreadState) -> None:
        inner = body
        while isinstance(inner, ast.CompoundStmt) and len(inner.body) == 1:
            inner = inner.body[0]
        if not isinstance(inner, ast.CompoundStmt):
            self._exec_stmt(body, state)
            return
        section_index = 0
        for child in inner.body:
            if isinstance(child, ast.OmpStmt) and child.pragma.has_directive("section"):
                owner = section_index % state.team_size
                if owner == state.thread_id and child.body is not None:
                    self._exec_stmt(child.body, state)
                section_index += 1
            else:
                # statements outside explicit sections run on every thread
                self._exec_stmt(child, state)

    # -- tasks ----------------------------------------------------------------

    def _exec_task(self, stmt: ast.OmpStmt, state: _ThreadState) -> None:
        pragma = stmt.pragma
        self._task_counter += 1
        ordered_after = set()
        depend_clause_vars_in: List[str] = []
        depend_clause_vars_out: List[str] = []
        for clause in pragma.clauses:
            if clause.name != "depend" or not clause.arguments:
                continue
            mode = clause.arguments[0]
            names = clause.arguments[1:]
            if mode in ("in", "inout"):
                depend_clause_vars_in.extend(names)
            if mode in ("out", "inout"):
                depend_clause_vars_out.extend(names)
        for name in depend_clause_vars_in:
            if name in self._depend_last_out:
                ordered_after.add(self._depend_last_out[name])
        task = TaskInfo(
            task_id=self._task_counter,
            creator_thread=state.thread_id,
            creation_step=state.step,
            seq=state.task_seq,
            ordered_after=frozenset(ordered_after),
        )
        for name in depend_clause_vars_out:
            self._depend_last_out[name] = task.task_id

        saved_task = state.current_task
        saved_privates = dict(state.privates)
        for name in pragma.clause_vars("firstprivate"):
            state.privates[name] = self._read_var(name, state)
        for name in pragma.clause_vars("private"):
            state.privates[name] = 0
        state.current_task = task
        try:
            if stmt.body is not None:
                self._exec_stmt(stmt.body, state)
        finally:
            state.current_task = saved_task
            state.privates = saved_privates
