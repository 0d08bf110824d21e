"""AST interpreter with OpenMP semantics for the corpus language subset.

The interpreter executes one microbenchmark with a simulated thread team.
Threads of a parallel region are executed one after another (thread 0's whole
traversal of the region body, then thread 1's, ...): for race *detection* the
precise interleaving is irrelevant because the detector reasons about
concurrency from barrier epochs, lock sets and task lineage recorded on each
event, exactly like segment/lockset-based commercial tools do.

Supported OpenMP constructs: ``parallel`` (with ``num_threads``), worksharing
``for`` (static and round-robin schedules, ``nowait``, ``reduction``,
``private``/``firstprivate``/``lastprivate``/``linear``), combined
``parallel for [simd]``, ``simd``, ``sections``/``section``, ``single``,
``master``, ``critical`` (named and unnamed), ``atomic`` (with modifiers),
``ordered``, ``barrier``, ``task`` (with ``depend``, ``shared``,
``firstprivate``), ``taskwait``, and the lock API
(``omp_init_lock``/``omp_set_lock``/``omp_unset_lock``/``omp_destroy_lock``).

Each :meth:`Interpreter.run` first lowers the program: every AST node
becomes a Python closure that takes the executing thread's state (``None``
outside parallel regions).  Everything that depends only on the AST is
decided once there: the operator of a binary node, the root name, index
closures and rendered ``expr_text`` of a subscript, the branch of an OpenMP
construct, the clause lists of a region.  Every node still ticks once when it
executes, so ``steps_executed``, ``omp_get_wtime`` and
:class:`InterpreterLimits` trip at the same step as a tree walk.  The lowered
program lives only for that run.

Programs the interpreter cannot execute raise :class:`InterpreterError`:
unsupported constructs, undeclared variables, limits, and runtime faults a C
program would hit (negative or out-of-range subscripts, arrays, strings or
addresses used as scalar operands, division or modulo by zero, negative shift
counts, integers past :data:`MAX_INT_BITS`, arrays past
:data:`MAX_ARRAY_ELEMENTS`, calls nested past :data:`MAX_CALL_DEPTH`,
``break``/``continue`` outside a loop).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.accesses import render_expr
from repro.cparse import ast, parse
from repro.dynamic.events import AccessEvent, ExecutionTrace, TaskInfo

__all__ = ["Interpreter", "InterpreterError", "InterpreterLimits"]

#: Deepest chain of nested user-function calls a program may make.
MAX_CALL_DEPTH = 32
#: Largest integer result of ``*`` or ``<<``, in bits.  Far wider than any C
#: integer type; it only stops repeated squaring or shifting from growing a
#: Python int without bound.
MAX_INT_BITS = 4096
#: Largest array a declaration may allocate, in elements.
MAX_ARRAY_ELEMENTS = 1 << 20


class InterpreterError(RuntimeError):
    """Raised for unsupported constructs or runtime errors during interpretation."""


@dataclass(frozen=True)
class InterpreterLimits:
    """Execution limits protecting against runaway loops."""

    max_steps: int = 2_000_000
    max_loop_iterations: int = 100_000


# -- values ----------------------------------------------------------------------

_SCALARS = (int, float)
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


def _too_wide(op: str) -> InterpreterError:
    return InterpreterError(f"bad operand of {op}: integer result exceeds {MAX_INT_BITS} bits")


def _bounded(value, op: str):
    if type(value) is int and value.bit_length() > MAX_INT_BITS:
        raise _too_wide(op)
    return value


def _mul(left, right):
    return _bounded(left * right, "*")


def _div(left, right):
    if right == 0:
        raise InterpreterError("division by zero")
    if type(left) is int and type(right) is int:
        return left // right
    return left / right


def _mod(left, right):
    left, right = _to_int(left, "operand of %"), _to_int(right, "operand of %")
    if right == 0:
        raise InterpreterError("modulo by zero")
    return left % right


def _bitwise(op: str, fn: Callable) -> Callable:
    what = f"operand of {op}"

    def apply(left, right):
        return fn(_to_int(left, what), _to_int(right, what))

    return apply


def _lshift(left, right):
    left, right = _to_int(left, "operand of <<"), _to_int(right, "operand of <<")
    if right > MAX_INT_BITS:
        raise _too_wide("<<")
    return _bounded(left << right, "<<")


#: ``a op b`` and ``a op= b`` on two scalars.  ``OverflowError`` and
#: ``ValueError`` (a huge int meeting a float, a negative shift count) are
#: reported as bad operands by the caller.
_ARITHMETIC: Dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": _mul,
    "/": _div,
    "%": _mod,
    "&": _bitwise("&", operator.and_),
    "|": _bitwise("|", operator.or_),
    "^": _bitwise("^", operator.xor),
    "<<": _lshift,
    ">>": _bitwise(">>", operator.rshift),
}
#: ``a op b`` on two scalars: the arithmetic operators and the comparisons,
#: which yield 1 or 0.
_BINARY: Dict[str, Callable] = {
    **_ARITHMETIC,
    "==": lambda left, right: 1 if left == right else 0,
    "!=": lambda left, right: 1 if left != right else 0,
    "<": lambda left, right: 1 if left < right else 0,
    ">": lambda left, right: 1 if left > right else 0,
    "<=": lambda left, right: 1 if left <= right else 0,
    ">=": lambda left, right: 1 if left >= right else 0,
}

#: Reduction identity values per operator.
_REDUCTION_INIT = {"+": 0, "-": 0, "*": 1, "max": float("-inf"), "min": float("inf"),
                   "|": 0, "&": ~0, "^": 0, "||": 0, "&&": 1}


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value) -> None:
        super().__init__("return")
        self.value = value


@dataclass(slots=True)
class _Thread:
    """Per-thread execution context inside a parallel region."""

    thread_id: int
    team_size: int
    region: int
    privates: Dict[str, object] = field(default_factory=dict)
    epoch: int = 0
    step: int = 0
    locks: Tuple[str, ...] = ()
    critical: Tuple[str, ...] = ()
    lockset: FrozenSet[str] = frozenset()  # frozenset(locks) | frozenset(critical)
    atomic_depth: int = 0
    ordered_depth: int = 0
    task_seq: int = 0
    current_task: Optional[TaskInfo] = None

    def hold(self, locks: Tuple[str, ...], critical: Tuple[str, ...]) -> None:
        self.locks = locks
        self.critical = critical
        self.lockset = frozenset(locks) | frozenset(critical)


class Interpreter:
    """Executes a parsed microbenchmark and records shared-access events."""

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

    def run_source(self, source: str) -> ExecutionTrace:
        """Parse and execute a C source string."""
        return self.run(parse(source))

    def run(self, unit: ast.TranslationUnit) -> ExecutionTrace:
        """Execute ``main`` of an already parsed translation unit."""
        main = unit.main
        if main is None or main.body is None:
            raise InterpreterError("program has no main function")
        self._memory: Dict[str, object] = {}
        trace = ExecutionTrace(num_threads=self.num_threads)
        program = _Program(self, unit, self._memory, trace)
        try:
            program.execute(main.body)
        finally:
            # Break the program's only references to its closures, so the
            # lowered program and the trace do not outlive the run in a cycle.
            program.functions.clear()
            program.lowered.clear()
        return trace


class _Program:
    """One run of one translation unit: its lowered closures and runtime state.

    Closures refer to the program, never the other way round, except through
    :attr:`functions` and :attr:`lowered`, which :meth:`Interpreter.run`
    empties afterwards.
    """

    def __init__(
        self, interp: Interpreter, unit: ast.TranslationUnit, memory: Dict[str, object],
        trace: ExecutionTrace,
    ) -> None:
        self.unit = unit
        self.num_threads = interp.num_threads
        self.schedule = interp.schedule
        self.max_steps = interp.limits.max_steps
        self.max_loop_iterations = interp.limits.max_loop_iterations
        self.memory = memory
        self.trace = trace
        self.append = trace.events.append
        self.steps = 0
        self.region_counter = 0
        self.task_counter = 0
        self.call_depth = 0
        self.depend_last_out: Dict[str, int] = {}
        #: Lowered body of every user function a call site names.
        self.functions: Dict[str, Callable] = {}
        #: Lowered statements by node id, while lowering: an OpenMP construct
        #: lowers its body for both the sequential and the in-region path.
        self.lowered: Dict[int, Callable] = {}

    def execute(self, body: ast.Stmt) -> None:
        try:
            declarations = [self.declaration(decl) for decl in self.unit.globals]
            main = self.stmt(body)
            for declare in declarations:
                declare(None)
            main(None)
        except _ReturnSignal:
            pass
        except _BreakSignal:
            raise InterpreterError("break outside a loop") from None
        except _ContinueSignal:
            raise InterpreterError("continue outside a loop") from None
        except RecursionError:
            raise InterpreterError("program nests too deeply to interpret") from None
        self.trace.steps_executed = self.steps
        self.trace.regions_executed = self.region_counter

    # -- runtime helpers ------------------------------------------------------------

    def tick(self) -> None:
        """Count one executed node against the step limit."""
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError("execution step limit exceeded")

    def emit(self, state: _Thread, address: str, variable: str, text: str, line: int,
             col: int, is_write: bool) -> None:
        state.step = step = state.step + 1
        self.append(AccessEvent(
            address, variable, text, line, col, is_write, state.thread_id, state.region,
            state.epoch, step, state.lockset, state.atomic_depth > 0,
            state.ordered_depth > 0, state.current_task, state.task_seq,
        ))

    def container(self, root: str, state: Optional[_Thread]):
        """``(value, shared)`` of variable ``root``, as the executing thread sees it."""
        if state is not None:
            privates = state.privates
            if root in privates:
                return privates[root], False
        memory = self.memory
        if root in memory:
            return memory[root], state is not None
        raise InterpreterError(f"read of undeclared variable {root!r}")

    # -- expressions ----------------------------------------------------------------

    def expr(self, node: ast.Expr) -> Callable:
        """Lower an expression to ``f(state) -> value``."""
        lower = self._EXPRESSIONS.get(type(node))
        if lower is not None:
            return lower(self, node)
        message = f"unsupported expression {type(node).__name__}"
        return self._raises(message)

    def _raises(self, message: str, *before: Callable) -> Callable:
        """A node that ticks, evaluates ``before`` and then fails with ``message``."""

        def fail(state):
            self.tick()
            for operand in before:
                operand(state)
            raise InterpreterError(message)

        return fail

    def _ticked(self, run: Callable) -> Callable:
        """A node that ticks and then evaluates ``run``."""

        def ticked(state):
            self.tick()
            return run(state)

        return ticked

    def _constant(self, value) -> Callable:

        def constant(state):
            self.tick()
            return value

        return constant

    def _literal(self, node) -> Callable:
        return self._constant(node.value)

    def _identifier(self, node: ast.Identifier) -> Callable:
        name = node.name
        line, col = node.loc.line, node.loc.col
        memory, emit = self.memory, self.emit
        undeclared = f"read of undeclared variable {name!r}"

        def identifier(state):
            self.tick()
            if state is None:
                if name in memory:
                    return memory[name]
                raise InterpreterError(undeclared)
            privates = state.privates
            if name in privates:
                return privates[name]
            if name in memory:
                value = memory[name]
                if type(value) is not list:
                    emit(state, name, name, name, line, col, False)
                return value
            raise InterpreterError(undeclared)

        return identifier

    def _indices(self, node: ast.ArraySubscript) -> Tuple[Optional[str], str, List[Callable]]:
        root = node.root_name()
        return root, f"subscript on {root}", [self.expr(ix) for ix in node.indices()]

    def _subscript(self, node: ast.ArraySubscript) -> Callable:
        root, what, indices = self._indices(node)
        if root is None:
            return self._raises("cannot resolve array expression")
        text = render_expr(node)
        line, col = node.loc.line, node.loc.col
        container, emit = self.container, self.emit

        def subscript(state):
            self.tick()
            values = _index_values(indices, state, what)
            target, shared = container(root, state)
            for index in values:
                target = _element(target, index, root)
            if shared:
                emit(state, _address(root, values), root, text, line, col, False)
            return target

        return subscript

    def _binary(self, node: ast.BinaryOp) -> Callable:
        op = node.op
        left, right = self.expr(node.left), self.expr(node.right)
        if op == "&&":

            def logical_and(state):
                self.tick()
                return 1 if (left(state) and right(state)) else 0

            return logical_and
        if op == "||":

            def logical_or(state):
                self.tick()
                return 1 if (left(state) or right(state)) else 0

            return logical_or
        if op == ",":

            def comma(state):
                self.tick()
                left(state)
                return right(state)

            return comma
        apply = _BINARY.get(op)
        if apply is None:
            return self._raises(f"unsupported binary operator {op}", left, right)
        what = f"operand of {op}"

        def binary(state):
            self.tick()
            a = left(state)
            b = right(state)
            if type(a) not in _SCALARS or type(b) not in _SCALARS:
                _check_scalar(a, what)
                _check_scalar(b, what)
            try:
                return apply(a, b)
            except (OverflowError, ValueError) as exc:
                raise InterpreterError(f"bad {what}: {exc}") from None

        return binary

    def _unary(self, node: ast.UnaryOp) -> Callable:
        op = node.op
        operand = self.expr(node.operand)
        if op not in ("-", "+", "!", "~"):
            return self._raises(f"unsupported unary operator {op}", operand)
        what = f"operand of {op}"

        def unary(state):
            self.tick()
            value = operand(state)
            if op == "!":
                return 0 if value else 1
            if op == "~":
                return ~_to_int(value, what)
            value = _check_scalar(value, what)
            return -value if op == "-" else value

        return unary

    def _assignment(self, node: ast.Assignment) -> Callable:
        store, value_of = self.store(node.target), self.expr(node.value)
        if not node.is_compound:

            def assign(state):
                self.tick()
                value = value_of(state)
                store(state, value)
                return value

            return assign
        op = node.op[:-1]
        current_of = self.expr(node.target)
        apply = _ARITHMETIC.get(op)
        if apply is None:
            return self._raises(f"unsupported compound operator {op}=", current_of, value_of)
        what = f"operand of {op}"

        def compound(state):
            self.tick()
            current = current_of(state)
            rhs = value_of(state)
            if type(current) not in _SCALARS or type(rhs) not in _SCALARS:
                _check_scalar(current, what)
                _check_scalar(rhs, what)
            try:
                combined = apply(current, rhs)
            except (OverflowError, ValueError) as exc:
                raise InterpreterError(f"bad {what}: {exc}") from None
            store(state, combined)
            return combined

        return compound

    def _incdec(self, node: ast.IncDec) -> Callable:
        current_of, store = self.expr(node.operand), self.store(node.operand)
        delta = 1 if node.op == "++" else -1
        prefix = node.prefix
        what = f"operand of {node.op}"

        def incdec(state):
            self.tick()
            current = current_of(state)
            if type(current) not in _SCALARS:
                _check_scalar(current, what)
            updated = current + delta
            store(state, updated)
            return updated if prefix else current

        return incdec

    def _address_of(self, node: ast.AddressOf) -> Callable:
        operand = node.operand
        return self._constant(("&", operand.name if isinstance(operand, ast.Identifier) else "<expr>"))

    def _deref(self, node: ast.Deref) -> Callable:
        return self._ticked(self.expr(node.operand))

    def _conditional(self, node: ast.ConditionalExpr) -> Callable:
        cond, then, other = self.expr(node.cond), self.expr(node.then), self.expr(node.other)

        def conditional(state):
            self.tick()
            return then(state) if cond(state) else other(state)

        return conditional

    # -- calls ------------------------------------------------------------------------

    def _call(self, node: ast.Call) -> Callable:
        name = node.name
        if name in ("fabs", "abs", "sqrt") and not node.args:
            return self._raises(f"bad call of {name}: missing argument")
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            return self._ticked(builtin(self, node))
        if name == "printf":
            # The format string is a literal; the other arguments may have
            # side effects.
            return self._ticked(self._side_effects(node.args[1:]))
        if name == "__init_list__":
            elements = [self.expr(arg) for arg in node.args]
            return self._ticked(lambda state: [element(state) for element in elements])
        if self.unit.function(name) is not None:
            return self._user_call(node)
        # Unknown library call: evaluate the arguments for their side effects.
        return self._ticked(self._side_effects(node.args))

    def _side_effects(self, args: List[ast.Expr]) -> Callable:
        lowered = [self.expr(arg) for arg in args]

        def side_effects(state):
            for arg in lowered:
                arg(state)
            return 0

        return side_effects

    def _lock_call(self, node: ast.Call) -> Callable:
        lock = _lock_name(node)
        acquire = node.name in ("omp_set_lock", "omp_set_nest_lock")

        def lock_call(state):
            if state is not None and lock is not None:
                if acquire:
                    state.hold(state.locks + (lock,), state.critical)
                else:
                    state.hold(tuple(held for held in state.locks if held != lock), state.critical)
            return 0

        return lock_call

    def _math_call(self, node: ast.Call) -> Callable:
        arg = self.expr(node.args[0])
        name = node.name
        what = f"operand of {name}"

        def math_call(state):
            value = _check_scalar(arg(state), what)
            if name != "sqrt":
                return abs(value)
            try:
                return value ** 0.5
            except OverflowError as exc:
                raise InterpreterError(f"bad {what}: {exc}") from None

        return math_call

    def _user_call(self, node: ast.Call) -> Callable:
        name = node.name
        fn = self.unit.function(name)
        functions, memory = self.functions, self.memory
        if name not in functions:
            functions[name] = None  # placeholder while a recursive body lowers
            functions[name] = self.stmt(fn.body)
        params = [(param.name, self.expr(arg)) for param, arg in zip(fn.params, node.args)]

        def user_call(state):
            self.tick()
            if self.call_depth >= MAX_CALL_DEPTH:
                raise InterpreterError(f"call depth exceeds {MAX_CALL_DEPTH}")
            self.call_depth += 1
            try:
                saved_memory_keys = set(memory)
                # Arguments are passed by value into temporary globals (the
                # corpus uses helper functions only for scalar work).
                for param, arg in params:
                    memory[param] = arg(state)
                try:
                    functions[name](state)
                    result = 0
                except _ReturnSignal as signal:
                    result = signal.value if signal.value is not None else 0
                for key in set(memory) - saved_memory_keys:
                    del memory[key]
                return result
            finally:
                self.call_depth -= 1

        return user_call

    # -- assignment targets -----------------------------------------------------------

    def store(self, target: ast.Expr) -> Callable:
        """Lower an assignment target to ``f(state, value)``; targets do not tick."""
        if isinstance(target, ast.Identifier):
            return self._store_name(target)
        if isinstance(target, ast.ArraySubscript):
            return self._store_subscript(target)
        if isinstance(target, ast.Deref):
            message = "pointer stores are not supported"
        else:
            message = f"unsupported assignment target {type(target).__name__}"

        def unsupported(state, value):
            raise InterpreterError(message)

        return unsupported

    def _store_name(self, target: ast.Identifier) -> Callable:
        name = target.name
        line, col = target.loc.line, target.loc.col
        memory, emit = self.memory, self.emit

        def store_name(state, value):
            if state is None:
                memory[name] = value
                return
            privates = state.privates
            if name in privates:
                privates[name] = value
                return
            memory[name] = value
            emit(state, name, name, name, line, col, True)

        return store_name

    def _store_subscript(self, target: ast.ArraySubscript) -> Callable:
        root, what, indices = self._indices(target)
        text = render_expr(target)
        line, col = target.loc.line, target.loc.col
        container, emit = self.container, self.emit

        def store_subscript(state, value):
            values = _index_values(indices, state, what)
            dest, shared = container(root, state)
            for index in values[:-1]:
                dest = _element(dest, index, root)
            _store_element(dest, values[-1], value, root)
            if shared:
                emit(state, _address(root, values), root, text, line, col, True)

        return store_subscript

    # -- statements -------------------------------------------------------------------

    def stmt(self, node: Optional[ast.Stmt]) -> Callable:
        """Lower a statement to ``f(state) -> None``."""
        lowered = self.lowered.get(id(node))
        if lowered is None:
            lowered = self.lowered[id(node)] = self._stmt(node)
        return lowered

    def _stmt(self, node: Optional[ast.Stmt]) -> Callable:
        lower = self._STATEMENTS.get(type(node))
        if lower is None:
            return self._raises(f"unsupported statement {type(node).__name__}")
        return self._ticked(lower(self, node))

    def _compound(self, node: ast.CompoundStmt) -> Callable:
        body = [self.stmt(child) for child in node.body]
        if len(body) == 1:
            return body[0]

        def compound(state):
            for child in body:
                child(state)

        return compound

    def _expr_stmt(self, node: ast.ExprStmt) -> Callable:
        return self.expr(node.expr)

    def declaration(self, decl: ast.Declaration) -> Callable:
        """Lower a declaration to ``f(state)``; global declarations do not tick."""
        memory = self.memory
        declarators = []
        for declarator in decl.declarators:
            dims = [None if dim is None else self.expr(dim) for dim in declarator.array_dims]
            init = declarator.init
            init_list = None
            if init is not None and dims and isinstance(init, ast.Call) and init.name == "__init_list__":
                init_list = [self.expr(element) for element in init.args]
            init_of = self.expr(init) if init is not None and not dims else None
            declarators.append((declarator.name, dims, init_of, init_list))
        default = 0.0 if decl.type_name in ("float", "double") else 0

        def declare(state):
            for name, dims, init_of, init_list in declarators:
                if dims:
                    sizes = []
                    for dim_of in dims:
                        size = 0 if dim_of is None else _to_int(dim_of(state), "array dimension")
                        if size < 0:
                            raise InterpreterError(f"bad array dimension: negative size {size}")
                        sizes.append(size)
                    value = _new_array(sizes, default)
                    if init_list is not None:
                        for idx, element in enumerate(init_list[: sizes[0]]):
                            value[idx] = element(state)
                elif init_of is not None:
                    value = init_of(state)
                else:
                    value = default
                if state is not None:
                    # Declarations inside a parallel construct are block
                    # locals, private to the executing thread/task.
                    state.privates[name] = value
                else:
                    memory[name] = value

        return declare

    def _for(self, node: ast.ForStmt) -> Callable:
        init = self.stmt(node.init) if node.init is not None else None
        cond = self.expr(node.cond) if node.cond is not None else None
        step = self.expr(node.step) if node.step is not None else None
        body = self.stmt(node.body)
        max_iterations = self.max_loop_iterations

        def for_loop(state):
            if init is not None:
                init(state)
            iterations = 0
            while cond is None or cond(state):
                iterations += 1
                if iterations > max_iterations:
                    raise InterpreterError("for loop iteration limit exceeded")
                try:
                    body(state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if step is not None:
                    step(state)

        return for_loop

    def _while(self, node: ast.WhileStmt) -> Callable:
        cond, body = self.expr(node.cond), self.stmt(node.body)
        max_iterations = self.max_loop_iterations

        def while_loop(state):
            iterations = 0
            while cond(state):
                iterations += 1
                if iterations > max_iterations:
                    raise InterpreterError("while loop iteration limit exceeded")
                try:
                    body(state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue

        return while_loop

    def _if(self, node: ast.IfStmt) -> Callable:
        cond, then = self.expr(node.cond), self.stmt(node.then)
        other = self.stmt(node.other) if node.other is not None else None

        def if_stmt(state):
            if cond(state):
                then(state)
            elif other is not None:
                other(state)

        return if_stmt

    def _return(self, node: ast.ReturnStmt) -> Callable:
        value_of = self.expr(node.value) if node.value is not None else None

        def return_stmt(state):
            raise _ReturnSignal(value_of(state) if value_of is not None else None)

        return return_stmt

    def _break(self, node: ast.BreakStmt) -> Callable:
        return _signal(_BreakSignal)

    def _continue(self, node: ast.ContinueStmt) -> Callable:
        return _signal(_ContinueSignal)

    def _null(self, node: ast.NullStmt) -> Callable:
        return _nothing

    # -- OpenMP -----------------------------------------------------------------------

    def _omp(self, node: ast.OmpStmt) -> Callable:
        pragma = node.pragma
        inner = self._construct(node)
        if pragma.has_directive("parallel"):
            outer = self._region(node)
        else:
            # Orphaned worksharing/simd constructs outside a parallel region
            # execute sequentially on the initial thread.
            outer = self.stmt(node.body) if node.body is not None else _nothing

        def omp(state):
            if state is None:
                outer(None)
            else:
                inner(state)

        return omp

    def _team_size(self, pragma: ast.OmpPragma) -> int:
        clause = pragma.clause("num_threads")
        if clause and clause.arguments:
            try:
                return max(1, int(clause.arguments[0]))
            except ValueError:
                return self.num_threads
        return self.num_threads

    def _data_clauses(self, pragma: ast.OmpPragma) -> Callable:
        """Lower the data-sharing clauses to ``f(state) -> post``.

        ``post`` maps var -> (kind, op) for variables needing post-region
        handling (lastprivate write-back, reduction merge).
        """
        private = pragma.clause_vars("private")
        lastprivate = pragma.clause_vars("lastprivate")
        copied = pragma.clause_vars("firstprivate") + lastprivate + pragma.clause_vars("linear")
        reductions = [
            (name, clause.reduction_op or "+")
            for clause in pragma.clauses if clause.name == "reduction"
            for name in clause.arguments
        ]
        post = {name: ("lastprivate", "") for name in lastprivate}
        post.update((name, ("reduction", op)) for name, op in reductions)
        memory = self.memory

        def apply(state):
            privates = state.privates
            for name in private:
                privates[name] = 0
            for name in copied:
                privates[name] = memory.get(name, 0)
            for name, op in reductions:
                privates[name] = _REDUCTION_INIT.get(op, 0)
            return post

        return apply

    def merge_post_region(self, post: Dict[str, Tuple[str, str]], states: List[_Thread]) -> None:
        memory = self.memory
        for name, (kind, op) in post.items():
            if kind == "lastprivate":
                memory[name] = states[-1].privates.get(name, memory.get(name, 0))
                continue
            total = memory.get(name, 0)
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
            memory[name] = total

    def _region(self, node: ast.OmpStmt) -> Callable:
        """A ``parallel`` construct met outside any region: run it on a new team."""
        pragma = node.pragma
        team = self._team_size(pragma)
        data_clauses = self._data_clauses(pragma)
        # Combined parallel-for/sections constructs: the region body *is* the
        # worksharing construct.
        if pragma.has_directive("for") or pragma.has_directive("simd"):
            body = self._worksharing_for(node.body, pragma)
        elif pragma.has_directive("sections"):
            body = self._sections(node.body)
        else:
            body = self.stmt(node.body)
        trace = self.trace

        def region(_):
            self.region_counter += 1
            trace.num_threads = max(trace.num_threads, team)
            states: List[_Thread] = []
            post: Dict[str, Tuple[str, str]] = {}
            for tid in range(team):
                state = _Thread(tid, team, self.region_counter)
                post = data_clauses(state)
                body(state)
                states.append(state)
            self.merge_post_region(post, states)

        return region

    def _construct(self, node: ast.OmpStmt) -> Callable:
        """An OpenMP construct executed by a thread inside a parallel region."""
        pragma = node.pragma
        has = pragma.has_directive
        nowait = pragma.clause("nowait") is not None
        if has("barrier"):

            def barrier(state):
                state.epoch += 1

            return barrier
        if has("taskwait"):

            def taskwait(state):
                state.task_seq += 1

            return taskwait
        if has("for") or has("taskloop") or (has("simd") and node.body is not None and not has("task")):
            data_clauses = self._data_clauses(pragma)
            loop = self._worksharing_for(node.body, pragma)

            def worksharing(state):
                post = data_clauses(state)
                loop(state)
                self.merge_post_region(post, [state])
                if not nowait:
                    state.epoch += 1

            return worksharing
        if has("sections"):
            sections = self._sections(node.body)

            def sections_construct(state):
                sections(state)
                if not nowait:
                    state.epoch += 1

            return sections_construct
        if has("single") or has("master"):
            body = self.stmt(node.body)
            barrier_after = has("single") and not nowait

            def single(state):
                if state.thread_id == 0:
                    body(state)
                if barrier_after:
                    state.epoch += 1

            return single
        if has("critical"):
            name_clause = pragma.clause("name")
            name = name_clause.arguments[0] if name_clause else "__critical__"
            body = self.stmt(node.body)

            def critical(state):
                state.hold(state.locks, state.critical + (name,))
                try:
                    body(state)
                finally:
                    state.hold(state.locks, state.critical[:-1])

            return critical
        if has("atomic"):
            body = self.stmt(node.body)

            def atomic(state):
                state.atomic_depth += 1
                try:
                    body(state)
                finally:
                    state.atomic_depth -= 1

            return atomic
        if has("ordered"):
            body = self.stmt(node.body)

            def ordered(state):
                state.ordered_depth += 1
                try:
                    body(state)
                finally:
                    state.ordered_depth -= 1

            return ordered
        if has("task"):
            return self._task(node)
        if has("parallel") and (has("for") or has("simd")):
            # Nested region: run the body on the current thread only.
            return self._worksharing_for(node.body, pragma)
        return self.stmt(node.body) if node.body is not None else _nothing

    # -- worksharing ------------------------------------------------------------------

    def _worksharing_for(self, body: Optional[ast.Stmt], pragma: ast.OmpPragma) -> Callable:
        loop = body
        while isinstance(loop, ast.CompoundStmt) and len(loop.body) == 1:
            loop = loop.body[0]
        if not isinstance(loop, ast.ForStmt):
            # A simd-only construct may wrap a non-canonical body; execute it.
            return self.stmt(body)
        iterations_of = self._iteration_space(loop)
        var = loop.loop_variable()
        loop_body = self.stmt(loop.body)
        schedule_clause = pragma.clause("schedule")
        kind = self.schedule
        if schedule_clause and schedule_clause.arguments:
            requested = schedule_clause.arguments[0]
            kind = "roundrobin" if requested in ("dynamic", "guided") else "static"

        def worksharing_for(state):
            iterations = iterations_of(state)
            team = state.team_size
            if kind == "roundrobin":
                mine = iterations[state.thread_id::team]
            else:  # static: contiguous chunks
                chunk = (len(iterations) + team - 1) // team
                start = state.thread_id * chunk
                mine = iterations[start : start + chunk]
            # the loop variable is implicitly private; a task in the body
            # replaces ``state.privates`` when it ends
            state.privates.setdefault(var, 0)
            for value in mine:
                state.privates[var] = value
                try:
                    loop_body(state)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            if iterations:
                state.privates[var] = iterations[-1] + 1

        return worksharing_for

    def _iteration_space(self, loop: ast.ForStmt) -> Callable:
        """Lower a canonical loop header to ``f(state) -> range`` of its iterations."""
        if loop.loop_variable() is None:
            return _failing("worksharing loop has no canonical induction variable")
        if isinstance(loop.init, ast.Declaration):
            start_of = self.expr(loop.init.declarators[0].init)
        elif isinstance(loop.init, ast.ExprStmt) and isinstance(loop.init.expr, ast.Assignment):
            start_of = self.expr(loop.init.expr.value)
        else:
            return _failing("unsupported worksharing loop initialisation")
        cond = loop.cond
        bound_of = self.expr(cond.right) if isinstance(cond, ast.BinaryOp) else None
        op = cond.op if bound_of is not None else None
        step_expr = loop.step
        step, delta_of, negate = 1, None, False
        if isinstance(step_expr, ast.IncDec):
            step = 1 if step_expr.op == "++" else -1
        elif isinstance(step_expr, ast.Assignment) and step_expr.is_compound:
            delta_of = self.expr(step_expr.value)
            negate = step_expr.op != "+="
        max_iterations = self.max_loop_iterations

        def iteration_space(state):
            start = _to_int(start_of(state), "worksharing loop bound")
            if bound_of is None:
                raise InterpreterError("unsupported worksharing loop condition")
            bound = _to_int(bound_of(state), "worksharing loop bound")
            by = step
            if delta_of is not None:
                delta = _to_int(delta_of(state), "worksharing loop step")
                by = -delta if negate else delta
            return _iterations(start, bound, op, by, max_iterations)

        return iteration_space

    def _sections(self, body: Optional[ast.Stmt]) -> Callable:
        inner = body
        while isinstance(inner, ast.CompoundStmt) and len(inner.body) == 1:
            inner = inner.body[0]
        if not isinstance(inner, ast.CompoundStmt):
            return self.stmt(body)
        parts = []  # (section index or None for every thread, lowered statement)
        section_index = 0
        for child in inner.body:
            if isinstance(child, ast.OmpStmt) and child.pragma.has_directive("section"):
                if child.body is not None:
                    parts.append((section_index, self.stmt(child.body)))
                section_index += 1
            else:
                # statements outside explicit sections run on every thread
                parts.append((None, self.stmt(child)))

        def sections(state):
            for index, part in parts:
                if index is None or index % state.team_size == state.thread_id:
                    part(state)

        return sections

    # -- tasks ------------------------------------------------------------------------

    def _task(self, node: ast.OmpStmt) -> Callable:
        pragma = node.pragma
        depend_in: List[str] = []
        depend_out: List[str] = []
        for clause in pragma.clauses:
            if clause.name != "depend" or not clause.arguments:
                continue
            mode, names = clause.arguments[0], clause.arguments[1:]
            if mode in ("in", "inout"):
                depend_in.extend(names)
            if mode in ("out", "inout"):
                depend_out.extend(names)
        firstprivate = pragma.clause_vars("firstprivate")
        private = pragma.clause_vars("private")
        body = self.stmt(node.body) if node.body is not None else _nothing
        last_out, container = self.depend_last_out, self.container

        def task_construct(state):
            self.task_counter += 1
            ordered_after = {last_out[name] for name in depend_in if name in last_out}
            task = TaskInfo(
                task_id=self.task_counter,
                creator_thread=state.thread_id,
                creation_step=state.step,
                seq=state.task_seq,
                ordered_after=frozenset(ordered_after),
            )
            for name in depend_out:
                last_out[name] = task.task_id
            saved_task = state.current_task
            saved_privates = dict(state.privates)
            for name in firstprivate:
                state.privates[name] = container(name, state)[0]
            for name in private:
                state.privates[name] = 0
            state.current_task = task
            try:
                body(state)
            finally:
                state.current_task = saved_task
                state.privates = saved_privates

        return task_construct

    _EXPRESSIONS = {
        ast.IntLiteral: _literal,
        ast.FloatLiteral: _literal,
        ast.StringLiteral: _literal,
        ast.Identifier: _identifier,
        ast.ArraySubscript: _subscript,
        ast.BinaryOp: _binary,
        ast.UnaryOp: _unary,
        ast.Assignment: _assignment,
        ast.IncDec: _incdec,
        ast.Call: _call,
        ast.AddressOf: _address_of,
        ast.Deref: _deref,
        ast.ConditionalExpr: _conditional,
    }
    _STATEMENTS = {
        ast.CompoundStmt: _compound,
        ast.Declaration: declaration,
        ast.ExprStmt: _expr_stmt,
        ast.ForStmt: _for,
        ast.WhileStmt: _while,
        ast.IfStmt: _if,
        ast.ReturnStmt: _return,
        ast.BreakStmt: _break,
        ast.ContinueStmt: _continue,
        ast.NullStmt: _null,
        ast.OmpStmt: _omp,
    }


# -- lowering helpers --------------------------------------------------------------


def _nothing(state) -> None:
    return None


def _signal(signal_cls) -> Callable:
    def raise_signal(state):
        raise signal_cls()

    return raise_signal


def _failing(message: str) -> Callable:
    def fail(state):
        raise InterpreterError(message)

    return fail


def _returns(value) -> Callable:
    return lambda program, node: lambda state: value


def _thread_num(program, node) -> Callable:
    return lambda state: state.thread_id if state is not None else 0


def _num_threads(program, node) -> Callable:
    return lambda state: state.team_size if state is not None else 1


def _wtime(program, node) -> Callable:
    return lambda state: float(program.steps)


#: Library calls with a fixed meaning: ``name -> f(program, node)`` lowering
#: the call (without its tick).
_BUILTINS: Dict[str, Callable] = {
    "omp_init_lock": _returns(0),
    "omp_destroy_lock": _returns(0),
    "omp_init_nest_lock": _returns(0),
    "omp_destroy_nest_lock": _returns(0),
    "omp_set_lock": _Program._lock_call,
    "omp_set_nest_lock": _Program._lock_call,
    "omp_unset_lock": _Program._lock_call,
    "omp_unset_nest_lock": _Program._lock_call,
    "omp_get_thread_num": _thread_num,
    "omp_get_num_threads": _num_threads,
    "omp_get_wtime": _wtime,
    "sizeof": _returns(8),
    "fabs": _Program._math_call,
    "abs": _Program._math_call,
    "sqrt": _Program._math_call,
}


def _lock_name(node: ast.Call) -> Optional[str]:
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.AddressOf) and isinstance(arg.operand, ast.Identifier):
        return arg.operand.name
    if isinstance(arg, ast.Identifier):
        return arg.name
    return None


def _index_values(indices: List[Callable], state, what: str) -> List[int]:
    values = []
    for index_of in indices:
        index = index_of(state)
        values.append(index if type(index) is int else _to_int(index, what))
    return values


def _element(array, index: int, root: str):
    """``array[index]`` for C: a negative index is out of range, not from the end."""
    if index < 0:
        raise InterpreterError(f"bad subscript on {root}: negative index {index}")
    try:
        return array[index]
    except (IndexError, TypeError) as exc:
        raise InterpreterError(f"bad subscript on {root}: {exc}") from exc


def _store_element(array, index: int, value, root: str) -> None:
    if index < 0:
        raise InterpreterError(f"bad subscript on {root}: negative index {index}")
    try:
        array[index] = value
    except (IndexError, TypeError) as exc:
        raise InterpreterError(f"bad subscript on {root}: {exc}") from exc


def _address(root: str, values: List[int]) -> str:
    return f"{root}[{','.join(map(str, values))}]"


def _new_array(sizes: List[int], default) -> list:
    # A zero dimension still allocates one list per outer slot, so it counts as one.
    elements = math.prod(max(size, 1) for size in sizes)
    if elements > MAX_ARRAY_ELEMENTS:
        raise InterpreterError(
            f"bad array dimension: {elements} elements exceed the limit of {MAX_ARRAY_ELEMENTS}"
        )
    return _alloc_array(sizes, default)


def _alloc_array(dims: List[int], default):
    head, *rest = dims
    if not rest:
        return [default] * head
    return [_alloc_array(rest, default) for _ in range(head)]


def _iterations(start: int, bound: int, op: str, step: int, max_iterations: int) -> range:
    """The values ``for (v = start; v op bound; v += step)`` takes, as a range.

    The loop fails exactly when a step-by-step walk would: at its
    ``max_iterations + 1``-th condition check, or at the first check for an
    operator other than ``<``, ``<=``, ``>``, ``>=``.
    """
    if max_iterations < 1:
        raise InterpreterError("worksharing loop iteration limit exceeded")
    if op not in ("<", "<=", ">", ">="):
        raise InterpreterError(f"unsupported loop condition operator {op}")
    if op == "<=":
        op, bound = "<", bound + 1
    elif op == ">=":
        op, bound = ">", bound - 1
    ascending = op == "<"
    if (start < bound) if ascending else (start > bound):
        if step == 0 or (step > 0) != ascending:
            raise InterpreterError("worksharing loop iteration limit exceeded")
        iterations = range(start, bound, step)
    else:
        iterations = range(0)
    try:
        count = len(iterations)
    except OverflowError:  # longer than sys.maxsize
        count = max_iterations
    if count >= max_iterations:
        raise InterpreterError("worksharing loop iteration limit exceeded")
    return iterations
