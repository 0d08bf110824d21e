"""Regression tests: the interpreter raises only ``InterpreterError`` on bad programs.

Each program below used to escape ``Interpreter.run_source`` (and so
``InspectorLikeDetector.analyze_source``) with a raw Python exception, read
the wrong element (``a[-1]``), or grow an integer without bound.  Each must
now end in an ``InterpreterError`` with the message given, and the Inspector
must report the run as failed with that message instead of aborting.
"""

import pytest

from repro.dynamic import InspectorLikeDetector, Interpreter, InterpreterError, InterpreterLimits
from repro.dynamic.interpreter import MAX_ARRAY_ELEMENTS, MAX_CALL_DEPTH, MAX_INT_BITS


def _program(body, *, parallel=False, prelude=""):
    if parallel:
        body = "#pragma omp parallel\n  {\n" + body + "\n  }"
    return (
        prelude
        + "int main()\n{\n  int i = 0;\n  int x = 5;\n  int a[4];\n  int m[2][2];\n"
        + body
        + "\n  return 0;\n}\n"
    )


CASES = {
    "negative subscript read": ("x = a[i - 1];", "bad subscript on a: negative index -1"),
    "negative subscript store": ("a[i - 1] = 1;", "bad subscript on a: negative index -1"),
    "negative inner subscript store": ("m[0][i - 2] = 1;", "bad subscript on m: negative index -2"),
    "outer index out of range on store": (
        "i = 2;\n  m[i][0] = 1;",
        "bad subscript on m: list index out of range",
    ),
    "compound modulo by zero": ("x %= 0;", "modulo by zero"),
    "modulo by a fraction": ("x = x % 0.5;", "modulo by zero"),
    "negative shift count": ("x = x << -1;", "bad operand of <<: negative shift count"),
    "negative right shift count": ("x >>= -1;", "bad operand of >>: negative shift count"),
    "array as arithmetic operand": ("x = a + 1;", "bad operand of +: array is not a scalar"),
    "array as comparison operand": ("x = 3 < a;", "bad operand of <: array is not a scalar"),
    "array as equality operand": ("x = a == a;", "bad operand of ==: array is not a scalar"),
    "array repeated by multiplication": ("x = a * 3;", "bad operand of *: array is not a scalar"),
    "array negated": ("x = -a;", "bad operand of -: array is not a scalar"),
    "array incremented": ("a++;", "bad operand of ++: array is not a scalar"),
    "row of a matrix in a compound assignment": (
        "m[0] += 1;",
        "bad operand of +: array is not a scalar",
    ),
    "string as arithmetic operand": ('x = "s" + 1;', "bad operand of +: string is not a scalar"),
    "address as arithmetic operand": ("x = &x - 1;", "bad operand of -: address is not a scalar"),
    "array as subscript": ("x = a[a];", "bad subscript on a: array is not a scalar"),
    "infinite subscript": (
        "x = a[1e308 * 10];",
        "bad subscript on a: cannot convert float infinity to integer",
    ),
    "complement of infinity": (
        "x = ~(1e308 * 10);",
        "bad operand of ~: cannot convert float infinity to integer",
    ),
    "huge integer mixed with a float": (
        "x = 1 << 2000;\n  x = x * x + 0.5;",
        "bad operand of +: int too large to convert to float",
    ),
    "repeated squaring": (
        "x = 3;\n  while (1) x = x * x;",
        f"bad operand of *: integer result exceeds {MAX_INT_BITS} bits",
    ),
    "huge shift": ("x = 1 << 100000;", f"bad operand of <<: integer result exceeds {MAX_INT_BITS} bits"),
    "call of fabs without an argument": ("x = fabs();", "bad call of fabs: missing argument"),
    "fabs of an array": ("x = fabs(a);", "bad operand of fabs: array is not a scalar"),
    "string array dimension": ('int b["s"];', "bad array dimension: string is not a scalar"),
    "negative array dimension": ("int b[-2] = {1, 2, 3};", "bad array dimension: negative size -2"),
    "huge array": (
        "int b[100000][100000];",
        f"bad array dimension: 10000000000 elements exceed the limit of {MAX_ARRAY_ELEMENTS}",
    ),
    "huge array of empty rows": (
        "int b[10000000][0];",
        f"bad array dimension: 10000000 elements exceed the limit of {MAX_ARRAY_ELEMENTS}",
    ),
    "huge array of unsized rows": (
        "int b[10000000][];",
        f"bad array dimension: 10000000 elements exceed the limit of {MAX_ARRAY_ELEMENTS}",
    ),
    "break outside a loop": ("break;", "break outside a loop"),
    "continue outside a loop": ("continue;", "continue outside a loop"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sequential_error_is_typed(name):
    body, message = CASES[name]
    with pytest.raises(InterpreterError) as info:
        Interpreter().run_source(_program(body))
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(CASES))
def test_inspector_reports_the_failure(name):
    body, message = CASES[name]
    result = InspectorLikeDetector().analyze_source(_program(body, parallel=True))
    assert result.failed is True
    assert result.failure_reason == message


def test_worksharing_loop_bound_must_be_scalar():
    body = '#pragma omp parallel for\n  for (i = 0; i < "s"; i++)\n    x = 1;'
    with pytest.raises(InterpreterError, match="^bad worksharing loop bound: string is not a scalar$"):
        Interpreter().run_source(_program(body))


def test_reduction_over_an_array_is_typed():
    body = "#pragma omp parallel for reduction(+: a)\n  for (i = 0; i < 4; i++)\n    x = 1;"
    with pytest.raises(InterpreterError, match=r"^bad operand of reduction \+: array is not a scalar$"):
        Interpreter().run_source(_program(body))


def test_unbounded_recursion_hits_the_call_depth_limit():
    prelude = "int f(int n)\n{\n  return f(n + 1);\n}\n"
    with pytest.raises(InterpreterError, match=f"^call depth exceeds {MAX_CALL_DEPTH}$"):
        Interpreter().run_source(_program("x = f(0);", prelude=prelude))


def test_recursion_within_the_limit_runs():
    prelude = "int f(int n)\n{\n  if (n <= 0)\n    return 0;\n  return n + f(n - 1);\n}\n"
    interp = Interpreter()
    interp.run_source(_program(f"x = f({MAX_CALL_DEPTH - 1});", prelude=prelude))
    assert interp._memory["x"] == sum(range(MAX_CALL_DEPTH))


def test_in_range_subscripts_still_work():
    interp = Interpreter()
    interp.run_source(_program("a[3] = 7;\n  m[1][1] = a[3] + 1;\n  x = m[1][1] % 3;"))
    assert interp._memory["a"] == [0, 0, 0, 7]
    assert interp._memory["m"] == [[0, 0], [0, 8]]
    assert interp._memory["x"] == 2


def test_limits_still_trip_before_typed_errors_are_reached():
    limits = InterpreterLimits(max_steps=20, max_loop_iterations=100)
    with pytest.raises(InterpreterError, match="^execution step limit exceeded$"):
        Interpreter(limits=limits).run_source(_program("while (1) x = x * x;"))
