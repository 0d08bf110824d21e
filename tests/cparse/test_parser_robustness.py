"""Regression tests: the front end raises only typed errors on hostile input.

Literals the parser used to hand to ``int``/``float`` unchecked, and inputs
nested deep enough to exhaust the Python stack, must end in ``ParseError``
on every path that parses: :func:`parse`, the static detector and the
Inspector.
"""

import pytest

from repro.analysis.static_race import StaticRaceDetector
from repro.cparse import ast
from repro.cparse.parser import MAX_NESTING, ParseError, parse
from repro.dynamic.inspector import InspectorLikeDetector

PATHS = {
    "parse": parse,
    "static": StaticRaceDetector().analyze_source,
    "inspector": InspectorLikeDetector().analyze_source,
}


def _program(body):
    return "int main()\n{\n  int x = 0;\n  int a[4];\n" + body + "\n  return 0;\n}\n"


def _initializer(source):
    return parse(source).globals[0].declarators[0].init


# -- literals -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, value", [("010", 8), ("017UL", 15), ("00", 0), ("0", 0), ("10", 10), ("0u", 0)]
)
def test_leading_zero_integer_is_octal(text, value):
    init = _initializer(f"int x = {text};")
    assert isinstance(init, ast.IntLiteral)
    assert (init.value, init.text) == (value, text)


@pytest.mark.parametrize("text", ["08", "09", "0778", "019L"])
def test_octal_literal_with_8_or_9_raises_parse_error(text):
    with pytest.raises(ParseError, match="invalid digit in octal literal") as info:
        parse(f"int x = {text};")
    assert (info.value.token.text, info.value.token.line, info.value.token.col) == (text, 1, 9)


@pytest.mark.parametrize("text", ["1.5u", "1uf", "2e3U"])
def test_unsigned_floating_literal_raises_parse_error(text):
    with pytest.raises(ParseError, match="invalid suffix on floating literal"):
        parse(f"double x = {text};")


@pytest.mark.parametrize("text", ["08", "1.5u"])
def test_bad_literal_raises_parse_error_from_analyze_source(text):
    with pytest.raises(ParseError):
        StaticRaceDetector().analyze_source(_program(f"  x = {text};"))


def test_octal_literal_value_reaches_analyze_source():
    report = StaticRaceDetector().analyze_source(_program("  a[010 - 7] = 010;"))
    assert not report.has_race


# -- nesting --------------------------------------------------------------------

#: One program per way of nesting, as a function of the nesting depth.
SHAPES = {
    "parentheses": lambda n: _program("  x = " + "(" * n + "x" + ")" * n + ";"),
    "prefix_minus": lambda n: _program("  x = " + "- " * n + "x;"),
    "blocks": lambda n: _program("{" * n + "}" * n),
    "assignment_chain": lambda n: _program("  " + "x = " * n + "0;"),
    "sum": lambda n: _program("  x = " + " + ".join(["x"] * n) + ";"),
    "ternary_chain": lambda n: _program("  x = " + "x ? x : " * n + "x;"),
    "subscripts": lambda n: _program("  x = a" + "[0]" * n + ";"),
    "calls": lambda n: _program("  x = " + "f(" * n + "x" + ")" * n + ";"),
    "else_if_chain": lambda n: _program("  if (x) x = 1;" + " else if (x) x = 1;" * n),
    "casts": lambda n: _program("  x = " + "(int) " * n + "x;"),
    "postfix_increments": lambda n: _program("  x" + "++" * n + ";"),
}


def _accepted(source):
    try:
        parse(source)
    except ParseError as exc:
        assert "nesting too deep" in str(exc)
        return False
    return True


def _deepest_accepted(make):
    lo, hi = 1, 4 * MAX_NESTING
    assert _accepted(make(lo)) and not _accepted(make(hi))
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _accepted(make(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _with_frames(frames, fn, *args):
    """Call ``fn`` under ``frames`` extra stack frames."""
    if frames == 0:
        return fn(*args)
    return _with_frames(frames - 1, fn, *args)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ten_thousand_deep_raises_parse_error(shape, path):
    with pytest.raises(ParseError, match="nesting too deep"):
        PATHS[path](SHAPES[shape](10_000))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_deepest_accepted_input_succeeds_on_every_path(shape):
    make = SHAPES[shape]
    depth = _deepest_accepted(make)
    # Each step of every shape opens at most two levels, so the cap (and not
    # some other limit) is what stops it.
    assert depth >= MAX_NESTING // 2 - 4
    for path in PATHS.values():
        # Callers may already be a few hundred frames deep.
        _with_frames(200, path, make(depth))


def test_nesting_error_points_at_the_crossing_token():
    source = _program("  x = " + "- " * (2 * MAX_NESTING) + "x;")
    with pytest.raises(ParseError, match="nesting too deep") as info:
        parse(source)
    tok = info.value.token
    assert tok.text == "-" and tok.line == 5
    # statement, expression statement, assignment right-hand side: three
    # levels are open before the first prefix minus.
    assert tok.col == len("  x = ") + 1 + 2 * (MAX_NESTING - 3)
