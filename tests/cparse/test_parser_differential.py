"""Differential tests: the precedence-climbing parser against the per-level
reference parser (``reference_parser.py``).

For any token list both must agree exactly: the same AST ``repr``, or the
same ``ParseError``/``PragmaError`` type and message.  Any other exception
fails the test, so these properties also check that the front end raises
only its typed errors.  Inputs are token-level mutations of the corpus and
generated expressions that mix every operator the grammar knows.
"""

from hypothesis import assume, given, strategies as st

from reference_parser import ReferenceParser
from test_lexer_golden import _corpus_sources, _template_sources

from repro.cparse.lexer import tokenize
from repro.cparse.parser import ParseError, Parser
from repro.cparse.pragma import PragmaError

_PROGRAMS = [tokenize(src) for src in _corpus_sources() + _template_sources()]


def _outcome(parser_cls, tokens):
    try:
        return repr(parser_cls(tokens).parse_translation_unit())
    except (ParseError, PragmaError) as exc:
        return (type(exc).__name__, str(exc))


def _assert_same(tokens):
    got = _outcome(Parser, tokens)
    # The reference parser has no nesting cap; test_parser_robustness.py owns it.
    assume(not (isinstance(got, tuple) and "nesting too deep" in got[1]))
    assert got == _outcome(ReferenceParser, tokens)


# -- token-level mutations of corpus programs -----------------------------------

_MUTATION = st.tuples(
    st.sampled_from(("delete", "duplicate", "swap")),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def _mutate(tokens, mutations):
    body, eof = list(tokens[:-1]), tokens[-1]
    for op, i, j in mutations:
        if not body:
            break
        i %= len(body)
        if op == "delete":
            del body[i]
        elif op == "duplicate":
            body.insert(i, body[i])
        else:
            j %= len(body)
            body[i], body[j] = body[j], body[i]
    return body + [eof]


@given(st.sampled_from(_PROGRAMS), st.lists(_MUTATION, min_size=1, max_size=4))
def test_mutated_programs_match_reference(tokens, mutations):
    _assert_same(_mutate(tokens, mutations))


# -- generated expressions ------------------------------------------------------

_BINARY_OPS = "|| && | ^ & == != < > <= >= << >> + - * / %".split()
_ASSIGN_OPS = "= += -= *= /= %= &= |= ^= <<= >>=".split()
_PREFIX_OPS = ["++", "--", "&", "*", "-", "+", "!", "~"]
_CAST_TYPES = ["int", "double", "unsigned long", "size_t", "int *", "char **", "struct s"]

_LEAVES = st.sampled_from(
    ["x", "y", "i", "0", "7", "42u", "010", "08", "3.5", "2e3f", "1.5u", "'c'", '"s"']
)


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(_BINARY_OPS), children).map(" ".join),
        st.tuples(children, st.sampled_from(_ASSIGN_OPS), children).map(" ".join),
        st.tuples(children, children, children).map(lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        st.tuples(st.sampled_from(_PREFIX_OPS), children).map(" ".join),
        st.tuples(children, st.sampled_from(["++", "--"])).map("".join),
        children.map(lambda c: f"({c})"),
        st.tuples(st.sampled_from(_CAST_TYPES), children).map(lambda t: f"({t[0]}) {t[1]}"),
        st.lists(children, max_size=3).map(lambda args: f"f({', '.join(args)})"),
        st.tuples(children, children).map(lambda t: f"{t[0]}[{t[1]}]"),
        st.tuples(children, st.sampled_from([".", "->"])).map(lambda t: f"{t[0]}{t[1]}m"),
        st.sampled_from(_CAST_TYPES).map(lambda t: f"sizeof({t})"),
        children.map(lambda c: f"sizeof({c})"),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=16)

_PROGRAM_SHAPES = [
    "int main()\n{{\n  {0};\n  return {1};\n}}\n",
    "int g = {0};\nint h[2] = {{ {1}, {0} }};\n",
    "int main()\n{{\n  int i;\n  for (i = {0}; {1}; i++, {0})\n    if ({1}) x = {0}; else {1};\n}}\n",
]


@given(_EXPRESSIONS, _EXPRESSIONS, st.sampled_from(_PROGRAM_SHAPES))
def test_generated_expressions_match_reference(first, second, shape):
    _assert_same(tokenize(shape.format(first, second)))
