"""Typed-error fuzz: the Inspector raises only typed errors on mutated programs.

Corpus programs (and their augmented variants) go through the parser
differential's token mutations (delete, duplicate, swap), are written back
to source, and run under small :class:`InterpreterLimits`.
``Interpreter.run_source`` may raise only the front end's ``LexError``,
``ParseError`` or ``PragmaError`` or an ``InterpreterError``;
``InspectorLikeDetector.analyze_source`` turns the ``InterpreterError`` into
a failed run.  Any other exception fails the test.  A run that returns has
stayed within its step budget.
"""

from hypothesis import given, settings, strategies as st

from test_parser_differential import _MUTATION, _PROGRAMS, _mutate

from repro.cparse.lexer import LexError, TokenKind, tokenize
from repro.cparse.parser import ParseError
from repro.cparse.pragma import PragmaError
from repro.dynamic import InspectorLikeDetector, Interpreter, InterpreterError, InterpreterLimits

_FRONT_END_ERRORS = (LexError, ParseError, PragmaError)
_LIMITS = InterpreterLimits(max_steps=20_000, max_loop_iterations=500)


def _render(tokens):
    """Source text for a token list, one token per line."""
    lines = []
    for token in tokens:
        if token.kind is TokenKind.PRAGMA:
            lines.append("#pragma " + token.text)
        elif token.kind is TokenKind.INCLUDE:
            lines.append("#" + token.text)
        elif token.kind is not TokenKind.EOF:
            lines.append(token.text)
    return "\n".join(lines) + "\n"


def test_render_round_trips_the_corpus():
    for tokens in _PROGRAMS:
        assert [t.text for t in tokenize(_render(tokens))] == [t.text for t in tokens]


@settings(deadline=None)
@given(
    st.sampled_from(_PROGRAMS),
    st.lists(_MUTATION, min_size=1, max_size=4),
    st.sampled_from((2, 4)),
    st.sampled_from(("static", "roundrobin")),
)
def test_mutated_programs_raise_only_typed_errors(tokens, mutations, team, schedule):
    source = _render(_mutate(tokens, mutations))
    try:
        trace = Interpreter(num_threads=team, schedule=schedule, limits=_LIMITS).run_source(source)
    except _FRONT_END_ERRORS + (InterpreterError,):
        pass
    else:
        assert trace.steps_executed <= _LIMITS.max_steps
    try:
        result = InspectorLikeDetector(limits=_LIMITS).analyze_source(source, num_threads=team)
    except _FRONT_END_ERRORS:
        return
    assert result.runs + result.failed >= 1
