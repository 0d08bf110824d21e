"""Property-based tests on cross-cutting invariants of the core data structures."""

from hypothesis import given, settings, strategies as st

from repro.analysis.dependence import SubscriptForm, may_overlap
from repro.dataset.tokenizer import CodeTokenizer, count_tokens
from repro.dataset.trim import trim_comments
from repro.eval.metrics import ConfusionCounts, mean_std
from repro.llm.behavior import deterministic_uniform


# -- comment trimming -----------------------------------------------------------


@st.composite
def c_like_source(draw):
    """Random mixtures of code-ish lines, comment lines and blank lines."""
    lines = draw(
        st.lists(
            st.sampled_from(
                [
                    "int x = 1;",
                    "  a[i] = a[i+1] + 1;",
                    "/* block comment */",
                    "// line comment",
                    "",
                    "#pragma omp parallel for",
                    "for (i = 0; i < n; i++)  // trailing",
                ]
            ),
            min_size=1,
            max_size=25,
        )
    )
    return "\n".join(lines) + "\n"


class TestTrimProperties:
    @given(c_like_source())
    @settings(max_examples=60)
    def test_line_map_is_strictly_increasing(self, source):
        result = trim_comments(source)
        mapped = [result.line_map[k] for k in sorted(result.line_map)]
        assert mapped == sorted(mapped)
        assert len(set(mapped)) == len(mapped)

    @given(c_like_source())
    @settings(max_examples=60)
    def test_mapped_lines_preserve_code_prefix(self, source):
        """Every surviving line's code content (up to any comment) is
        preserved verbatim at the same columns."""
        result = trim_comments(source)
        original_lines = source.splitlines()
        trimmed_lines = result.trimmed_code.splitlines()
        for orig_no, trimmed_no in result.line_map.items():
            original = original_lines[orig_no - 1]
            code_part = original.split("//")[0].split("/*")[0].rstrip()
            assert trimmed_lines[trimmed_no - 1].startswith(code_part)

    @given(c_like_source())
    @settings(max_examples=60)
    def test_trimmed_has_no_comment_markers(self, source):
        result = trim_comments(source)
        assert "/*" not in result.trimmed_code
        assert "//" not in result.trimmed_code


# -- tokenizer -------------------------------------------------------------------


class TestTokenizerProperties:
    @given(st.text(alphabet="abcxyz_[]()+-*/;= \n0123456789", max_size=300), st.integers(1, 12))
    @settings(max_examples=60)
    def test_count_equals_tokenize_length(self, text, max_piece_len):
        tok = CodeTokenizer(max_piece_len)
        assert tok.count(text) == len(tok.tokenize(text))

    @given(
        st.one_of(
            st.text(alphabet="abcxyz_0123456789.+/;é \n", max_size=300),
            st.text(max_size=120),
        )
    )
    @settings(max_examples=60)
    def test_count_tokens_equals_default_tokenize_length(self, text):
        assert count_tokens(text) == len(CodeTokenizer().tokenize(text))

    @given(st.text(alphabet="abcxyz_ ;\n", max_size=120))
    @settings(max_examples=60)
    def test_appending_a_token_increases_count(self, text):
        tok = CodeTokenizer()
        assert tok.count(text + " zz9") == tok.count(text) + 1


# -- dependence tests --------------------------------------------------------------


class TestDependenceProperties:
    forms = st.builds(
        SubscriptForm,
        text=st.just("s"),
        variable=st.one_of(st.none(), st.just("i")),
        coeff=st.integers(-3, 3),
        offset=st.integers(-10, 10),
        is_affine=st.booleans(),
    )

    @given(forms, forms, st.booleans())
    @settings(max_examples=100)
    def test_may_overlap_is_symmetric(self, a, b, same_iter):
        assert may_overlap(a, b, same_iteration_ok=same_iter) == may_overlap(
            b, a, same_iteration_ok=same_iter
        )

    @given(forms)
    @settings(max_examples=60)
    def test_non_affine_always_overlaps(self, form):
        other = SubscriptForm(text="x", is_affine=False)
        assert may_overlap(form, other)


# -- metrics ----------------------------------------------------------------------


class TestMetricsProperties:
    counts = st.builds(
        ConfusionCounts,
        tp=st.integers(0, 200),
        fp=st.integers(0, 200),
        tn=st.integers(0, 200),
        fn=st.integers(0, 200),
    )

    @given(counts)
    def test_f1_bounded_by_precision_and_recall(self, c):
        lo, hi = sorted([c.precision, c.recall])
        assert lo - 1e-12 <= c.f1 <= hi + 1e-12 or c.f1 == 0.0

    @given(counts)
    def test_metric_ranges(self, c):
        for value in (c.precision, c.recall, c.f1, c.accuracy):
            assert 0.0 <= value <= 1.0

    @given(counts, counts)
    def test_addition_accumulates_counts(self, a, b):
        total = a + b
        assert total.total == a.total + b.total

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    def test_sd_zero_iff_constant(self, values):
        mean, sd = mean_std(values)
        if len(set(values)) == 1:
            assert sd == 0.0
        assert sd >= 0.0


# -- deterministic pseudo-randomness ----------------------------------------------


class TestDeterministicUniform:
    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=80)
    def test_range_and_stability(self, a, b):
        value = deterministic_uniform(a, b)
        assert 0.0 <= value < 1.0
        assert value == deterministic_uniform(a, b)

    def test_distribution_is_roughly_uniform(self):
        values = [deterministic_uniform("salt", str(i)) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        assert sum(v < 0.25 for v in values) / len(values) > 0.2
