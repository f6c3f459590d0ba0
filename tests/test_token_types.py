"""Unit + property tests for the eight syntactic token types."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.tokens.types import (
    NUM_TOKEN_TYPES,
    TOKEN_TYPE_ORDER,
    TokenType,
    classify_text,
    type_vector,
    union_type_vector,
)
from repro.tokens.tokenizer import tokenize_html


class TestClassification:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Smith", TokenType.ALNUM | TokenType.ALPHA | TokenType.CAPITALIZED),
            ("smith", TokenType.ALNUM | TokenType.ALPHA | TokenType.LOWERCASE),
            ("SMITH", TokenType.ALNUM | TokenType.ALPHA | TokenType.ALLCAPS),
            ("740", TokenType.ALNUM | TokenType.NUMERIC),
            ("(740)", TokenType.ALNUM | TokenType.NUMERIC),
            ("335-5555", TokenType.ALNUM | TokenType.NUMERIC),
            ("(", TokenType.PUNCT),
            ("...", TokenType.PUNCT),
            # Single capital letter: capitalized, not allcaps.
            ("W.", TokenType.ALNUM | TokenType.ALPHA | TokenType.CAPITALIZED),
            # Mixed alnum with letters is alpha but numeric needs no letters.
            ("K755-983", TokenType.ALNUM | TokenType.ALPHA | TokenType.CAPITALIZED),
            # Mixed case starting lowercase: alpha only.
            ("iPod", TokenType.ALNUM | TokenType.ALPHA),
            # Mixed case starting uppercase: capitalized.
            ("McDonald", TokenType.ALNUM | TokenType.ALPHA | TokenType.CAPITALIZED),
            ("", TokenType.NONE),
        ],
    )
    def test_examples(self, text, expected):
        assert classify_text(text) == expected

    def test_trailing_punct_does_not_change_class(self):
        assert classify_text("Findlay,") == classify_text("Findlay")

    def test_unicode_letters(self):
        assert TokenType.CAPITALIZED in classify_text("Müller")
        assert TokenType.ALLCAPS in classify_text("MÜLLER")

    @given(st.text(max_size=20))
    def test_returns_the_canonical_member(self, text):
        types = classify_text(text)
        assert type(types) is TokenType
        assert types is TokenType(types.value)


class TestTypeVector:
    def test_length_and_order(self):
        assert NUM_TOKEN_TYPES == 8
        assert len(TOKEN_TYPE_ORDER) == 8
        vector = type_vector(TokenType.HTML)
        assert vector == (1, 0, 0, 0, 0, 0, 0, 0)

    def test_multiple_flags(self):
        vector = type_vector(classify_text("Smith"))
        # ALNUM, ALPHA, CAPITALIZED set; HTML, PUNCT, NUMERIC, others not.
        assert vector == (0, 0, 1, 0, 1, 1, 0, 0)

    def test_none_is_all_zero(self):
        assert type_vector(TokenType.NONE) == (0,) * 8

    def test_union_is_elementwise_max(self):
        tokens = tokenize_html("<b>Smith</b> 740 ,")
        expected = tuple(
            max(column)
            for column in zip(*(type_vector(t.types) for t in tokens))
        )
        assert union_type_vector(tokens) == expected
        assert union_type_vector([]) == (0,) * 8


class TestProperties:
    @given(st.text(min_size=1, max_size=20))
    def test_every_nonempty_token_has_a_basic_type(self, text):
        types = classify_text(text)
        basic = types & (TokenType.PUNCT | TokenType.ALNUM)
        assert basic != TokenType.NONE

    @given(st.text(min_size=1, max_size=20))
    def test_punct_and_alnum_exclusive(self, text):
        types = classify_text(text)
        assert not (TokenType.PUNCT in types and TokenType.ALNUM in types)

    @given(st.text(min_size=1, max_size=20))
    def test_casing_subtypes_imply_alpha(self, text):
        types = classify_text(text)
        for casing in (TokenType.CAPITALIZED, TokenType.LOWERCASE, TokenType.ALLCAPS):
            if casing in types:
                assert TokenType.ALPHA in types

    @given(st.text(min_size=1, max_size=20))
    def test_at_most_one_casing_subtype(self, text):
        types = classify_text(text)
        count = sum(
            1
            for casing in (
                TokenType.CAPITALIZED,
                TokenType.LOWERCASE,
                TokenType.ALLCAPS,
            )
            if casing in types
        )
        assert count <= 1

    @given(st.text(min_size=1, max_size=20))
    def test_numeric_implies_alnum_and_no_alpha(self, text):
        types = classify_text(text)
        if TokenType.NUMERIC in types:
            assert TokenType.ALNUM in types
            assert TokenType.ALPHA not in types
