"""Unit + property tests for the eight syntactic token types."""

from __future__ import annotations

import itertools
import string

import pytest
from hypothesis import example, given, strategies as st

from repro.tokens.types import (
    NUM_TOKEN_TYPES,
    TOKEN_TYPE_ORDER,
    TokenType,
    classify_text,
    type_vector,
    union_type_vector,
)
from repro.tokens.tokenizer import (
    DEFAULT_ALLOWED_PUNCT,
    Token,
    is_separator,
    tokenize_html,
)


def reference_classify(text: str) -> TokenType:
    """The per-character rules, written with ``Flag`` operators."""
    if not text:
        return TokenType.NONE
    letters = [char for char in text if char.isalpha()]
    has_digit = any(char.isdigit() for char in text)
    if not letters and not has_digit:
        return TokenType.PUNCT
    types = TokenType.ALNUM
    if has_digit and not letters:
        types |= TokenType.NUMERIC
    if letters:
        types |= TokenType.ALPHA
        if all(char.isupper() for char in letters):
            types |= (
                TokenType.ALLCAPS if len(letters) >= 2 else TokenType.CAPITALIZED
            )
        elif all(char.islower() for char in letters):
            types |= TokenType.LOWERCASE
        elif letters[0].isupper():
            types |= TokenType.CAPITALIZED
    return types


#: Every type set: the 256 subsets of the eight types.
ALL_TYPE_SETS = [TokenType(bits) for bits in range(1 << NUM_TOKEN_TYPES)]

ASCII = [chr(code) for code in range(128)]

#: Non-ASCII characters the per-character path must keep classifying:
#: a cased letter, a titlecase letter, an uncased letter, a lowercase
#: ordinal indicator, an Arabic-Indic digit, a vulgar fraction (numeric
#: but not a digit) and a no-break space.
NON_ASCII = ["é", "ǅ", "中", "ª", "٣", "½", "\u00a0"]


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


class TestFastPaths:
    """Int bit tests and the ASCII shortcut answer as ``Flag`` logic does."""

    def test_every_short_ascii_string_matches_the_reference(self):
        for length in range(3):
            for chars in itertools.product(ASCII, repeat=length):
                text = "".join(chars)
                assert classify_text(text) is reference_classify(text), text

    @given(
        st.text(
            alphabet=st.sampled_from(ASCII)
            | st.sampled_from(string.ascii_letters + string.digits)
            | st.sampled_from(NON_ASCII),
            max_size=12,
        )
    )
    # An uncased letter reads as upper- or lowercase to ``str.isupper``
    # and ``str.islower`` when the rest of the string is.
    @example("A中")
    @example("ab中")
    def test_mixed_text_matches_the_reference(self, text):
        assert classify_text(text) is reference_classify(text)

    def test_token_tests_match_flag_membership(self):
        for types, text in itertools.product(ALL_TYPE_SETS, ("<b>", "|", ",", "a")):
            token = Token(text, types, 0)
            assert token.is_html == (TokenType.HTML in types), types
            assert token.is_punct == (TokenType.PUNCT in types), types
            expected = TokenType.HTML in types or (
                TokenType.PUNCT in types
                and any(char not in DEFAULT_ALLOWED_PUNCT for char in text)
            )
            assert is_separator(token) == expected, (types, text)

    def test_vectors_match_flag_membership(self):
        for types in ALL_TYPE_SETS:
            expected = tuple(int(flag in types) for flag in TOKEN_TYPE_ORDER)
            assert type_vector(types) == expected, types
            assert union_type_vector([Token("x", types, 0)]) == expected, types

    def test_union_of_two_sets_is_their_elementwise_maximum(self):
        for first, second in itertools.product(ALL_TYPE_SETS, repeat=2):
            tokens = [Token("x", first, 0), Token("y", second, 1)]
            assert union_type_vector(tokens) == tuple(
                int(flag in first or flag in second) for flag in TOKEN_TYPE_ORDER
            ), (first, second)
