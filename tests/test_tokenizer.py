"""Unit + property tests for the page tokenizer."""

from __future__ import annotations

import copy
import pickle

from hypothesis import example, given, strategies as st

from repro.tokens.tokenizer import (
    DEFAULT_ALLOWED_PUNCT,
    is_separator,
    tokenize_html,
    tokenize_text,
)
from repro.tokens.types import TokenType
from repro.webdoc.entities import decode_entities
from repro.webdoc.page import Page


def token_texts(html):
    return [token.text for token in tokenize_html(html)]


class TestHtmlTokenization:
    def test_tags_become_canonical_tokens(self):
        assert token_texts('<a href="x.html">hi</a>') == ["<a>", "hi", "</a>"]

    def test_entities_decoded_before_splitting(self):
        assert token_texts("Barnes &amp; Noble") == ["Barnes", "&", "Noble"]

    def test_paper_example_tokens(self):
        assert token_texts("<b>John Smith</b> (740) 335-5555") == [
            "<b>", "John", "Smith", "</b>", "(740)", "335-5555",
        ]

    def test_comments_and_script_bodies_invisible(self):
        # The script *tags* are markup tokens; the body is not.
        html = "a<!-- x --><script>var y;</script>b"
        assert token_texts(html) == ["a", "<script>", "</script>", "b"]

    def test_indices_sequential(self):
        tokens = tokenize_html("<p>one two</p><p>three</p>")
        assert [token.index for token in tokens] == list(range(len(tokens)))

    def test_char_offsets_point_at_source(self):
        html = "<td>John Smith</td>"
        tokens = tokenize_html(html)
        john = next(t for t in tokens if t.text == "John")
        assert html[john.start : john.start + 4] == "John"


class TestPunctuationSplitting:
    def test_allowed_punct_stays_attached(self):
        assert [t.text for t in tokenize_text("Findlay, OH")] == ["Findlay,", "OH"]
        assert [t.text for t in tokenize_text("(740) 335-5555")] == [
            "(740)", "335-5555",
        ]

    def test_disallowed_punct_split_off(self):
        assert [t.text for t in tokenize_text("Price: $12.95")] == [
            "Price", ":", "$", "12.95",
        ]

    def test_colon_and_semicolon_each_own_token(self):
        assert [t.text for t in tokenize_text("a:b;c")] == ["a", ":", "b", ";", "c"]

    def test_ws_before_tracks_gluing(self):
        tokens = tokenize_text("Price: tag")
        flags = [(t.text, t.ws_before) for t in tokens]
        assert flags == [("Price", True), (":", False), ("tag", True)]

    def test_custom_allowed_punct(self):
        allowed = frozenset(".,()-:'")
        assert [t.text for t in tokenize_text("O'Brien 5:30", allowed)] == [
            "O'Brien", "5:30",
        ]


class TestSeparators:
    def test_html_tags_are_separators(self):
        tokens = tokenize_html("<br>")
        assert is_separator(tokens[0])

    def test_disallowed_punct_is_separator(self):
        tokens = tokenize_text("a | b")
        bar = next(t for t in tokens if t.text == "|")
        assert is_separator(bar)

    def test_allowed_punct_run_is_not_separator(self):
        tokens = tokenize_text("a -- b")
        dashes = next(t for t in tokens if t.text == "--")
        assert not is_separator(dashes)

    def test_words_are_not_separators(self):
        for token in tokenize_text("John Smith, Findlay"):
            assert not is_separator(token)


class TestTypePredicates:
    @given(st.text(max_size=60))
    def test_membership_matches_flag_intersection(self, text):
        for token in tokenize_html(f"<p>{text}</p>"):
            assert token.is_html == bool(token.types & TokenType.HTML)
            assert token.is_punct == bool(token.types & TokenType.PUNCT)


class TestPageCache:
    def test_tokens_cached(self):
        page = Page(url="x", html="<b>hi</b>")
        assert page.tokens() is page.tokens()

    def test_invalidate_cache(self):
        page = Page(url="x", html="<b>hi</b>")
        first = page.tokens()
        page.html = "<b>bye</b>"
        page.invalidate_cache()
        assert [t.text for t in page.tokens()] == ["<b>", "bye", "</b>"]
        assert page.tokens() is not first

    def test_text_tokens_excludes_tags(self):
        page = Page(url="x", html="<b>hi there</b>")
        assert [t.text for t in page.text_tokens()] == ["hi", "there"]

    def test_bound_source_runs_once_on_first_use(self):
        page = Page(url="x", html="<b>hi</b>")
        calls = []

        def source(asked):
            calls.append(asked)
            return tokenize_html(asked.html)

        page.bind_token_source(source)
        assert calls == []
        assert page.tokens() == tokenize_html("<b>hi</b>")
        assert page.text_tokens()[0].text == "hi"
        assert calls == [page]


#: ``tokenize_html("<b>Ann</b> 740!")`` pickled (protocol 5) when
#: ``Token`` still pickled as dataclass state (``NEWOBJ`` + ``BUILD``
#: through the slots dataclass ``__setstate__``) — the format of stage
#: cache entries written before ``Token.__reduce__``.
DATACLASS_STATE_PICKLE = (
    b"\x80\x05\x95\xd1\x00\x00\x00\x00\x00\x00\x00]\x94(\x8c\x16"
    b"repro.tokens.tok"
    b"enizer\x94\x8c\x05Token\x94\x93"
    b"\x94)\x81\x94]\x94(\x8c\x03<b>\x94\x8c\x12r"
    b"epro.tokens.type"
    b"s\x94\x8c\tTokenType\x94\x93\x94"
    b"K\x01\x85\x94R\x94K\x00\x88K\x00ebh\x03)"
    b"\x81\x94]\x94(\x8c\x03Ann\x94h\tK4\x85"
    b"\x94R\x94K\x01\x88K\x03ebh\x03)\x81\x94]"
    b"\x94(\x8c\x04</b>\x94h\x0bK\x02\x88K\x06"
    b"ebh\x03)\x81\x94]\x94(\x8c\x03740\x94"
    b"h\tK\x0c\x85\x94R\x94K\x03\x88K\x0bebh"
    b"\x03)\x81\x94]\x94(\x8c\x01!\x94h\tK\x02\x85"
    b"\x94R\x94K\x04\x89K\x0eebe."
)


class TestTokenPickling:
    def test_round_trip_and_deepcopy_equal(self):
        tokens = tokenize_html("<b>John Smith</b> (740) 335-5555!")
        for copied in (
            pickle.loads(pickle.dumps(tokens, pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy(tokens),
        ):
            assert copied == tokens
            assert [t.types for t in copied] == [t.types for t in tokens]
            assert all(
                a.types is b.types and a.ws_before == b.ws_before
                for a, b in zip(copied, tokens)
            )

    def test_pickles_as_constructor_arguments(self):
        (token,) = tokenize_text("Ann")
        constructor, args = token.__reduce__()
        assert constructor(*args) == token
        assert args == (
            token.text, token.types, token.index, token.ws_before, token.start
        )

    def test_dataclass_state_pickle_still_loads(self):
        # Stage caches already on disk stay warm.
        assert pickle.loads(DATACLASS_STATE_PICKLE) == tokenize_html(
            "<b>Ann</b> 740!"
        )


class TestProperties:
    @given(st.text(max_size=100))
    def test_no_token_contains_whitespace(self, text):
        for token in tokenize_text(text):
            assert not any(ch.isspace() for ch in token.text)

    @given(st.text(max_size=100))
    def test_no_empty_tokens(self, text):
        for token in tokenize_text(text):
            assert token.text

    @given(st.text(max_size=100))
    @example("&gt")
    @example("a&nbsp;b")
    @example("&#62;")
    def test_non_separator_characters_preserved_in_order(self, text):
        # Joining all token texts reproduces the entity-decoded input
        # minus whitespace: the tokenizer decodes before it splits.
        joined = "".join(t.text for t in tokenize_text(text))
        expected = "".join(ch for ch in decode_entities(text) if not ch.isspace())
        assert joined == expected

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60))
    def test_indices_always_sequential(self, text):
        tokens = tokenize_text(text)
        assert [t.index for t in tokens] == list(range(len(tokens)))
