"""Unit, property and golden tests for the page tokenizer.

``tests/data/token_golden.json`` pins a digest of every token (text,
type bits, index, ``ws_before``, start) that :func:`tokenize_html`
produces over the lexer golden's page set: the paper corpus and both
generations of one seeded mixed crawl.  The hypothesis properties hold
the tokenizer to an event-based reference splitter kept in this module.
If an intentional change to tokenizing invalidates the golden, re-record
it with the recipe in the JSON file's ``note`` field and say so in the
change description.
"""

from __future__ import annotations

import copy
import pickle
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.runner.cache import fingerprint
from repro.tokens.tokenizer import (
    DEFAULT_ALLOWED_PUNCT,
    Token,
    is_separator,
    tokenize_html,
    tokenize_text,
)
from repro.tokens.types import TokenType, classify_text
from repro.webdoc.entities import decode_entities
from repro.webdoc.html import EventKind, lex_html
from repro.webdoc.page import Page
from tests.test_html_lexer import (
    HTML_FRAGMENTS,
    assert_golden_covers_corpus_and_both_generations,
    assert_matches_golden,
    rerecord_golden,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "token_golden.json"


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


def reference_tokenize_html(document, allowed_punct=DEFAULT_ALLOWED_PUNCT):
    """The event-based tokenizer: one :func:`lex_html` event at a time,
    each text run split character by character."""
    tokens = []
    for event in lex_html(document):
        if event.kind is EventKind.TAG_OPEN or event.kind is EventKind.TAG_CLOSE:
            tokens.append(
                Token(event.raw_tag(), TokenType.HTML, len(tokens), True, event.start)
            )
        elif event.kind is EventKind.TEXT:
            _reference_text_tokens(
                tokens, decode_entities(event.data), event.start, allowed_punct
            )
    return tokens


def reference_tokenize_text(text, allowed_punct=DEFAULT_ALLOWED_PUNCT):
    tokens = []
    _reference_text_tokens(tokens, decode_entities(text), -1, allowed_punct)
    return tokens


def _reference_text_tokens(tokens, text, base_offset, allowed_punct):
    """Split on whitespace, then split each word on disallowed punctuation."""
    position = 0
    length = len(text)
    while position < length:
        if text[position].isspace():
            position += 1
            continue
        word_start = position
        while position < length and not text[position].isspace():
            position += 1
        _reference_word_tokens(
            tokens,
            text[word_start:position],
            base_offset + word_start if base_offset >= 0 else -1,
            allowed_punct,
        )


def _reference_word_tokens(tokens, word, offset, allowed_punct):
    """Runs of alphanumerics and allowed punctuation stay together; each
    disallowed punctuation character is its own token.  Only the word's
    first piece follows whitespace."""
    first = True
    piece_start = 0

    def emit(piece, piece_offset):
        nonlocal first
        if not piece:
            return
        tokens.append(
            Token(piece, classify_text(piece), len(tokens), first, piece_offset)
        )
        first = False

    for index, char in enumerate(word):
        if not char.isalnum() and not char.isspace() and char not in allowed_punct:
            emit(word[piece_start:index], offset + piece_start if offset >= 0 else -1)
            emit(char, offset + index if offset >= 0 else -1)
            piece_start = index + 1
    emit(word[piece_start:], offset + piece_start if offset >= 0 else -1)


#: The lexer's fragment alphabet plus entities (known, legacy bare,
#: numeric, unknown), ``_``, non-ASCII letters and digits, Unicode
#: spaces and the characters that need escaping in a character class.
TOKEN_FRAGMENTS = HTML_FRAGMENTS + [
    "&amp;", "&gt", "&nbsp;", "&#62;", "&#x41;", "&bogus;", "_",
    "é", "Ω", "٣", "½", "\u00a0", "\u2003", "\u3000",
    "]", "^", "\\", ".", ",", "(", ")", ":", "Ann", "740",
]
token_soup = st.lists(st.sampled_from(TOKEN_FRAGMENTS), max_size=40).map("".join)
#: Allowed sets that hold whitespace, ``_``, class metacharacters, an
#: alphanumeric, and none at all.
allowed_sets = st.sampled_from(
    [
        DEFAULT_ALLOWED_PUNCT,
        frozenset(),
        frozenset(" \t_]^\\-"),
        frozenset("^]-a.\u00a0"),
        frozenset(".,()-:'"),
    ]
)


class TestEventReference:
    """The tokenizer equals the event-based reference splitter."""

    @settings(max_examples=500)
    @given(token_soup, allowed_sets)
    @example("<b>John Smith</b> (740) 335-5555!", DEFAULT_ALLOWED_PUNCT)
    @example("<SCRIPT>x<y</script >a_b\u00a0c", frozenset())
    def test_tokenize_html_matches_reference(self, soup, allowed):
        assert tokenize_html(soup, allowed) == reference_tokenize_html(soup, allowed)

    @settings(max_examples=500)
    @given(st.one_of(token_soup, st.text(max_size=40)), allowed_sets)
    @example(" a^b]c\\d_e ", frozenset("^]\\"))
    def test_tokenize_text_matches_reference(self, text, allowed):
        assert tokenize_text(text, allowed) == reference_tokenize_text(text, allowed)

    def test_piece_classes_match_str_predicates_on_every_code_point(self):
        # The splitter's ``[^\W_]`` is ``str.isalnum`` and its ``\s`` is
        # ``str.isspace``, character for character; ``str.rstrip``, which
        # strips a text run's tail before splitting, drops exactly ``\s``.
        alnum, space = re.compile(r"[^\W_]").match, re.compile(r"\s").match
        for code in range(sys.maxunicode + 1):
            char = chr(code)
            assert bool(alnum(char)) == char.isalnum(), hex(code)
            assert bool(space(char)) == char.isspace(), hex(code)
            assert (char.rstrip() == "") == char.isspace(), hex(code)

    @pytest.mark.parametrize(
        "run",
        ["x" + " " * 200_000, "&nbsp;" * 200_000, "\u3000\n" * 100_000],
        ids=["spaces-after-a-word", "nbsp-entities", "unicode-spaces"],
    )
    def test_long_whitespace_tail_splits_in_linear_time(self, run):
        # A whitespace tail the splitter searched would cost one failed
        # search per tail position, each scanning the rest of the tail:
        # tens of minutes at this length.  Linear splitting takes
        # milliseconds.
        document = f"<p>{run}</p>"
        started = time.perf_counter()
        tokens, texts = tokenize_html(document), tokenize_text(run)
        elapsed = time.perf_counter() - started
        assert tokens == reference_tokenize_html(document)
        assert texts == reference_tokenize_text(run)
        assert elapsed < 5.0


def token_digest(pages) -> str:
    """Digest of every token of every page."""
    return fingerprint(
        "tokenize_html",
        [
            (
                page.url,
                [
                    (t.text, t.types.value, t.index, t.ws_before, t.start)
                    for t in tokenize_html(page.html)
                ],
            )
            for page in pages
        ],
    )


class TestTokenGolden:
    """Token streams are byte-identical to the recorded tokenizer's."""

    def test_tokens_match_golden(self):
        assert_matches_golden(GOLDEN_PATH, token_digest)

    def test_golden_covers_corpus_and_both_generations(self):
        assert_golden_covers_corpus_and_both_generations(GOLDEN_PATH)


if __name__ == "__main__":
    rerecord_golden(GOLDEN_PATH, token_digest)
