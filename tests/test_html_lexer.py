"""Unit, property and golden tests for the HTML lexer.

``tests/data/lexer_golden.json`` pins a digest of every event
(kind, data, offsets, attributes in order, self-closing flag) that
:func:`lex_html` produces over the paper corpus and one seeded mixed
crawl.  Token digests elsewhere do not see attributes, comments,
declarations or raw bodies; this file does.  If an intentional change
to the grammar invalidates it, re-record with the recipe in the JSON
file's ``note`` field and say so in the change description.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import HtmlParseError
from repro.runner.cache import fingerprint
from repro.sitegen.corpus import TABLE4_ORDER, build_site
from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus
from repro.webdoc.html import (
    EventKind,
    anchor_href,
    extract_links,
    lex_html,
    strip_tags,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "lexer_golden.json"

#: Pieces of HTML that stress every branch of the grammar: comments,
#: declarations, raw-text elements in mixed case, quotes around ``>``,
#: ``/>`` tails, anchors in both cases, fragments and non-ASCII text.
HTML_FRAGMENTS = [
    "<", ">", "/", "!", "--", "<!--", "-->", "?", '"', "'", "=", " ", "\n",
    "a", "A", "href", "HREF", "script", "SCRIPT", "style", "</ScRiPt >",
    "<a", "</a>", "#", "/>", "<!DOCTYPE", "<?xml", "é", "x.html",
    "<script>", "<style>", " href=", '<a href="y.html">',
]
html_soup = st.lists(st.sampled_from(HTML_FRAGMENTS), max_size=40).map("".join)


def kinds(document):
    return [event.kind for event in lex_html(document)]


def texts(document):
    return [e.data for e in lex_html(document) if e.kind is EventKind.TEXT]


class TestBasicLexing:
    def test_simple_element(self):
        events = lex_html("<b>hi</b>")
        assert [(e.kind, e.data) for e in events] == [
            (EventKind.TAG_OPEN, "b"),
            (EventKind.TEXT, "hi"),
            (EventKind.TAG_CLOSE, "b"),
        ]

    def test_tag_names_lowercased(self):
        events = lex_html("<TABLE><TR></TR></TABLE>")
        assert [e.data for e in events] == ["table", "tr", "tr", "table"]

    def test_self_closing(self):
        (event,) = lex_html("<br/>")
        assert event.kind is EventKind.TAG_OPEN
        assert event.self_closing

    def test_attributes_quoted(self):
        (event,) = lex_html('<a href="x.html" class="big">')
        assert event.attrs == {"href": "x.html", "class": "big"}

    def test_attributes_single_quoted_and_unquoted(self):
        (event,) = lex_html("<a href='x.html' target=_blank>")
        assert event.attrs == {"href": "x.html", "target": "_blank"}

    def test_valueless_attribute(self):
        (event,) = lex_html("<input disabled>")
        assert event.attrs == {"disabled": ""}

    def test_duplicate_attribute_first_wins(self):
        (event,) = lex_html('<a href="first.html" href="second.html">')
        assert event.attrs["href"] == "first.html"

    def test_gt_inside_quoted_attr(self):
        (event, text) = lex_html('<a title="a > b">x')
        assert event.attrs["title"] == "a > b"
        assert text.data == "x"

    def test_raw_tag_spelling(self):
        open_event, close_event = lex_html("<td></td>")
        assert open_event.raw_tag() == "<td>"
        assert close_event.raw_tag() == "</td>"

    def test_raw_tag_on_text_raises(self):
        (event,) = lex_html("hello")
        with pytest.raises(ValueError):
            event.raw_tag()


class TestCommentsAndDeclarations:
    def test_comment(self):
        events = lex_html("a<!-- secret -->b")
        assert kinds("a<!-- secret -->b") == [
            EventKind.TEXT,
            EventKind.COMMENT,
            EventKind.TEXT,
        ]
        assert events[1].data == "<!-- secret -->"

    def test_doctype(self):
        assert kinds("<!DOCTYPE html>x")[0] is EventKind.DECLARATION

    def test_unterminated_comment_runs_to_eof(self):
        events = lex_html("a<!-- never closed")
        assert events[-1].kind is EventKind.COMMENT


class TestRawTextElements:
    def test_script_body_is_raw(self):
        events = lex_html("<script>if (a<b) { x(); }</script>after")
        assert [e.kind for e in events] == [
            EventKind.TAG_OPEN,
            EventKind.RAW,
            EventKind.TAG_CLOSE,
            EventKind.TEXT,
        ]
        assert events[1].data == "if (a<b) { x(); }"

    def test_style_body_is_raw(self):
        events = lex_html("<style>p > b { color: red }</style>")
        assert events[1].kind is EventKind.RAW

    def test_unclosed_script_runs_to_eof(self):
        events = lex_html("<script>var x = 1;")
        assert events[-1].kind is EventKind.RAW


class TestMalformedInput:
    def test_bare_lt_is_text(self):
        assert texts("x < y") == ["x ", "<", " y"]

    def test_unclosed_tag_at_eof(self):
        events = lex_html("<a href=x")
        assert events[0].kind is EventKind.TAG_OPEN
        assert events[0].attrs == {"href": "x"}

    def test_stray_close_junk(self):
        events = lex_html("</ >x")
        assert events[-1].kind is EventKind.TEXT

    @pytest.mark.parametrize(
        "tail, attrs",
        [
            (">", {}),
            ('href="x.html">', {"href": "x.html"}),
            ("x", {"x": ""}),
            ("\u3000/>", {}),
        ],
    )
    def test_long_whitespace_in_a_tag_lexes_in_linear_time(self, tail, attrs):
        # An attribute pattern starting with ``\s*`` rescanned the rest
        # of a whitespace run from each of its positions: tens of minutes
        # at this length.  Linear lexing takes milliseconds.
        document = "<a" + " " * 200_000 + tail
        started = time.perf_counter()
        events, links = lex_html(document), extract_links(document)
        elapsed = time.perf_counter() - started
        assert [(e.kind, e.start, e.end, e.attrs) for e in events] == [
            (EventKind.TAG_OPEN, 0, len(document), attrs)
        ]
        assert links == ([attrs["href"]] if attrs.get("href") else [])
        assert elapsed < 5.0

    def test_non_string_raises(self):
        with pytest.raises(HtmlParseError):
            lex_html(None)  # type: ignore[arg-type]
        with pytest.raises(HtmlParseError):
            lex_html(b"<b>bytes</b>")  # type: ignore[arg-type]

    def test_empty_document(self):
        assert lex_html("") == []


class TestOffsets:
    def test_event_spans_cover_document(self):
        document = '<html><body>Hello <a href="x">link</a>!</body></html>'
        events = lex_html(document)
        cursor = 0
        for event in events:
            assert event.start == cursor
            assert event.end > event.start
            cursor = event.end
        assert cursor == len(document)

    @given(html_soup)
    def test_spans_are_monotone_on_arbitrary_soup(self, soup):
        events = lex_html(soup)
        cursor = 0
        for event in events:
            assert event.start >= cursor
            assert event.end > event.start
            cursor = event.end
        assert cursor <= len(soup)


def links_from_events(document):
    """The link rule applied to the lexer's ``<a>`` open events."""
    hrefs = [
        anchor_href(event.attrs)
        for event in lex_html(document)
        if event.kind is EventKind.TAG_OPEN and event.data == "a"
    ]
    return list(dict.fromkeys(href for href in hrefs if href is not None))


class TestExtractLinks:
    """The link scan reads exactly the anchors the lexer sees."""

    @settings(max_examples=500)
    @given(html_soup)
    def test_matches_anchor_events(self, soup):
        assert extract_links(soup) == links_from_events(soup)

    @pytest.mark.parametrize(
        "document, links",
        [
            ('<!-- <a href="c.html"> --><a href="x.html">', ["x.html"]),
            ('<script>w("<a href=s.html>")</SCRIPT ><a href="x.html">', ["x.html"]),
            ('<script>var a;<a href="s.html">', []),
            ('<script src="s.js"\n<a href="s.html">x</a>', []),
            ('<a title="a > b" href="x.html">', ["x.html"]),
            ("<A HREF=x.html>", ["x.html"]),
            ('<a href="first.html" href="second.html">', ["first.html"]),
            ("<a href=x/>", ["x/"]),
            ('<a href="  x.html \n">', ["x.html"]),
            ('<a href="#top"><a href=" "><a>', []),
        ],
    )
    def test_pinned_examples(self, document, links):
        assert extract_links(document) == links
        assert links_from_events(document) == links

    def test_non_string_raises(self):
        with pytest.raises(HtmlParseError):
            extract_links(None)  # type: ignore[arg-type]


class TestStripTags:
    def test_visible_text_only(self):
        html = "<html><b>John</b>&amp;<i>Mary</i><script>x()</script></html>"
        assert strip_tags(html) == "John & Mary"

    def test_whitespace_collapsed(self):
        assert strip_tags("<p>  a  \n  b  </p>") == "a b"


def lex_digest(pages) -> str:
    """Digest of every event of every page, attributes in order."""
    return fingerprint(
        "lex_html",
        [
            (
                page.url,
                [
                    (
                        event.kind.value,
                        event.data,
                        event.start,
                        event.end,
                        list(event.attrs.items()),
                        event.self_closing,
                    )
                    for event in lex_html(page.html)
                ],
            )
            for page in pages
        ],
    )


def corpus_pages(site_name: str):
    """Every list and detail page of one paper-corpus site."""
    site = build_site(site_name)
    pages = list(site.list_pages)
    for index in range(len(site.list_pages)):
        pages.extend(site.detail_pages(index))
    return pages


@functools.cache
def golden_pages(mixed_seed: int, mixed_sites: int) -> dict:
    """The goldens' page set, built once per process: every page of each
    corpus site and of generations 0 and 1 of one seeded mixed crawl."""
    return {
        "corpus": {name: corpus_pages(name) for name in TABLE4_ORDER},
        "mixed": {
            str(generation): build_mixed_corpus(
                MixedCorpusSpec(
                    sites=mixed_sites, seed=mixed_seed, generation=generation
                )
            ).pages
            for generation in (0, 1)
        },
    }


def current_digests(golden: dict, digest) -> dict:
    """``digest`` of each page group of ``golden``'s page set, computed
    by the code under test."""
    pages = golden_pages(golden["mixed_seed"], golden["mixed_sites"])
    return {
        part: {key: digest(group) for key, group in groups.items()}
        for part, groups in pages.items()
    }


def assert_matches_golden(path: Path, digest) -> None:
    """Every digest recorded in the golden file ``path`` holds."""
    golden = json.loads(path.read_text())
    current = current_digests(golden, digest)
    assert current["corpus"] == golden["corpus"]
    assert current["mixed"] == golden["mixed"]


def assert_golden_covers_corpus_and_both_generations(path: Path) -> None:
    golden = json.loads(path.read_text())
    assert list(golden["corpus"]) == list(TABLE4_ORDER)
    assert set(golden["mixed"]) == {"0", "1"}
    assert golden["mixed_sites"] == 40


def rerecord_golden(path: Path, digest) -> None:
    """Re-record the golden file ``path`` (keeps the note and the crawl spec)."""
    golden = json.loads(path.read_text())
    golden.update(current_digests(golden, digest))
    path.write_text(json.dumps(golden, indent=2) + "\n")


class TestLexerGolden:
    """Events are byte-identical to the recorded lexer's, page for page."""

    def test_events_match_golden(self):
        assert_matches_golden(GOLDEN_PATH, lex_digest)

    def test_golden_covers_corpus_and_both_generations(self):
        assert_golden_covers_corpus_and_both_generations(GOLDEN_PATH)


if __name__ == "__main__":
    rerecord_golden(GOLDEN_PATH, lex_digest)
