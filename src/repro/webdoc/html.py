"""A small, forgiving HTML lexer.

The segmentation algorithms never need a DOM — the paper explicitly
relies on the *content* of pages rather than their layout — but they do
need to distinguish markup from text and to know which tag produced a
given markup token.  This module lexes an HTML document into a flat
sequence of :class:`HtmlEvent` objects: tags, text runs, comments,
declarations.

One compiled grammar reads every construct in linear time.
:func:`walk_html` yields each one and skips script/style bodies in one
place for :func:`lex_html`, the tokenizer and the ingest fingerprint.
:func:`extract_links` keeps its own, cheaper loop for a scan that reads
only ``<a>`` tags; the lexer golden and its property test keep the two
in step.

Design notes
------------
* The lexer is tolerant of the malformations common on 2004-era pages:
  unquoted attribute values, bare ``&``, unclosed tags at EOF, stray
  ``<`` in text.
* ``<script>`` and ``<style>`` bodies are treated as raw text and
  *skipped* (emitted as :data:`EventKind.RAW`), since their contents are
  code, not record data.
* Text is **not** entity-decoded here; that happens in the tokenizer so
  that offsets into the raw document stay meaningful.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.core.exceptions import HtmlParseError

__all__ = [
    "EventKind", "HtmlEvent", "anchor_href", "extract_links", "lex_html", "strip_tags",
    "tag_attrs", "walk_html",
]


class EventKind(enum.Enum):
    """What a lexed HTML event represents."""

    TAG_OPEN = "tag_open"  #: ``<a href=...>`` (also self-closing ``<br/>``)
    TAG_CLOSE = "tag_close"  #: ``</a>``
    TEXT = "text"  #: a run of character data
    COMMENT = "comment"  #: ``<!-- ... -->``
    DECLARATION = "declaration"  #: ``<!DOCTYPE ...>``
    RAW = "raw"  #: script/style body


@dataclass(frozen=True, slots=True)
class HtmlEvent:
    """One lexical event in an HTML document.

    Attributes:
        kind: what the event represents.
        data: tag name (lowercased) for tags; verbatim text otherwise.
        attrs: attribute mapping for ``TAG_OPEN`` events.  Attribute
            names are lowercased; valueless attributes map to ``""``.
        start: offset of the event's first character in the document.
        end: offset one past the event's last character.
        self_closing: ``True`` for ``<br/>``-style tags.
    """

    kind: EventKind
    data: str
    start: int
    end: int
    attrs: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False

    def raw_tag(self) -> str:
        """Canonical single-token spelling of a tag event (``<a>``/``</a>``)."""
        if self.kind is EventKind.TAG_OPEN:
            return f"<{self.data}>"
        if self.kind is EventKind.TAG_CLOSE:
            return f"</{self.data}>"
        raise ValueError(f"not a tag event: {self.kind}")


#: Tag names, lowercased when read.
_NAME = r"[a-zA-Z][a-zA-Z0-9:_.-]*"
#: One attribute: a name, then an optional double-quoted, single-quoted or
#: unquoted value.  A quoted value may hold ``>``.  No leading ``\s*``: it
#: would rescan a whitespace run from each of its positions.
_ATTR = r"""([a-zA-Z_:][a-zA-Z0-9:._-]*)
    (?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>]*)))?"""
_ATTR_RE = re.compile(_ATTR, re.VERBOSE)
#: The whole grammar, tried at each offset: one branch per construct, each a
#: group named after its event kind that closes last, so ``lastgroup`` names
#: the construct.  An open tag's attribute span stops before ``/>`` or ``>``
#: (not one inside a quoted value) or at EOF; its tail cannot fail, so the
#: first path the engine finds is the only one.  A ``<`` that starts no
#: construct is literal text.
_MARKUP = re.compile(
    rf"""(?P<TAG_OPEN><(?P<name>{_NAME})
        (?P<attrs>(?:(?!/>)(?:{_ATTR}|[^>]))*)(?P<tail>/?>)?)
    |(?P<TAG_CLOSE></(?P<close_name>{_NAME})[^>]*>?)
    |(?P<COMMENT><!--.*?(?:-->|\Z))
    |(?P<DECLARATION><[!?][^>]*>?)
    |(?P<TEXT>[^<]+|<)""",
    re.VERBOSE | re.DOTALL,
)
_KINDS = {kind.name: kind for kind in EventKind}
#: Elements whose content is raw (not markup), each with the close tag that
#: ends its body.
_RAW_CLOSE = {
    name: re.compile(rf"</{name}\s*>", re.IGNORECASE) for name in ("script", "style")
}


def _require_text(document: object) -> None:
    if not isinstance(document, str):
        raise HtmlParseError(f"expected an HTML string, got {type(document).__name__}")


def tag_attrs(match: re.Match) -> dict[str, str]:
    """An open tag's attributes from its :func:`walk_html` match: names
    lowercased, the first of a name wins, valueless ones map to ``""``."""
    attrs: dict[str, str] = {}
    start, end = match.span("attrs")
    if start == end:  # most tags have none; skip building an iterator
        return attrs
    for attr in _ATTR_RE.finditer(match.string, start, end):
        name, *values = attr.groups()
        attrs.setdefault(name.lower(), next((v for v in values if v is not None), ""))
    return attrs


def walk_html(
    document: str,
) -> Iterator[tuple[str, int, int, str | None, re.Match | None]]:
    """Every construct of ``document`` in order, as ``(kind, start, end, name, match)``.

    ``kind`` names an :class:`EventKind` member and ``name`` is a tag's
    lowercased name (None for other constructs); pass an open tag's
    ``match`` to :func:`tag_attrs` for its attributes.  After an open
    ``<script>``/``<style>`` tag that is not ``/>`` come its body as one
    ``RAW`` construct (match None; to EOF if unclosed) and its close tag.

    Raises:
        HtmlParseError: if ``document`` is not a string.
    """
    _require_text(document)
    match_at = _MARKUP.match
    pos, length = 0, len(document)
    while pos < length:
        match = match_at(document, pos)
        kind, end = match.lastgroup, match.end()
        if kind == "TAG_OPEN":
            name = match.group("name").lower()
            yield kind, pos, end, name, match
            if name in _RAW_CLOSE and match.group("tail") != "/>":
                close = _RAW_CLOSE[name].search(document, end)
                body_end, close_end = close.span() if close else (length, length)
                if body_end > end:
                    yield "RAW", end, body_end, None, None
                if close:
                    yield "TAG_CLOSE", body_end, close_end, name, close
                end = close_end
        elif kind == "TAG_CLOSE":
            yield kind, pos, end, match.group("close_name").lower(), match
        else:
            yield kind, pos, end, None, match
        pos = end


def lex_html(document: str) -> list[HtmlEvent]:
    """Lex ``document`` into a flat list of :class:`HtmlEvent`.

    Raises:
        HtmlParseError: if ``document`` is not a string.
    """
    events: list[HtmlEvent] = []
    append = events.append
    for kind, start, end, name, match in walk_html(document):
        if kind == "TAG_OPEN":
            closed = match.group("tail") == "/>"
            attrs = tag_attrs(match)
            append(HtmlEvent(EventKind.TAG_OPEN, name, start, end, attrs, closed))
        elif kind == "TAG_CLOSE":
            append(HtmlEvent(EventKind.TAG_CLOSE, name, start, end))
        else:
            append(HtmlEvent(_KINDS[kind], document[start:end], start, end))
    return events


def anchor_href(attrs: dict[str, str]) -> str | None:
    """The link target of an ``<a>`` tag's ``attrs``, or None.

    The one href rule every link reader shares: the ``href`` value,
    stripped; empty and fragment-only (``#…``) targets are no link.
    """
    href = attrs.get("href", "").strip()
    return href if href and not href.startswith("#") else None


def extract_links(document: str) -> list[str]:
    """Every ``<a>`` link target in document order, first occurrence only.

    Walks the :func:`walk_html` grammar in its own loop, without a
    generator or events: only ``<a>`` tags have their attributes read,
    and script/style bodies are skipped exactly as the walker skips
    them.  A URL linked twice (a row's name link and its "More Info"
    link) is reported once, at its first position — preserving record
    order.

    Raises:
        HtmlParseError: if ``document`` is not a string.
    """
    _require_text(document)
    hrefs: list[str] = []
    match_at = _MARKUP.match
    pos, length = 0, len(document)
    while pos < length:
        match = match_at(document, pos)
        pos = match.end()
        if match.lastgroup != "TAG_OPEN":
            continue
        name = match.group("name").lower()
        if name == "a":
            href = anchor_href(tag_attrs(match))
            if href is not None:
                hrefs.append(href)
        elif name in _RAW_CLOSE and match.group("tail") != "/>":
            close = _RAW_CLOSE[name].search(document, pos)
            pos = close.end() if close else length
    return list(dict.fromkeys(hrefs))


def strip_tags(document: str) -> str:
    """Return the visible text of ``document`` (tags removed, text joined).

    Convenience helper used by tests and baselines; the segmentation
    pipeline itself works on token streams, not on this string.
    """
    from repro.webdoc.entities import decode_entities

    pieces = [
        decode_entities(event.data)
        for event in lex_html(document)
        if event.kind is EventKind.TEXT
    ]
    return " ".join(" ".join(pieces).split())
