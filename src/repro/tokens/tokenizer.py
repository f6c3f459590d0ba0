"""Page tokenization (paper Section 3.1).

    "The pages are tokenized — the text is split into individual
    words, or more accurately tokens, and HTML escape sequences are
    converted to ASCII text."

A page's token stream interleaves:

* **tag tokens** — one token per HTML tag, spelled canonically as
  ``<name>`` / ``</name>`` with attributes dropped.  Dropping
  attributes is deliberate: two list pages render the same template
  with different ``href`` values, and the template finder must see
  those tags as *the same* token.
* **word tokens** — entity-decoded visible text split on whitespace,
  with *separator punctuation* split off into their own tokens.

The paper defines separators as "HTML tags and special punctuation
characters (any character that is not in the set ``.,()-``)".  The
allowed set is therefore a tokenizer parameter
(:data:`DEFAULT_ALLOWED_PUNCT`): punctuation in the allowed set stays
attached to its word (``"Smith,"`` and ``"335-5555"`` are single
tokens), while every disallowed punctuation character becomes its own
single-character PUNCT token, which downstream stages treat as a
separator.

:func:`tokenize_html` reads :func:`~repro.webdoc.html.walk_html`; one
compiled pattern per allowed set splits each text run in linear time,
and each distinct piece is classified once per call.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.tokens.types import TokenType, classify_text
from repro.webdoc.entities import decode_entities
from repro.webdoc.html import walk_html

__all__ = [
    "DEFAULT_ALLOWED_PUNCT",
    "Token",
    "tokenize_html",
    "tokenize_text",
    "is_separator",
]

#: Punctuation characters allowed *inside* extracts (paper Section 3.2).
DEFAULT_ALLOWED_PUNCT = frozenset(".,()-")

# Type tests read the member's int bits (see repro.tokens.types).
_HTML = TokenType.HTML.value
_PUNCT = TokenType.PUNCT.value


@dataclass(frozen=True, slots=True)
class Token:
    """One token of a page's stream.

    Attributes:
        text: the token's text; tags are spelled ``<name>``/``</name>``.
        types: the token's syntactic type set (paper's 8 types).
        index: position in the page's full token stream.
        ws_before: whether whitespace (or a tag boundary) preceded the
            token in the source; used to reconstruct display text.
        start: character offset of the token in the raw document, or
            -1 for tokens without a source span.
    """

    text: str
    types: TokenType
    index: int
    ws_before: bool = True
    start: int = -1

    @property
    def is_html(self) -> bool:
        """True for tag tokens."""
        return self.types._value_ & _HTML != 0

    @property
    def is_punct(self) -> bool:
        """True for pure-punctuation tokens."""
        return self.types._value_ & _PUNCT != 0

    def __reduce__(self):
        # Pickle as constructor arguments: one call per token on load,
        # where the dataclass default replays a ``__setstate__`` loop.
        return Token, (
            self.text, self.types, self.index, self.ws_before, self.start
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text


def is_separator(
    token: Token, allowed_punct: frozenset[str] = DEFAULT_ALLOWED_PUNCT
) -> bool:
    """Is ``token`` a separator in the paper's sense?

    Separators are HTML tags and punctuation tokens containing any
    character outside the allowed set.
    """
    bits = token.types._value_
    if bits & _HTML:
        return True
    if bits & _PUNCT:
        return any(char not in allowed_punct for char in token.text)
    return False


def tokenize_html(
    document: str,
    allowed_punct: frozenset[str] = DEFAULT_ALLOWED_PUNCT,
) -> list[Token]:
    """Tokenize an HTML document into the paper's token stream.

    Comments, declarations and script/style bodies are invisible and
    produce no tokens.

    >>> [t.text for t in tokenize_html("<b>John Smith</b> (740) 335-5555")]
    ['<b>', 'John', 'Smith', '</b>', '(740)', '335-5555']
    """
    tokens: list[Token] = []
    split = _piece_pattern(allowed_punct).findall
    types: dict[str, TokenType] = {}
    for kind, start, end, name, _ in walk_html(document):
        if kind == "TEXT":
            text = decode_entities(document[start:end]).rstrip()
            _append_pieces(tokens, split(text), start, types)
        elif kind == "TAG_OPEN":
            tokens.append(Token(f"<{name}>", TokenType.HTML, len(tokens), True, start))
        elif kind == "TAG_CLOSE":
            tokens.append(Token(f"</{name}>", TokenType.HTML, len(tokens), True, start))
    return tokens


def tokenize_text(
    text: str,
    allowed_punct: frozenset[str] = DEFAULT_ALLOWED_PUNCT,
) -> list[Token]:
    """Tokenize plain (already tag-free) text.

    Used to tokenize ground-truth field values with exactly the same
    rules the pages are tokenized with, so that truth and predictions
    align token-for-token.

    >>> [t.text for t in tokenize_text("Price: $12.95")]
    ['Price', ':', '$', '12.95']
    """
    tokens: list[Token] = []
    pieces = _piece_pattern(allowed_punct).findall(decode_entities(text).rstrip())
    _append_pieces(tokens, pieces, -1, {})
    return tokens


def _piece_pattern(allowed_punct: frozenset[str]) -> re.Pattern[str]:
    """``(whitespace)(piece)``: a piece is a run of alphanumerics and
    allowed punctuation, or one other non-whitespace character.

    ``[^\\W_]`` is exactly ``str.isalnum`` and ``\\s`` exactly
    ``str.isspace`` on every code point.  Allowed whitespace is dropped,
    since text splits on whitespace first.  Callers ``rstrip`` the text:
    a whitespace tail would end in a failed search, quadratic in its
    length.
    """
    allowed = "".join(
        re.escape(char) for char in sorted(allowed_punct) if not char.isspace()
    )
    word = rf"(?:[^\W_]|[{allowed}])" if allowed else r"[^\W_]"
    return re.compile(rf"(\s*)({word}+|\S)")


def _append_pieces(
    tokens: list[Token],
    pieces: list[tuple[str, str]],
    offset: int,
    types: dict[str, TokenType],
) -> None:
    """Append one text run's ``(whitespace, piece)`` pairs as tokens.

    A piece that starts the run or follows whitespace has ``ws_before``.
    ``offset`` is the run's document offset, or -1 for text without a
    source span; ``types`` holds this call's classified pieces.
    """
    append = tokens.append
    position = 0
    for space, piece in pieces:
        ws_before = position == 0 or space != ""
        position += len(space)
        piece_types = types.get(piece)
        if piece_types is None:
            piece_types = types[piece] = classify_text(piece)
        start = offset + position if offset >= 0 else -1
        append(Token(piece, piece_types, len(tokens), ws_before, start))
        position += len(piece)
