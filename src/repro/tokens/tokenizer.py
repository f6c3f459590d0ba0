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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tokens.types import TokenType, classify_text
from repro.webdoc.entities import decode_entities
from repro.webdoc.html import EventKind, lex_html

__all__ = [
    "DEFAULT_ALLOWED_PUNCT",
    "Token",
    "tokenize_html",
    "tokenize_text",
    "is_separator",
]

#: Punctuation characters allowed *inside* extracts (paper Section 3.2).
DEFAULT_ALLOWED_PUNCT = frozenset(".,()-")


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
        return TokenType.HTML in self.types

    @property
    def is_punct(self) -> bool:
        """True for pure-punctuation tokens."""
        return TokenType.PUNCT in self.types

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
    if token.is_html:
        return True
    if token.is_punct:
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
    for event in lex_html(document):
        if event.kind is EventKind.TAG_OPEN or event.kind is EventKind.TAG_CLOSE:
            tokens.append(
                Token(
                    text=event.raw_tag(),
                    types=TokenType.HTML,
                    index=len(tokens),
                    ws_before=True,
                    start=event.start,
                )
            )
        elif event.kind is EventKind.TEXT:
            _append_text_tokens(
                tokens, decode_entities(event.data), event.start, allowed_punct
            )
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
    _append_text_tokens(tokens, decode_entities(text), -1, allowed_punct)
    return tokens


def _append_text_tokens(
    tokens: list[Token],
    text: str,
    base_offset: int,
    allowed_punct: frozenset[str],
) -> None:
    """Split a text run into word/punct tokens and append them."""
    position = 0
    length = len(text)
    while position < length:
        # Skip whitespace.
        if text[position].isspace():
            position += 1
            continue
        word_start = position
        while position < length and not text[position].isspace():
            position += 1
        _append_word_tokens(
            tokens,
            text[word_start:position],
            base_offset + word_start if base_offset >= 0 else -1,
            allowed_punct,
        )


def _append_word_tokens(
    tokens: list[Token],
    word: str,
    offset: int,
    allowed_punct: frozenset[str],
) -> None:
    """Split one whitespace-delimited word on disallowed punctuation.

    Runs of alphanumerics and allowed punctuation stay together; each
    disallowed punctuation character becomes its own token.  The first
    piece of the word carries ``ws_before=True``; later pieces were
    glued to it in the source, so they carry ``ws_before=False``.
    """
    first = True
    piece_start = 0
    index = 0
    length = len(word)

    def emit(piece: str, piece_offset: int) -> None:
        nonlocal first
        if not piece:
            return
        tokens.append(
            Token(
                text=piece,
                types=classify_text(piece),
                index=len(tokens),
                ws_before=first,
                start=piece_offset,
            )
        )
        first = False

    while index < length:
        char = word[index]
        is_disallowed_punct = (
            not char.isalnum() and not char.isspace() and char not in allowed_punct
        )
        if is_disallowed_punct:
            emit(word[piece_start:index], offset + piece_start if offset >= 0 else -1)
            emit(char, offset + index if offset >= 0 else -1)
            piece_start = index + 1
        index += 1
    emit(word[piece_start:], offset + piece_start if offset >= 0 else -1)
