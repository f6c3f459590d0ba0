"""The paper's eight syntactic token types (Section 3.1).

    "Each token is assigned one or more syntactic types, based on the
    characters appearing in it.  The three basic syntactic types we
    consider are: HTML, punctuation, and alphanumeric.  In addition,
    the alphanumeric type can be either numeric or alphabetic, and the
    alphabetic can be capitalized, lowercased or allcaps.  This gives
    us a total of eight (non-mutually exclusive) possible token types."

The types form a small specialization hierarchy::

    HTML    PUNCT    ALNUM
                      ├── NUMERIC
                      └── ALPHA
                           ├── CAPITALIZED
                           ├── LOWERCASE
                           └── ALLCAPS

They are modelled as bit flags so a token carries its full type *set*
(e.g. ``ALNUM | ALPHA | CAPITALIZED``), exactly as the probabilistic
model's emission variables require (``T_i`` is an 8-vector).

Per-token tests read a member's int ``_value_`` and test its bits:
a ``Flag`` operator, ``in`` test or ``.value`` read goes through the
enum machinery, and these tests run once per token of every page.
"""

from __future__ import annotations

import enum

__all__ = [
    "TokenType",
    "NUM_TOKEN_TYPES",
    "TOKEN_TYPE_ORDER",
    "classify_text",
    "type_vector",
    "union_type_vector",
]


class TokenType(enum.Flag):
    """Bit-flag set of the eight syntactic types."""

    NONE = 0
    HTML = enum.auto()
    PUNCT = enum.auto()
    ALNUM = enum.auto()
    NUMERIC = enum.auto()
    ALPHA = enum.auto()
    CAPITALIZED = enum.auto()
    LOWERCASE = enum.auto()
    ALLCAPS = enum.auto()


#: Canonical ordering of the eight types; index ``i`` of the emission
#: vector ``T`` corresponds to ``TOKEN_TYPE_ORDER[i]``.
TOKEN_TYPE_ORDER: tuple[TokenType, ...] = (
    TokenType.HTML,
    TokenType.PUNCT,
    TokenType.ALNUM,
    TokenType.NUMERIC,
    TokenType.ALPHA,
    TokenType.CAPITALIZED,
    TokenType.LOWERCASE,
    TokenType.ALLCAPS,
)

NUM_TOKEN_TYPES = len(TOKEN_TYPE_ORDER)

#: Each type's bit, in ``TOKEN_TYPE_ORDER``.
_BITS = tuple(flag.value for flag in TOKEN_TYPE_ORDER)
_ALNUM, _NUMERIC, _ALPHA, _CAPITALIZED, _LOWERCASE, _ALLCAPS = _BITS[2:]

#: Type-set bits -> the canonical ``TokenType`` member, filled on demand.
_MEMBERS: dict[int, TokenType] = {}


def classify_text(text: str) -> TokenType:
    """Assign the syntactic type set of one *text* token.

    HTML-tag tokens are classified by the tokenizer directly (it knows
    it produced a tag); this function handles visible text tokens only.

    Rules, following the paper's hierarchy:

    * a token made entirely of non-alphanumeric characters is PUNCT;
    * any token containing a letter or digit is ALNUM;
    * an ALNUM token with digits and no letters is also NUMERIC;
    * an ALNUM token with letters is also ALPHA, and exactly one of
      CAPITALIZED / LOWERCASE / ALLCAPS when its letters match that
      casing pattern (a mixed-case token like ``McDonald`` is ALPHA
      only... except that its first letter being uppercase makes it
      CAPITALIZED; see below).

    Casing sub-types:

    * ALLCAPS: every letter is uppercase and there are >= 2 letters
      (a single capital letter counts as CAPITALIZED, not ALLCAPS);
    * CAPITALIZED: first letter uppercase, not ALLCAPS;
    * LOWERCASE: every letter is lowercase.

    >>> classify_text("Smith") == TokenType.ALNUM | TokenType.ALPHA | TokenType.CAPITALIZED
    True
    >>> classify_text("740") == TokenType.ALNUM | TokenType.NUMERIC
    True
    >>> classify_text("(") == TokenType.PUNCT
    True
    """
    if not text:
        return TokenType.NONE

    if text.isascii():
        # Every ASCII letter is cased, so on an all-letter ASCII piece
        # each ``str`` predicate answers its per-letter rule below in
        # one C call, and an all-digit piece has no letters.  Other
        # letters may be uncased or titlecase: the rest of the text
        # takes the per-character path.
        if text.isalpha():
            bits = _ALNUM | _ALPHA
            if text.isupper():
                bits |= _ALLCAPS if len(text) >= 2 else _CAPITALIZED
            elif text.islower():
                bits |= _LOWERCASE
            elif text[0].isupper():
                bits |= _CAPITALIZED
            return _member(bits)
        if text.isdigit():
            return _member(_ALNUM | _NUMERIC)

    letters = [char for char in text if char.isalpha()]
    has_digit = any(char.isdigit() for char in text)

    if not letters and not has_digit:
        return TokenType.PUNCT

    # Plain int arithmetic: every ``Flag`` operator builds a new member
    # through the enum machinery, and this runs once per text token.
    bits = _ALNUM
    if has_digit and not letters:
        bits |= _NUMERIC
    if letters:
        bits |= _ALPHA
        if all(char.isupper() for char in letters):
            bits |= _ALLCAPS if len(letters) >= 2 else _CAPITALIZED
        elif all(char.islower() for char in letters):
            bits |= _LOWERCASE
        elif letters[0].isupper():
            bits |= _CAPITALIZED
    member = _MEMBERS.get(bits)
    if member is None:
        member = _MEMBERS[bits] = TokenType(bits)
    return member


def _member(bits: int) -> TokenType:
    """The canonical ``TokenType`` member of a type-set's bits."""
    member = _MEMBERS.get(bits)
    if member is None:
        member = _MEMBERS[bits] = TokenType(bits)
    return member


def type_vector(types: TokenType) -> tuple[int, ...]:
    """The 8-element 0/1 vector ``T_i`` for a type set.

    >>> type_vector(TokenType.ALNUM | TokenType.NUMERIC)
    (0, 0, 1, 1, 0, 0, 0, 0)
    """
    return _vector(types._value_)


def union_type_vector(tokens) -> tuple[int, ...]:
    """:func:`type_vector` of the union of the ``tokens``' type sets.

    A type is on when any token carries it — the observed vector of an
    extract.  No tokens gives all zeros.
    """
    bits = 0
    for token in tokens:
        bits |= token.types._value_
    return _vector(bits)


def _vector(bits: int) -> tuple[int, ...]:
    return tuple([1 if bits & bit else 0 for bit in _BITS])
