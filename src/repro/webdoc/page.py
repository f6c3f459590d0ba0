"""The :class:`Page` abstraction: a URL plus its HTML payload.

Pages are the unit of input to the whole pipeline: the template finder
takes several list :class:`Page` objects, the observation builder takes
one list page plus its detail pages, and the simulated crawler produces
them.  Token streams are computed lazily and cached, since every stage
of the pipeline re-reads them; the text-only view is cached separately
because several stages (matching, drift scoring) filter the same
stream per page.  A page may be bound to a *token source* (the batch
runner binds a stage-cache lookup), which then supplies the stream the
first time it is asked for instead of the tokenizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.tokens.tokenizer import Token

__all__ = ["Page"]


@dataclass
class Page:
    """One fetched (or generated) web page.

    Attributes:
        url: the page's address.  Only used as an identifier; the
            pipeline never fetches anything over a network.
        html: the raw HTML payload.
        kind: optional role annotation (``"list"`` / ``"detail"`` /
            ``"other"``); filled in by whoever builds the page (the
            site generator, a serve request).  Purely informational.
    """

    url: str
    html: str
    kind: str | None = None
    _tokens: "list[Token] | None" = field(
        default=None, repr=False, compare=False
    )
    _text_tokens: "list[Token] | None" = field(
        default=None, repr=False, compare=False
    )
    _token_source: "Callable[[Page], list[Token]] | None" = field(
        default=None, repr=False, compare=False
    )

    def tokens(self) -> "list[Token]":
        """Tokenize the page (cached).

        Returns the full token stream including HTML-tag tokens, as
        defined in paper Section 3.1.  A bound token source (see
        :meth:`bind_token_source`) supplies it in place of the
        tokenizer.
        """
        if self._tokens is None:
            if self._token_source is not None:
                self._tokens = self._token_source(self)
            else:
                from repro.tokens.tokenizer import tokenize_html

                self._tokens = tokenize_html(self.html)
        return self._tokens

    def bind_token_source(
        self, source: "Callable[[Page], list[Token]]"
    ) -> None:
        """Have :meth:`tokens` ask ``source(page)`` for the stream.

        The source must return exactly what the tokenizer would for
        this page's ``html``.  Nothing is read at bind time: the
        source runs on the first :meth:`tokens` call, so a page whose
        stream nobody asks for costs nothing.
        """
        self._token_source = source

    def text_tokens(self) -> "list[Token]":
        """Only the visible-text tokens of the page (no tags; cached)."""
        if self._text_tokens is None:
            self._text_tokens = [
                token for token in self.tokens() if not token.is_html
            ]
        return self._text_tokens

    def invalidate_cache(self) -> None:
        """Drop the cached token streams (after mutating ``html``)."""
        self._tokens = None
        self._text_tokens = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        role = f" [{self.kind}]" if self.kind else ""
        return f"Page({self.url}{role}, {len(self.html)} bytes)"
