"""Page-template data model: :class:`PageTemplate` and :class:`Slot`.

A template induced from N sample pages is a sequence of aligned tokens;
the *slots* are the N+1 gaps around them (before the first template
token, between consecutive template tokens, after the last).  Slot
``k`` exists on every page, with per-page content.

    "Slots are sections of the page that are not part of the page
    template. ... the entire table, data plus separators, will be
    contained in a single slot."  (paper Section 3.1)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.template.alignment import AlignedToken
from repro.tokens.tokenizer import Token

__all__ = ["PageTemplate", "Slot"]


@dataclass(frozen=True, slots=True)
class Slot:
    """One slot of a template, instantiated on one page.

    Attributes:
        slot_id: the gap index (0 = before the first template token).
        page_index: which sample page this instantiation belongs to.
        tokens: the page tokens falling in the gap.
    """

    slot_id: int
    page_index: int
    tokens: tuple[Token, ...]

    @property
    def text_token_count(self) -> int:
        """Number of visible-text (non-tag) tokens in the slot."""
        return sum(1 for token in self.tokens if not token.is_html)


@dataclass(frozen=True)
class PageTemplate:
    """A page template induced from a set of sample pages.

    Attributes:
        aligned: the template tokens with per-page positions.
        page_count: how many sample pages the template was induced from.
    """

    aligned: tuple[AlignedToken, ...]
    page_count: int

    @property
    def token_texts(self) -> tuple[str, ...]:
        """The template's token texts, in order."""
        return tuple(token.text for token in self.aligned)

    @property
    def slot_count(self) -> int:
        """Number of slots (gaps), including leading and trailing."""
        return len(self.aligned) + 1

    def slots_for_page(
        self, page_index: int, page_tokens: list[Token]
    ) -> list[Slot]:
        """Instantiate every slot on sample page ``page_index``.

        ``page_tokens`` must be the same token stream the template was
        induced from (positions are indices into it).
        """
        if not 0 <= page_index < self.page_count:
            raise IndexError(
                f"page index {page_index} out of range for "
                f"{self.page_count}-page template"
            )
        boundaries = [token.positions[page_index] for token in self.aligned]
        slots: list[Slot] = []
        previous_end = 0
        for slot_id, boundary in enumerate(boundaries):
            slots.append(
                Slot(slot_id, page_index, tuple(page_tokens[previous_end:boundary]))
            )
            previous_end = boundary + 1
        slots.append(
            Slot(len(boundaries), page_index, tuple(page_tokens[previous_end:]))
        )
        return slots

    def locate(self, tokens: list[Token]) -> list[int] | None:
        """Locate the template on an *unseen* page's token stream.

        Greedy left-to-right search for the template token texts in
        order.  Returns the matched positions, or ``None`` if the
        template does not fit the page.  The wrapper
        (:mod:`repro.wrapper.apply`) uses the positions to cut the
        table slot out of a page it has not seen.
        """
        positions: list[int] = []
        cursor = 0
        token_texts = [token.text for token in tokens]
        for template_text in self.token_texts:
            try:
                found = token_texts.index(template_text, cursor)
            except ValueError:
                return None
            positions.append(found)
            cursor = found + 1
        return positions
