"""Structural template fingerprints for arbitrary crawled pages.

Two pages generated from one template share almost all of their markup
*structure* even when their visible text is completely different.  The
front door exploits that: each page is walked once (the
:func:`~repro.webdoc.html.walk_html` scan the tokenizer also reads,
building no event objects) into a sequence of structural *atoms*
— tag opens/closes with their class attribute, plus a collapsed symbol
for every text run — and the atom sequence is shingled into k-grams.
Two pages from the same template then share most of their shingle
*sets*, and template grouping becomes set similarity.

Fingerprints are built for index-fast comparison: atoms and
shingles are interned through a corpus-scoped
:class:`~repro.webdoc.interning.TokenTable` (PR 7's dense-int
interning), so a page's fingerprint is a sorted tuple of small ints
and the clusterer (:mod:`repro.ingest.cluster`) can find similar
pages through an inverted shingle→cluster index instead of comparing
every pair of pages.

The same single pass also collects the page-level signals the
classifier (:mod:`repro.ingest.classify`) needs: distinct outgoing
links in first-occurrence order (= record order on a list page), the
"Next" link if any, whether the page contains a form, and how
repetitive the structure is.

The crawler uses the same pass: :class:`~repro.crawl.crawler.Crawler`
clusters the pages a list page links to by fingerprint (the paper's
Section 6.1 detail-page finder), and
:func:`~repro.crawl.discover.follow_next_chain` walks ``next_url``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.webdoc.html import anchor_href, tag_attrs, walk_html
from repro.webdoc.interning import TokenTable
from repro.webdoc.page import Page

__all__ = ["PageProfile", "ShingleSpace", "profile_page", "profile_pages"]

#: Shingle width over the structural atom sequence.  Four atoms is
#: roughly one "cell" of markup (`<td> <a> T </a>` …): wide enough
#: that different row layouts produce disjoint shingles, narrow
#: enough that small per-page variation (pager arrows, ad slots)
#: moves only a few shingles.
SHINGLE_K = 4

#: Collapsed atom for any non-whitespace text run: fingerprints are
#: structural, so all visible text looks the same.
_TEXT_ATOM = "T"


@dataclass(frozen=True)
class PageProfile:
    """Everything the front door knows about one page after one scan.

    Attributes:
        url: the page's address (identifier only, never fetched).
        shingles: sorted distinct shingle ids — the structural
            fingerprint.  Ids are scoped to the
            :class:`ShingleSpace` that produced them.
        shingle_total: total shingle count including repeats; with
            ``len(shingles)`` this gives the repetition signal.
        links: distinct outgoing hrefs in first-occurrence order
            (fragment-only and empty hrefs skipped).  On a list page
            first-occurrence order is record order.
        next_url: the href of the first anchor whose text is "Next"
            (case-insensitive), if any — the paper's pager signal.  An
            anchor ends at ``</a>``, at the next ``<a>`` or at end of
            input.
        has_form: whether the page contains a ``<form>`` tag (search
            entry points, not data pages).
        text_runs: number of non-whitespace text runs, a cheap size
            proxy.
    """

    url: str
    shingles: tuple[int, ...]
    shingle_total: int
    links: tuple[str, ...]
    next_url: str | None
    has_form: bool
    text_runs: int

    @property
    def link_fanout(self) -> int:
        """How many distinct pages this one links to."""
        return len(self.links)

    @property
    def repeat_ratio(self) -> float:
        """Fraction of shingles that are repeats, in [0, 1].

        A list page renders one row template N times, so most of its
        shingles occur N times and the ratio is high; a one-off page
        repeats almost nothing.
        """
        if self.shingle_total == 0:
            return 0.0
        return 1.0 - len(self.shingles) / self.shingle_total


class ShingleSpace:
    """Corpus-scoped interning of structural atoms and shingles.

    One space is shared by every page of one ingest run so shingle
    ids are comparable across pages (the same scoping rule as
    :class:`~repro.webdoc.interning.TokenTable`, which it reuses for
    the atom alphabet).  Shingle k-grams (:data:`SHINGLE_K` atom ids)
    get their own dense ids so a fingerprint is a flat int tuple.
    """

    __slots__ = ("atoms", "_shingle_ids")

    def __init__(self) -> None:
        self.atoms = TokenTable()
        self._shingle_ids: dict[tuple[int, ...], int] = {}

    def __len__(self) -> int:
        return len(self._shingle_ids)

    def shingle_id(self, gram: tuple[int, ...]) -> int:
        """The dense id of an atom-id k-gram, assigning one if new."""
        table = self._shingle_ids
        found = table.get(gram)
        if found is None:
            found = len(table)
            table[gram] = found
        return found


def profile_page(page: Page, space: ShingleSpace) -> PageProfile:
    """Fingerprint one page with a single scan of its markup."""
    html = page.html
    atom_ids: list[int] = []
    links: list[str] = []
    seen_links: set[str] = set()
    next_url: str | None = None
    has_form = False
    text_runs = 0

    current_href: str | None = None
    current_text: list[str] = []
    intern = space.atoms.intern

    def close_anchor() -> None:
        # An anchor ends at ``</a>``, at the next ``<a>`` (messy markup
        # leaves anchors unclosed) or at end of input.
        nonlocal next_url
        if next_url is None and current_href is not None:
            text = " ".join(" ".join(current_text).split())
            if text.lower() == "next":
                next_url = current_href

    for kind, start, end, name, match in walk_html(html):
        if kind == "TAG_OPEN":
            attrs = tag_attrs(match)
            # Generated chrome marks structure with ``class``; other
            # attribute values (hrefs, ids) are per-page noise.
            cls = attrs.get("class")
            atom_ids.append(intern(f"<{name}.{cls}>" if cls else f"<{name}>"))
            if name == "form":
                has_form = True
            elif name == "a":
                close_anchor()
                current_text = []
                current_href = anchor_href(attrs)
                if current_href is not None and current_href not in seen_links:
                    seen_links.add(current_href)
                    links.append(current_href)
        elif kind == "TAG_CLOSE":
            atom_ids.append(intern(f"</{name}>"))
            if name == "a":
                close_anchor()
                current_href = None
        elif kind == "TEXT":
            text = html[start:end]
            if not text.isspace():
                atom_ids.append(intern(_TEXT_ATOM))
                text_runs += 1
                if current_href is not None:
                    current_text.append(text)
    close_anchor()

    k = SHINGLE_K
    if 0 < len(atom_ids) < k:
        grams = [tuple(atom_ids)]
    else:
        grams = [tuple(atom_ids[i : i + k]) for i in range(len(atom_ids) - k + 1)]
    shingle_id = space.shingle_id
    ids = [shingle_id(gram) for gram in grams]

    return PageProfile(
        url=page.url,
        shingles=tuple(sorted(set(ids))),
        shingle_total=len(ids),
        links=tuple(links),
        next_url=next_url,
        has_form=has_form,
        text_runs=text_runs,
    )


def profile_pages(
    pages: list[Page], space: ShingleSpace | None = None
) -> list[PageProfile]:
    """Fingerprint a crawl: one profile per page, shared shingle space."""
    if space is None:
        space = ShingleSpace()
    return [profile_page(page, space) for page in pages]
