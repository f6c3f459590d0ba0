"""Tests for template induction, judging and table-slot resolution."""

from __future__ import annotations

import pytest

from repro.core.exceptions import InsufficientPagesError
from repro.template.finder import TemplateFinder, TemplateFinderConfig
from repro.template.table_slot import resolve_table_regions
from repro.webdoc.page import Page


def chrome_page(url, rows, numbered=False, extra_header=""):
    """A list-like page with enough chrome for a healthy template."""
    row_html = []
    for index, row in enumerate(rows):
        # Numbered entries sit in invariant markup context
        # (<b>N.</b> <a>), like the real sites' layouts.
        prefix = f"<b>{index + 1}.</b> " if numbered else ""
        first = f"<a href='detail{index}.html'>{row[0]}</a>"
        cells = "<br>".join([first] + row[1:])
        row_html.append(f"<p>{prefix}{cells}</p>")
    html = (
        "<html><head><title>Acme Online Directory</title></head><body>"
        "<h1>Acme</h1><a href='i.html'>Home</a> <a href='s.html'>Search Again</a>"
        f"{extra_header}"
        "<h2>Matching Listings</h2>"
        f"<p>Displaying {len(rows)} results for your query</p>"
        f"{''.join(row_html)}"
        "<p>Copyright 2004. All rights reserved.</p>"
        "</body></html>"
    )
    return Page(url=url, html=html, kind="list")


ROWS_A = [
    ["Quartz Holdings", "4811 Ridge Rd.", "740-221-8765"],
    ["Umber Café", "12 Lake St.", "740-990-1123"],
    ["Violet Systems", "77 Mill Ave.", "740-300-4587"],
]
ROWS_B = [
    ["Nimbus Labs", "900 Oak Dr.", "614-202-9931"],
    ["Kestrel Supply", "31 Elm Ct.", "614-476-1200"],
    ["Tern Optics", "5510 Pine Ln.", "614-889-7742"],
    ["Moss Gallery", "208 High St.", "614-154-3310"],
]


class TestFinder:
    def test_clean_pages_find_template(self):
        verdict = TemplateFinder().find(
            [chrome_page("a", ROWS_A), chrome_page("b", ROWS_B)]
        )
        assert verdict.ok
        texts = verdict.template.token_texts
        assert "Copyright" in texts
        # "Displaying" is context-pruned (its neighbour is the varying
        # result count), but the stable chrome words survive.
        assert "Matching" in texts and "Listings" in texts
        # No record data leaked into the template.
        assert "Quartz" not in texts and "Nimbus" not in texts

    def test_table_slot_contains_the_rows(self):
        pages = [chrome_page("a", ROWS_A), chrome_page("b", ROWS_B)]
        verdict = TemplateFinder().find(pages)
        regions = resolve_table_regions(pages, verdict)
        assert not regions[0].whole_page
        texts = [token.text for token in regions[0].tokens]
        assert "Quartz" in texts and "740-221-8765" in texts
        assert "Copyright" not in texts

    def test_numbered_entries_fragment_the_table(self):
        # "1."-"3." occur once per page on both pages and thread
        # through the data region; "4." exists only on page b.
        verdict = TemplateFinder().find(
            [
                chrome_page("a", ROWS_A, numbered=True),
                chrome_page("b", ROWS_B, numbered=True),
            ]
        )
        assert not verdict.ok
        assert "fragmented" in verdict.reason
        assert "1." in verdict.template.token_texts

    def test_whole_page_fallback_regions(self):
        pages = [
            chrome_page("a", ROWS_A, numbered=True),
            chrome_page("b", ROWS_B[:3], numbered=True),
        ]
        verdict = TemplateFinder().find(pages)
        regions = resolve_table_regions(pages, verdict)
        assert all(region.whole_page for region in regions)
        assert len(regions[0].tokens) == len(pages[0].tokens())

    def test_tags_only_template_rejected(self):
        # Two pages sharing only structure, no text.
        first = Page("a", "<html><body><p>alpha beta alpha beta</p></body></html>")
        second = Page("b", "<html><body><p>gamma delta gamma delta</p></body></html>")
        verdict = TemplateFinder().find([first, second])
        assert not verdict.ok
        assert "text tokens" in verdict.reason or "fewer" in verdict.reason

    def test_single_page_raises(self):
        with pytest.raises(InsufficientPagesError):
            TemplateFinder().find([chrome_page("a", ROWS_A)])

    def test_min_template_tokens_config(self):
        config = TemplateFinderConfig(min_template_tokens=10_000)
        verdict = TemplateFinder(config).find(
            [chrome_page("a", ROWS_A), chrome_page("b", ROWS_B)]
        )
        assert not verdict.ok

    def test_context_prune_drops_colliding_data_value(self):
        # "Findlay," occurs exactly once per page in varying context:
        # without pruning it would join the template mid-table.
        rows_a = [
            ["Ann Price", "Findlay, OH 45001", "740-111-2222"],
            ["Bob Stone", "Marion, OH 45002", "740-333-4444"],
        ]
        rows_b = [
            ["Cal Reed", "Findlay, OH 45003", "740-555-6666"],
            ["Dee Wu", "Lima, OH 45004", "740-777-8888"],
        ]
        verdict = TemplateFinder().find(
            [chrome_page("a", rows_a), chrome_page("b", rows_b)]
        )
        assert "Findlay," not in verdict.template.token_texts

    def test_context_prune_disabled_keeps_collisions(self):
        rows_a = [["Ann Price", "Findlay, OH 45001", "740-111-2222"]]
        rows_b = [["Cal Reed", "Findlay, OH 45003", "740-555-6666"]]
        config = TemplateFinderConfig(context_depth=0)
        verdict = TemplateFinder(config).find(
            [chrome_page("a", rows_a), chrome_page("b", rows_b)]
        )
        assert "Findlay," in verdict.template.token_texts


class TestTemplateModel:
    def make_verdict(self):
        pages = [chrome_page("a", ROWS_A), chrome_page("b", ROWS_B)]
        return pages, TemplateFinder().find(pages)

    def test_slots_cover_every_token_once(self):
        pages, verdict = self.make_verdict()
        template = verdict.template
        for page_index, page in enumerate(pages):
            slots = template.slots_for_page(page_index, page.tokens())
            slot_tokens = sum(len(slot.tokens) for slot in slots)
            assert slot_tokens + len(template.aligned) == len(page.tokens())

    def test_slot_count(self):
        pages, verdict = self.make_verdict()
        slots = verdict.template.slots_for_page(0, pages[0].tokens())
        assert len(slots) == len(verdict.template.aligned) + 1

    def test_slots_page_index_out_of_range(self):
        pages, verdict = self.make_verdict()
        with pytest.raises(IndexError):
            verdict.template.slots_for_page(5, pages[0].tokens())

    def test_locate_on_same_template_page(self):
        pages, verdict = self.make_verdict()
        third = chrome_page("c", [["Zinc Works", "8 Low Rd.", "614-000-1111"]])
        positions = verdict.template.locate(third.tokens())
        assert positions is not None
        assert positions == sorted(positions)

    def test_locate_fails_on_foreign_page(self):
        _, verdict = self.make_verdict()
        foreign = Page("f", "<html><body>totally unrelated words</body></html>")
        assert verdict.template.locate(foreign.tokens()) is None


class TestEnumerationHeuristic:
    """The paper's future-work fix for numbered entries (Section 6.2)."""

    def test_strip_repairs_numbered_pages(self):
        config = TemplateFinderConfig(strip_enumerations=True)
        verdict = TemplateFinder(config).find(
            [
                chrome_page("a", ROWS_A, numbered=True),
                chrome_page("b", ROWS_B, numbered=True),
            ]
        )
        assert verdict.ok
        assert "1." not in verdict.template.token_texts

    def test_default_stays_paper_faithful(self):
        assert TemplateFinderConfig().strip_enumerations is False

    def test_strip_leaves_clean_templates_alone(self):
        base = TemplateFinder().find(
            [chrome_page("a", ROWS_A), chrome_page("b", ROWS_B)]
        )
        stripped = TemplateFinder(
            TemplateFinderConfig(strip_enumerations=True)
        ).find([chrome_page("a", ROWS_A), chrome_page("b", ROWS_B)])
        assert stripped.ok
        # Only enumeration-shaped tokens may differ.
        removed = set(base.template.token_texts) - set(
            stripped.template.token_texts
        )
        import re

        assert all(re.fullmatch(r"\d{1,3}[.)]?", text) for text in removed)

    def test_numbered_corpus_sites_recover(self):
        from repro.sitegen.corpus import build_site

        config = TemplateFinderConfig(strip_enumerations=True)
        for name in ("amazon", "bnbooks"):
            site = build_site(name)
            verdict = TemplateFinder(config).find(site.list_pages)
            assert verdict.ok, f"{name}: {verdict.reason}"
