"""Tests for entry-point navigation: index pages, Next chains,
site discovery, and the continuous-numbering repair."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.exceptions import CrawlError
from repro.core.pipeline import SegmentationPipeline
from repro.crawl import ResilientFetcher, discover_site, follow_next_chain
from repro.sitegen.corpus import TABLE4_ORDER, build_site
from repro.sitegen.domains.books import build_amazon
from repro.sitegen.site import GeneratedSite
from repro.template.finder import TemplateFinder
from repro.webdoc.page import Page


class TestSiteChrome:
    def test_index_page_exists_with_form(self):
        site = build_site("butler")
        index = site.fetch("butler-index.html")
        assert "<form" in index.html
        assert "sample search" in index.html

    def test_next_previous_chain(self):
        site = build_site("butler")
        first, second = site.list_pages
        assert 'Next' in first.html and 'Previous' not in first.html
        assert 'Previous' in second.html and 'Next' not in second.html


class TestFollowNextChain:
    def test_walks_the_chain(self):
        site = build_site("butler")
        fetcher = ResilientFetcher(site)
        chain = follow_next_chain(fetcher, site.list_pages[0])
        assert [page.url for page in chain] == [
            "butler-list0.html",
            "butler-list1.html",
        ]

    def test_stops_without_next(self):
        site = build_site("butler")
        fetcher = ResilientFetcher(site)
        chain = follow_next_chain(fetcher, site.list_pages[1])
        assert len(chain) == 1

    def test_max_pages_cap(self):
        site = build_site("butler")
        fetcher = ResilientFetcher(site)
        chain = follow_next_chain(fetcher, site.list_pages[0], max_pages=1)
        assert len(chain) == 1


#: Requests discovery books per site, in ``TABLE4_ORDER``: the traffic
#: of the caching fetcher, pinned so a fetcher change cannot add any.
DISCOVERY_REQUESTS = dict(
    zip(TABLE4_ORDER, (29, 29, 49, 36, 30, 32, 39, 29, 39, 49, 29, 27))
)


class TestDiscoverSite:
    @pytest.mark.parametrize("name", TABLE4_ORDER)
    def test_discovers_pipeline_inputs(self, name):
        site = build_site(name)
        fetcher = ResilientFetcher(site)
        found = discover_site(fetcher, f"{name}-index.html")
        assert [page.url for page in found.list_pages] == [
            page.url for page in site.list_pages
        ]
        for page_index, details in enumerate(found.detail_pages_per_list):
            assert [page.url for page in details] == [
                page.url for page in site.detail_pages(page_index)
            ]
        assert fetcher.health.requests == DISCOVERY_REQUESTS[name]
        assert fetcher.health.gap_count == 5
        assert fetcher.health.breaker_trips == 0

    def test_discovered_inputs_segment_identically(self):
        site = build_site("butler")
        found = discover_site(ResilientFetcher(site), "butler-index.html")
        run = SegmentationPipeline("csp").segment_site(
            found.list_pages, found.detail_pages_per_list
        )
        direct = SegmentationPipeline("csp").segment_generated_site(site)
        for via_discovery, via_truth in zip(run.pages, direct.pages):
            assert (
                via_discovery.segmentation.record_count
                == via_truth.segmentation.record_count
            )

    def test_dead_entry_raises(self):
        site = build_site("butler")
        fetcher = ResilientFetcher(site)
        lonely = Page(
            "lonely-index.html",
            '<a href="nowhere.html">only dead link</a>',
        )
        site._by_url["lonely-index.html"] = lonely
        with pytest.raises(CrawlError):
            discover_site(fetcher, "lonely-index.html")


class TestContinuousNumbering:
    """The paper's Next-link template repair (Section 6.2)."""

    def test_restarting_numbers_break_the_template(self):
        site = GeneratedSite(build_amazon())
        assert not TemplateFinder().find(site.list_pages).ok

    def test_continuous_numbers_repair_it(self):
        spec = dataclasses.replace(build_amazon(), numbering_continuous=True)
        site = GeneratedSite(spec)
        verdict = TemplateFinder().find(site.list_pages)
        assert verdict.ok
        # Page 2 actually counts onward.
        assert ">11.<" in site.list_pages[1].html

    def test_default_is_paper_faithful(self):
        assert build_amazon().numbering_continuous is False
