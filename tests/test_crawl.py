"""Tests for the crawler, its fetcher and its detail-page split."""

from __future__ import annotations

import pytest

from repro.core.exceptions import CrawlError, FetchError
from repro.crawl import extract_links
from repro.crawl.crawler import Crawler, crawl_site
from repro.crawl.fetcher import SiteFetcher
from repro.ingest.cluster import cluster_profiles
from repro.ingest.fingerprint import profile_pages
from repro.sitegen.corpus import TABLE4_ORDER, build_site
from repro.sitegen.faults import FaultPlan
from repro.webdoc.page import Page

#: Every corpus site crawled pristine (id = site name) and through a
#: transient-fault plan that the retry layer absorbs.
CRAWL_CASES = [pytest.param(name, None, id=name) for name in TABLE4_ORDER] + [
    pytest.param(
        name, FaultPlan(seed=42, transient_rate=0.3), id=f"{name}-transient"
    )
    for name in TABLE4_ORDER
]


class TestExtractLinks:
    def test_document_order(self):
        html = '<a href="b.html">x</a><p><a href="a.html">y</a></p>'
        assert extract_links(html) == ["b.html", "a.html"]

    def test_duplicates_first_occurrence(self):
        html = '<a href="d.html">name</a> <a href="d.html">More Info</a>'
        assert extract_links(html) == ["d.html"]

    def test_fragments_and_empty_skipped(self):
        html = '<a href="#top">up</a><a href="">x</a><a href="real.html">y</a>'
        assert extract_links(html) == ["real.html"]

    def test_no_links(self):
        assert extract_links("<p>nothing here</p>") == []


class TestFetcher:
    def test_caching_counts_once(self):
        site = build_site("ohio")
        fetcher = SiteFetcher(site)
        url = site.truth[0].rows[0].detail_url
        fetcher.fetch(url)
        fetcher.fetch(url)
        assert fetcher.requests == 1

    def test_dead_link_counted(self):
        site = build_site("ohio")
        fetcher = SiteFetcher(site)
        with pytest.raises(FetchError):
            fetcher.fetch("missing.html")
        assert fetcher.failures == 1
        assert fetcher.try_fetch("missing.html") is None

    def test_dead_link_negative_cached(self):
        # Repeated fetches of the same dead URL must answer from the
        # negative cache: one request, one failure, however often asked.
        site = build_site("ohio")
        fetcher = SiteFetcher(site)
        for _ in range(5):
            assert fetcher.try_fetch("missing.html") is None
        with pytest.raises(FetchError):
            fetcher.fetch("missing.html")
        assert fetcher.requests == 1
        assert fetcher.failures == 1
        assert fetcher.dead_urls == frozenset({"missing.html"})

    def test_cached_probe(self):
        site = build_site("ohio")
        fetcher = SiteFetcher(site)
        url = site.truth[0].rows[0].detail_url
        assert fetcher.cached(url) is None
        page = fetcher.fetch(url)
        assert fetcher.cached(url) is page

    def test_reset_clears_negative_cache(self):
        site = build_site("ohio")
        fetcher = SiteFetcher(site)
        assert fetcher.try_fetch("missing.html") is None
        assert fetcher.try_fetch("gone.html") is None
        assert fetcher.reset() == 2
        assert fetcher.dead_urls == frozenset()
        # The next fetch of a previously dead URL hits the site again.
        assert fetcher.try_fetch("missing.html") is None
        assert fetcher.requests == 3
        # Positive cache survives the reset.
        url = site.truth[0].rows[0].detail_url
        page = fetcher.fetch(url)
        fetcher.reset()
        assert fetcher.cached(url) is page

    def test_negative_max_age_expires_entries(self):
        site = build_site("ohio")
        fetcher = SiteFetcher(site, negative_max_age=2)
        assert fetcher.try_fetch("missing.html") is None
        assert fetcher.requests == 1
        # Still within the age window: answered from the cache.
        assert fetcher.try_fetch("missing.html") is None
        assert fetcher.requests == 1
        # Two live requests later the entry expires and is re-tried.
        fetcher.fetch(site.truth[0].rows[0].detail_url)
        fetcher.fetch(site.truth[0].rows[1].detail_url)
        assert fetcher.try_fetch("missing.html") is None
        assert fetcher.requests == 4

    def test_negative_max_age_validated(self):
        with pytest.raises(ValueError):
            SiteFetcher(build_site("ohio"), negative_max_age=0)


def _template_clusters(pages: list[Page]) -> list[list[str]]:
    """Group pages the way the crawler does: by template fingerprint."""
    clusters = cluster_profiles(profile_pages(pages))
    return [[pages[i].url for i in cluster.members] for cluster in clusters]


def _list_page_linking(pages: list[Page]) -> Page:
    anchors = " ".join(f'<a href="{page.url}">{page.url}</a>' for page in pages)
    return Page("list.html", f"<p>{anchors}</p>", kind="list")


class TestClassifier:
    def test_same_template_pages_similar(self):
        site = build_site("ohio")
        details = site.detail_pages(0)[:2]
        assert _template_clusters(details) == [[p.url for p in details]]

    def test_different_template_pages_dissimilar(self):
        site = build_site("ohio")
        detail = site.detail_pages(0)[0]
        ad = site.fetch("ohio-ad0.html")
        assert _template_clusters([detail, ad]) == [[detail.url], [ad.url]]

    def test_identical_pages_similarity_one(self):
        page = Page("x", "<p>same content</p>")
        assert _template_clusters([page, page]) == [["x", "x"]]

    def test_clusters_split_details_from_ads(self):
        site = build_site("ohio")
        pages = site.detail_pages(0) + [site.fetch("ohio-ad0.html")]
        sizes = sorted(len(cluster) for cluster in _template_clusters(pages))
        assert sizes == [1, 10]

    def test_split_details_preserves_order(self):
        site = build_site("ohio")
        details = site.detail_pages(0)
        mixed = [site.fetch("ohio-ad0.html")] + details
        result = Crawler(SiteFetcher(site)).try_collect(
            _list_page_linking(mixed)
        )
        assert [p.url for p in result.detail_pages] == [p.url for p in details]
        assert [p.url for p in result.other_pages] == ["ohio-ad0.html"]

    def test_empty_input(self):
        site = build_site("ohio")
        result = Crawler(SiteFetcher(site)).try_collect(_list_page_linking([]))
        assert result.detail_pages == [] and result.other_pages == []


class TestCrawler:
    @pytest.mark.parametrize("name, fault_plan", CRAWL_CASES)
    def test_crawl_recovers_detail_pages_in_order(self, name, fault_plan):
        site = build_site(name)
        crawl = crawl_site(site, fault_plan=fault_plan)
        assert len(crawl.results) == len(site.list_pages)
        for page_index, result in enumerate(crawl.results):
            expected = [p.url for p in site.detail_pages(page_index)]
            assert [p.url for p in result.detail_pages] == expected
            assert f"{name}-ad0.html" in {p.url for p in result.other_pages}
            assert result.dead_links  # chrome links 404

    def test_classification_builds_no_token_stream(self, monkeypatch):
        # Pages are told apart by their structural fingerprint, so
        # crawling a list page must not tokenize what it fetched.
        import repro.tokens.tokenizer as tokenizer_module

        site = build_site("ohio")
        calls: list[str] = []
        real_tokenize = tokenizer_module.tokenize_html

        def counting_tokenize(html):
            calls.append(html)
            return real_tokenize(html)

        monkeypatch.setattr(
            tokenizer_module, "tokenize_html", counting_tokenize
        )
        result = Crawler(SiteFetcher(site)).try_collect(site.list_pages[0])
        assert result.detail_pages and result.other_pages
        assert calls == []

    def test_ads_classified_as_other(self):
        site = build_site("ohio")
        crawl = crawl_site(site)
        other_urls = {p.url for p in crawl.results[0].other_pages}
        assert "ohio-ad0.html" in other_urls

    def test_unfetchable_page_raises(self):
        site = build_site("ohio")
        crawler = Crawler(SiteFetcher(site))
        lonely = Page("x", '<a href="gone.html">only dead link</a>')
        with pytest.raises(CrawlError):
            crawler.collect(lonely)

    def test_try_collect_records_failure_instead_of_raising(self):
        site = build_site("ohio")
        crawler = Crawler(SiteFetcher(site))
        lonely = Page("x", '<a href="gone.html">only dead link</a>')
        result = crawler.try_collect(lonely)
        assert result.failed
        assert "no fetchable pages" in result.error
        assert result.detail_pages == []
        assert result.dead_links == ["gone.html"]

    def test_one_degenerate_list_page_does_not_abort_site(self):
        # A site where one list page's links are all dead must still
        # yield the other pages' crawls, with the failure recorded.
        site = build_site("ohio")
        dead = Page(
            site.list_pages[0].url,
            '<a href="gone-a.html">x</a> <a href="gone-b.html">y</a>',
            kind="list",
        )
        site.list_pages[0] = dead
        crawl = crawl_site(site)
        assert len(crawl.results) == len(site.list_pages)
        assert crawl.results[0].failed and crawl.results[0].detail_pages == []
        assert crawl.health.quarantined_pages == [dead.url]
        assert not crawl.results[1].failed
        expected = [p.url for p in site.detail_pages(1)]
        assert [p.url for p in crawl.results[1].detail_pages] == expected
