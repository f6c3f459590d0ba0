"""Tests for the crawler, fetcher and page classifier."""

from __future__ import annotations

import pytest

from repro.core.exceptions import CrawlError, FetchError
from repro.crawl import extract_links
from repro.crawl.classifier import ClassifierConfig, PageClassifier, page_similarity
from repro.crawl.crawler import Crawler, crawl_generated_site
from repro.crawl.fetcher import SiteFetcher
from repro.sitegen.corpus import build_site
from repro.webdoc.page import Page


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


class TestClassifier:
    def test_same_template_pages_similar(self):
        site = build_site("ohio")
        details = site.detail_pages(0)
        assert page_similarity(details[0], details[1]) > 0.5

    def test_different_template_pages_dissimilar(self):
        site = build_site("ohio")
        detail = site.detail_pages(0)[0]
        ad = site.fetch("ohio-ad0.html")
        assert page_similarity(detail, ad) < 0.3

    def test_identical_pages_similarity_one(self):
        page = Page("x", "<p>same content</p>")
        assert page_similarity(page, page) == 1.0

    def test_clusters_split_details_from_ads(self):
        site = build_site("ohio")
        pages = site.detail_pages(0) + [site.fetch("ohio-ad0.html")]
        clusters = PageClassifier().clusters(pages)
        sizes = sorted(len(cluster) for cluster in clusters)
        assert sizes == [1, 10]

    def test_split_details_preserves_order(self):
        site = build_site("ohio")
        details = site.detail_pages(0)
        mixed = [site.fetch("ohio-ad0.html")] + details
        found, others = PageClassifier().split_details(mixed)
        assert [p.url for p in found] == [p.url for p in details]
        assert len(others) == 1

    def test_empty_input(self):
        details, others = PageClassifier().split_details([])
        assert details == [] and others == []

    def test_threshold_config(self):
        # An absurd threshold keeps everything separate.
        site = build_site("ohio")
        pages = site.detail_pages(0)[:3]
        clusters = PageClassifier(ClassifierConfig(similarity_threshold=1.01)).clusters(pages)
        assert len(clusters) == 3

    def test_one_tokenization_pass_per_page(self, monkeypatch):
        # Regression: the O(n²) clustering loop used to rebuild both
        # pages' token-text sets on every pairwise call.  Each page
        # must now be tokenized exactly once, however many comparisons
        # it participates in.
        import repro.tokens.tokenizer as tokenizer_module

        site = build_site("ohio")
        pages = [
            Page(page.url, page.html)
            for page in site.detail_pages(0) + [site.fetch("ohio-ad0.html")]
        ]
        calls: list[str] = []
        real_tokenize = tokenizer_module.tokenize_html

        def counting_tokenize(html):
            calls.append(html)
            return real_tokenize(html)

        monkeypatch.setattr(
            tokenizer_module, "tokenize_html", counting_tokenize
        )
        PageClassifier().clusters(pages)
        assert len(calls) == len(pages)


class TestCrawler:
    @pytest.mark.parametrize("name", ["ohio", "allegheny", "superpages", "amazon"])
    def test_crawl_recovers_detail_pages_in_order(self, name):
        site = build_site(name)
        _, details_per_list, results = crawl_generated_site(site)
        for page_index, crawled in enumerate(details_per_list):
            expected = [p.url for p in site.detail_pages(page_index)]
            assert [p.url for p in crawled] == expected
            assert results[page_index].dead_links  # chrome links 404

    def test_ads_classified_as_other(self):
        site = build_site("ohio")
        _, _, results = crawl_generated_site(site)
        other_urls = {p.url for p in results[0].other_pages}
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
        original = site.list_pages[0]
        site.list_pages[0] = dead
        try:
            list_pages, details_per_list, results = crawl_generated_site(site)
        finally:
            site.list_pages[0] = original
        assert len(results) == len(site.list_pages)
        assert results[0].failed and details_per_list[0] == []
        assert not results[1].failed
        expected = [p.url for p in site.detail_pages(1)]
        assert [p.url for p in details_per_list[1]] == expected
