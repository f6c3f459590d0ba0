"""Tests for the crawler, its fetcher and its detail-page split."""

from __future__ import annotations

import pytest

from repro.core.exceptions import CrawlError, FetchError
from repro.crawl import extract_links
from repro.crawl.crawler import Crawler, crawl_site
from repro.crawl.discover import discover_site
from repro.crawl.fetcher import DirectorySite
from repro.crawl.resilient import GAP_PERMANENT, ResilientFetcher
from repro.ingest import fetch_crawl
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
        fetcher = ResilientFetcher(site)
        url = site.truth[0].rows[0].detail_url
        fetcher.fetch(url)
        fetcher.fetch(url)
        assert fetcher.health.requests == 1

    def test_dead_link_counted(self):
        site = build_site("ohio")
        fetcher = ResilientFetcher(site)
        with pytest.raises(FetchError):
            fetcher.fetch("missing.html")
        assert fetcher.health.gaps == {"missing.html": GAP_PERMANENT}
        assert fetcher.try_fetch("missing.html") is None

    def test_dead_link_negative_cached(self):
        # Repeated fetches of the same dead URL must answer from the
        # gap ledger: one request, one gap, however often asked.
        site = build_site("ohio")
        fetcher = ResilientFetcher(site)
        for _ in range(5):
            assert fetcher.try_fetch("missing.html") is None
        with pytest.raises(FetchError):
            fetcher.fetch("missing.html")
        assert fetcher.health.requests == 1
        assert fetcher.health.gaps == {"missing.html": GAP_PERMANENT}

    def test_cached_probe(self):
        # A page fetched twice is the same object, and the second
        # fetch books no request.
        site = build_site("ohio")
        fetcher = ResilientFetcher(site)
        url = site.truth[0].rows[0].detail_url
        page = fetcher.fetch(url)
        assert fetcher.health.requests == 1
        assert fetcher.try_fetch(url) is page
        assert fetcher.health.requests == 1

    def test_reset_clears_negative_cache(self):
        # A re-crawl builds a new fetcher, which requests a URL an
        # earlier fetcher gave up on.
        site = build_site("ohio")
        first = ResilientFetcher(site)
        assert first.try_fetch("missing.html") is None
        second = ResilientFetcher(site)
        assert second.try_fetch("missing.html") is None
        assert second.health.requests == 1
        assert second.health.gaps == {"missing.html": GAP_PERMANENT}

    def test_negative_max_age_expires_entries(self, tmp_path):
        # A page that appears between two crawls is fetched by the
        # second one, not remembered as dead.
        (tmp_path / "index.html").write_text(
            '<a href="late.html">late</a>', encoding="utf-8"
        )
        before = fetch_crawl(DirectorySite(tmp_path), ["index.html"])
        assert before.health.gaps == {"late.html": GAP_PERMANENT}
        (tmp_path / "late.html").write_text("<p>here</p>", encoding="utf-8")
        after = fetch_crawl(DirectorySite(tmp_path), ["index.html"])
        assert [page.url for page in after.pages] == [
            "index.html",
            "late.html",
        ]
        assert after.health.gaps == {}


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
        result = Crawler(ResilientFetcher(site)).try_collect(
            _list_page_linking(mixed)
        )
        assert [p.url for p in result.detail_pages] == [p.url for p in details]
        assert [p.url for p in result.other_pages] == ["ohio-ad0.html"]

    def test_empty_input(self):
        site = build_site("ohio")
        result = Crawler(ResilientFetcher(site)).try_collect(
            _list_page_linking([])
        )
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
        result = Crawler(ResilientFetcher(site)).try_collect(
            site.list_pages[0]
        )
        assert result.detail_pages and result.other_pages
        assert calls == []

    def test_ads_classified_as_other(self):
        site = build_site("ohio")
        crawl = crawl_site(site)
        other_urls = {p.url for p in crawl.results[0].other_pages}
        assert "ohio-ad0.html" in other_urls

    def test_unfetchable_page_raises(self):
        # Discovery rejects a chain whose only page links to nothing
        # fetchable, and with no other chain it raises.
        site = build_site("ohio")
        site._by_url["lonely-index.html"] = Page(
            "lonely-index.html", '<a href="lonely-list.html">results</a>'
        )
        site._by_url["lonely-list.html"] = Page(
            "lonely-list.html", '<a href="gone.html">only dead link</a>'
        )
        with pytest.raises(CrawlError):
            discover_site(ResilientFetcher(site), "lonely-index.html")

    def test_try_collect_records_failure_instead_of_raising(self):
        site = build_site("ohio")
        crawler = Crawler(ResilientFetcher(site))
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
