"""Tests for the resilient retrieval layer and chaos pipeline runs."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ConfigError, FetchError
from repro.core.pipeline import SegmentationPipeline
from repro.crawl.crawler import crawl_site
from repro.crawl.resilient import (
    GAP_BUDGET,
    GAP_CIRCUIT_OPEN,
    GAP_PERMANENT,
    GAP_RETRIES_EXHAUSTED,
    CircuitBreaker,
    CrawlBudget,
    CrawlHealth,
    ResilientFetcher,
    RetryPolicy,
    url_class,
)
from repro.sitegen.corpus import build_site
from repro.sitegen.faults import FaultPlan, FaultyTransport


class TestUrlClass:
    def test_digit_runs_collapse(self):
        assert url_class("ohio-p0-detail7.html") == "ohio-p#-detail#.html"
        assert url_class("ohio-p1-detail12.html") == "ohio-p#-detail#.html"

    def test_distinct_shapes_stay_distinct(self):
        assert url_class("ohio-ad0.html") != url_class("ohio-p0-detail0.html")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=1.0, multiplier=2.0, max_delay_s=3.0, jitter=0.0
        )
        delays = [policy.delay_before("u", attempt) for attempt in (2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 3.0, 3.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.25, seed=3)
        first = policy.delay_before("a.html", 2)
        assert first == policy.delay_before("a.html", 2)
        assert 0.75 <= first <= 1.25
        assert first != policy.delay_before("b.html", 2)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        cls = "x-#.html"
        for _ in range(3):
            assert breaker.allows(cls, now=0.0)
            breaker.record_failure(cls, now=0.0)
        assert breaker.trips == 1
        assert not breaker.allows(cls, now=5.0)
        # Half-open probe after cooldown; success closes the circuit.
        assert breaker.allows(cls, now=10.0)
        breaker.record_success(cls)
        assert breaker.allows(cls, now=10.0)

    def test_success_resets_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("c", now=0.0)
        breaker.record_success("c")
        breaker.record_failure("c", now=0.0)
        assert breaker.allows("c", now=0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(failure_threshold=0)


class TestCrawlBudget:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CrawlBudget(max_requests=0)
        with pytest.raises(ConfigError):
            CrawlBudget(deadline_s=0.0)


class TestResilientFetcher:
    def test_transient_failures_are_retried_to_success(self):
        site = build_site("ohio")
        transport = FaultyTransport(site, FaultPlan(seed=1, transient_rate=1.0))
        fetcher = ResilientFetcher(transport, retry=RetryPolicy(max_attempts=4))
        url = site.truth[0].rows[0].detail_url
        page = fetcher.try_fetch(url)
        assert page is not None and page.url == url
        assert fetcher.health.recovered == 1
        assert fetcher.health.retries >= 1
        assert fetcher.health.gaps == {}

    def test_retry_exhaustion_becomes_gap(self):
        site = build_site("ohio")
        transport = FaultyTransport(
            site,
            FaultPlan(seed=1, transient_rate=1.0, max_transient_failures=5),
        )
        fetcher = ResilientFetcher(transport, retry=RetryPolicy(max_attempts=2))
        # Find a URL that fails more times than the retry policy allows.
        url = next(
            u
            for u in site.urls()
            if transport.plan.failures_before_recovery(u) >= 2
        )
        assert fetcher.try_fetch(url) is None
        assert fetcher.health.gaps[url] == GAP_RETRIES_EXHAUSTED

    def test_permanent_failure_not_retried(self):
        site = build_site("ohio")
        transport = FaultyTransport(site, FaultPlan(seed=1, permanent_rate=1.0))
        fetcher = ResilientFetcher(transport)
        url = site.truth[0].rows[0].detail_url
        assert fetcher.try_fetch(url) is None
        assert fetcher.health.gaps[url] == GAP_PERMANENT
        assert fetcher.health.requests == 1  # no retry spent on a 404

    def test_request_budget_stops_crawl(self):
        site = build_site("ohio")
        fetcher = ResilientFetcher(site, budget=CrawlBudget(max_requests=2))
        urls = [row.detail_url for row in site.truth[0].rows[:4]]
        pages = [fetcher.try_fetch(u) for u in urls]
        assert pages[0] is not None and pages[1] is not None
        assert pages[2] is None and pages[3] is None
        assert fetcher.health.budget_exhausted
        assert fetcher.health.gaps[urls[2]] == GAP_BUDGET

    def test_deadline_counts_simulated_latency(self):
        site = build_site("ohio")
        transport = FaultyTransport(
            site, FaultPlan(seed=2, latency_rate=1.0, latency_s=1.0)
        )
        fetcher = ResilientFetcher(
            transport, budget=CrawlBudget(deadline_s=2.5)
        )
        urls = [row.detail_url for row in site.truth[0].rows[:4]]
        obtained = [fetcher.try_fetch(u) for u in urls]
        assert sum(page is not None for page in obtained) < len(urls)
        assert fetcher.health.budget_exhausted
        assert fetcher.clock >= 2.5

    def test_cached_pages_cost_nothing(self):
        site = build_site("ohio")
        fetcher = ResilientFetcher(site, budget=CrawlBudget(max_requests=1))
        url = site.truth[0].rows[0].detail_url
        assert fetcher.try_fetch(url) is not None
        before = fetcher.health.requests
        assert fetcher.try_fetch(url) is not None  # budget already spent
        assert fetcher.health.requests == before

    def test_circuit_breaker_sheds_failing_class(self):
        site = build_site("ohio")
        transport = FaultyTransport(site, FaultPlan(seed=1, permanent_rate=1.0))
        fetcher = ResilientFetcher(
            transport, breaker=CircuitBreaker(failure_threshold=2, cooldown_s=99.0)
        )
        urls = [row.detail_url for row in site.truth[0].rows[:4]]
        for url in urls:
            assert fetcher.try_fetch(url) is None
        reasons = [fetcher.health.gaps[u] for u in urls]
        assert reasons[:2] == [GAP_PERMANENT, GAP_PERMANENT]
        assert reasons[2:] == [GAP_CIRCUIT_OPEN, GAP_CIRCUIT_OPEN]
        assert fetcher.health.breaker_trips >= 1
        # Only the failing class is shed; other URL shapes still fetch.
        assert fetcher.health.requests == 2

    def test_strict_fetch_raises_with_reason(self):
        site = build_site("ohio")
        transport = FaultyTransport(site, FaultPlan(seed=1, permanent_rate=1.0))
        fetcher = ResilientFetcher(transport)
        with pytest.raises(FetchError, match=GAP_PERMANENT):
            fetcher.fetch(site.truth[0].rows[0].detail_url)


class TestCrawlSite:
    def test_pristine_crawl_matches_truth(self):
        site = build_site("ohio")
        crawl = crawl_site(site)
        assert [p.url for p in crawl.list_pages] == [
            p.url for p in site.list_pages
        ]
        for index, details in enumerate(crawl.detail_pages_per_list):
            expected = [p.url for p in site.detail_pages(index)]
            assert [p.url for p in details] == expected
        assert crawl.health.quarantined_pages == []
        assert crawl.health.retries == 0

    def test_health_is_reproducible(self):
        plan = FaultPlan(seed=42, transient_rate=0.3)
        first = crawl_site(build_site("ohio"), fault_plan=plan)
        second = crawl_site(build_site("ohio"), fault_plan=plan)
        assert first.health.as_dict() == second.health.as_dict()
        assert first.health.retries > 0

    def test_budget_starved_pages_quarantined_not_fatal(self):
        crawl = crawl_site(
            build_site("ohio"), budget=CrawlBudget(max_requests=3)
        )
        assert len(crawl.results) == 2  # both pages attempted
        assert crawl.health.budget_exhausted
        assert len(crawl.list_pages) < 2
        assert crawl.health.quarantined_pages  # starved page recorded


class TestChaosPipeline:
    def test_acceptance_30_percent_transient(self):
        """ISSUE acceptance: 30% transient faults, default corpus site.

        The run must complete, recover >= 90% of transiently failing
        pages, and produce an exactly reproducible CrawlHealth.
        """
        plan = FaultPlan(seed=42, transient_rate=0.3)

        def run():
            pipeline = SegmentationPipeline("prob")
            return pipeline.segment_generated_site(
                build_site("ohio"), fault_plan=plan
            )

        first, second = run(), run()
        assert first.crawl_health is not None
        assert first.crawl_health.recovery_rate >= 0.9
        assert first.crawl_health.as_dict() == second.crawl_health.as_dict()
        assert len(first.pages) == 2
        for page_run in first.pages:
            assert page_run.segmentation.meta["crawl"]["retries"] > 0

    def test_pristine_run_has_no_health(self):
        run = SegmentationPipeline("prob").segment_generated_site(
            build_site("butler")
        )
        assert run.crawl_health is None

    def test_heavy_permanent_faults_degrade_gracefully(self):
        # Kill enough pages that sample completeness suffers; the
        # pipeline must still return a SiteRun without raising.
        plan = FaultPlan(seed=7, permanent_rate=0.5)
        run = SegmentationPipeline("prob").segment_generated_site(
            build_site("ohio"), fault_plan=plan
        )
        assert run.crawl_health is not None
        assert run.crawl_health.gap_count > 0

    def test_single_surviving_list_page_whole_page_fallback(self):
        site = build_site("butler")
        health = CrawlHealth()
        run = SegmentationPipeline("prob").segment_site(
            [site.list_pages[0]],
            [site.detail_pages(0)],
            crawl_health=health,
        )
        assert run.whole_page_fallback
        assert "single_list_page" in health.fallbacks
        assert len(run.pages) == 1
        assert run.pages[0].segmentation.record_count > 0

    def test_empty_sample_yields_empty_run(self):
        health = CrawlHealth()
        run = SegmentationPipeline("prob").segment_site([], [], crawl_health=health)
        assert run.pages == []
        assert run.whole_page_fallback
        assert "empty_sample" in health.fallbacks
