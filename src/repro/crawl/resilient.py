"""Resilient retrieval: caching, retries, budgets, circuit breaking, health.

:class:`ResilientFetcher` is the crawl layer's one fetcher: URL in,
:class:`~repro.webdoc.page.Page` out, over any page source with
``fetch(url) -> Page``.  It adds the defenses a real crawl needs and
the accounting a real evaluation wants:

* **a page cache and a negative cache**: a fetched page is kept and
  handed back for free, and the gap ledger of :class:`CrawlHealth` is
  the negative cache — a URL given up on is never requested again by
  the same fetcher (a re-crawl builds a new fetcher);
* **retry with exponential backoff + jitter** for transient failures
  (:class:`RetryPolicy`); all delays are *simulated* — charged to a
  deterministic clock, never slept — so chaos runs are fast and
  exactly reproducible;
* **per-site budgets** (:class:`CrawlBudget`): a request ceiling and a
  simulated deadline, after which remaining URLs become recorded gaps
  instead of work;
* **a circuit breaker per URL-class** (:class:`CircuitBreaker`): after
  enough consecutive failures among URLs of one shape
  (``site-p#-detail#.html``), further fetches of that shape fail fast
  until a cooldown elapses, protecting the budget from a dead server
  section;
* **a structured health report** (:class:`CrawlHealth`): every retry,
  recovery, gap (with its reason) and degradation step, so downstream
  evaluation can condition segmentation accuracy on crawl
  completeness.

Nothing here raises on failure: a URL that cannot be obtained within
policy becomes ``None`` plus a health entry, and the pipeline carries
on with what it got — the degradation ladder described in
``docs/robustness.md``.

When an :class:`~repro.obs.Observability` bundle is active, every
request / retry / recovery / gap is also mirrored into ``crawl.*``
counters, and :func:`~repro.crawl.crawler.crawl_site` links the whole
crawl to a ``crawl.site`` span whose attributes summarize the final
:class:`CrawlHealth` — see ``docs/observability.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.core.exceptions import ConfigError, FetchError, TransientFetchError
from repro.obs import Observability, current as current_obs
from repro.sitegen.faults import stable_unit
from repro.webdoc.page import Page

__all__ = [
    "RetryPolicy",
    "CrawlBudget",
    "CircuitBreaker",
    "CrawlHealth",
    "ResilientFetcher",
    "url_class",
]

#: Gap reasons recorded in :class:`CrawlHealth`.
GAP_PERMANENT = "permanent"
GAP_RETRIES_EXHAUSTED = "retries_exhausted"
GAP_CIRCUIT_OPEN = "circuit_open"
GAP_BUDGET = "budget_exhausted"

#: Base simulated cost of one attempt, before the transport's per-URL
#: latency is added.
REQUEST_COST_S = 0.01


def url_class(url: str) -> str:
    """The URL's shape class: digit runs collapsed to ``#``.

    ``ohio-p0-detail7.html`` and ``ohio-p1-detail3.html`` share the
    class ``ohio-p#-detail#.html`` — pages served by the same endpoint,
    which is the granularity at which servers break.
    """
    return re.sub(r"\d+", "#", url)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: total tries per URL (first attempt included).
        base_delay_s: simulated delay before the first retry.
        multiplier: backoff growth factor per retry.
        max_delay_s: backoff ceiling.
        jitter: +/- fraction of the delay drawn deterministically from
            ``(seed, url, attempt)`` — de-synchronizes retries the way
            random jitter would, without sacrificing reproducibility.
        seed: jitter seed.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.1
    multiplier: float = 2.0
    max_delay_s: float = 5.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must lie in [0, 1]")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.multiplier < 1:
            raise ConfigError("delays must be >= 0 and multiplier >= 1")

    def delay_before(self, url: str, attempt: int) -> float:
        """Simulated backoff before retry ``attempt`` (2-based) of ``url``."""
        exponent = max(0, attempt - 2)
        delay = min(self.base_delay_s * self.multiplier**exponent, self.max_delay_s)
        if self.jitter == 0.0:
            return delay
        draw = stable_unit(f"{self.seed}:{url}:{attempt}")
        return delay * (1.0 - self.jitter + 2.0 * self.jitter * draw)


@dataclass(frozen=True)
class CrawlBudget:
    """Per-site spending limits, in requests and simulated seconds.

    Attributes:
        max_requests: fetch-attempt ceiling (None = unlimited).
        deadline_s: simulated wall-clock ceiling (None = unlimited).
    """

    max_requests: int | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_requests is not None and self.max_requests < 1:
            raise ConfigError("max_requests must be >= 1 (or None)")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError("deadline_s must be > 0 (or None)")


@dataclass
class _BreakerState:
    consecutive_failures: int = 0
    open_until: float = 0.0
    is_open: bool = False


class CircuitBreaker:
    """Fail-fast switch per URL-class.

    After ``failure_threshold`` consecutive failures within one class,
    the class opens: fetches are refused without touching the wire
    until ``cooldown_s`` of simulated time passes, then one probe is
    allowed through (half-open); its outcome closes or re-opens the
    circuit.
    """

    def __init__(
        self, failure_threshold: int = 5, cooldown_s: float = 30.0
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.trips = 0
        self._states: dict[str, _BreakerState] = {}

    def _state(self, cls: str) -> _BreakerState:
        return self._states.setdefault(cls, _BreakerState())

    def allows(self, cls: str, now: float) -> bool:
        """May a fetch of class ``cls`` proceed at simulated time ``now``?"""
        state = self._state(cls)
        if not state.is_open:
            return True
        if now >= state.open_until:
            # Half-open: let one probe through; record_* decides fate.
            return True
        return False

    def record_success(self, cls: str) -> None:
        state = self._state(cls)
        state.consecutive_failures = 0
        state.is_open = False

    def record_failure(self, cls: str, now: float) -> None:
        state = self._state(cls)
        state.consecutive_failures += 1
        if state.consecutive_failures >= self.failure_threshold:
            if not state.is_open or now >= state.open_until:
                self.trips += 1
            state.is_open = True
            state.open_until = now + self.cooldown_s


@dataclass
class CrawlHealth:
    """Structured account of how a crawl went.

    Attached to :class:`~repro.core.pipeline.SiteRun` (and, summarized,
    to each ``Segmentation.meta``) so evaluation can condition accuracy
    on crawl completeness.

    Attributes:
        requests: fetch attempts that reached the transport.
        retries: attempts beyond the first, per URL, summed.
        recovered: URLs obtained after at least one transient failure.
        transient_failures: transient errors observed in total.
        gaps: URL -> gap reason, for every URL given up on.
        quarantined_pages: list-page URLs dropped from the sample
            because their crawl degenerated (no fetchable links).
        fallbacks: degradation steps the pipeline took, in order
            (e.g. ``"whole_page_template"``, ``"single_list_page"``).
        breaker_trips: circuit-breaker activations.
        budget_exhausted: a budget limit stopped the crawl early.
        simulated_elapsed_s: total simulated time spent (request costs,
            injected latency, backoff delays).
    """

    requests: int = 0
    retries: int = 0
    recovered: int = 0
    transient_failures: int = 0
    gaps: dict[str, str] = field(default_factory=dict)
    quarantined_pages: list[str] = field(default_factory=list)
    fallbacks: list[str] = field(default_factory=list)
    breaker_trips: int = 0
    budget_exhausted: bool = False
    simulated_elapsed_s: float = 0.0

    @property
    def gap_count(self) -> int:
        return len(self.gaps)

    @property
    def recovery_rate(self) -> float:
        """Fraction of transiently-failing URLs eventually obtained."""
        attempted = self.recovered + sum(
            1 for reason in self.gaps.values() if reason == GAP_RETRIES_EXHAUSTED
        )
        return self.recovered / attempted if attempted else 1.0

    def record_gap(self, url: str, reason: str) -> None:
        self.gaps[url] = reason

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (stable key order, gaps sorted by URL)."""
        return {
            "requests": self.requests,
            "retries": self.retries,
            "recovered": self.recovered,
            "transient_failures": self.transient_failures,
            "gap_count": self.gap_count,
            "gaps": dict(sorted(self.gaps.items())),
            "quarantined_pages": list(self.quarantined_pages),
            "fallbacks": list(self.fallbacks),
            "breaker_trips": self.breaker_trips,
            "budget_exhausted": self.budget_exhausted,
            "recovery_rate": round(self.recovery_rate, 4),
            "simulated_elapsed_s": round(self.simulated_elapsed_s, 4),
        }

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"requests={self.requests} retries={self.retries} "
            f"recovered={self.recovered} gaps={self.gap_count} "
            f"quarantined={len(self.quarantined_pages)} "
            f"trips={self.breaker_trips} "
            f"budget_exhausted={self.budget_exhausted}"
        )


class ResilientFetcher:
    """A caching fetcher that survives a hostile transport.

    ``try_fetch`` never raises: it answers fetched pages from its
    cache, retries transient failures with backoff, respects the
    request/deadline budget, fails fast on open circuits, and books
    everything into :attr:`health`.  A URL in the health's gap ledger
    is answered ``None`` without a request.

    Args:
        site: page source (``fetch(url) -> Page``) — a
            :class:`~repro.sitegen.site.GeneratedSite`, a
            :class:`~repro.crawl.fetcher.DirectorySite`, or a
            :class:`~repro.sitegen.faults.FaultyTransport` wrapping
            one.  If it exposes ``latency_of(url)``, that simulated
            latency is charged against the deadline budget.
        retry: retry/backoff policy.
        budget: per-site spending limits.
        breaker: circuit breaker (one is created if omitted).
        obs: observability bundle; every request, retry, recovery and
            gap is mirrored into ``crawl.*`` counters alongside the
            :class:`CrawlHealth` bookkeeping (defaults to the
            installed bundle, a no-op unless one is active).
    """

    def __init__(
        self,
        site,
        retry: RetryPolicy | None = None,
        budget: CrawlBudget | None = None,
        breaker: CircuitBreaker | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.site = site
        self.retry = retry or RetryPolicy()
        self.budget = budget or CrawlBudget()
        self.breaker = breaker or CircuitBreaker()
        self.health = CrawlHealth()
        self.obs = obs if obs is not None else current_obs()
        self.clock = 0.0  #: simulated seconds elapsed
        self._pages: dict[str, Page] = {}

    # -- internals -----------------------------------------------------------

    def _latency_of(self, url: str) -> float:
        latency = getattr(self.site, "latency_of", None)
        return latency(url) if latency is not None else 0.0

    def _budget_allows(self) -> bool:
        budget = self.budget
        if budget.max_requests is not None and (
            self.health.requests >= budget.max_requests
        ):
            return False
        if budget.deadline_s is not None and self.clock >= budget.deadline_s:
            return False
        return True

    def _spend(self, seconds: float) -> None:
        self.clock += seconds
        self.health.simulated_elapsed_s = self.clock

    # -- public API ----------------------------------------------------------

    def try_fetch(self, url: str) -> Page | None:
        """Fetch ``url`` within policy; ``None`` plus a health entry on
        failure.  Never raises."""
        # Cache hits are free: no budget, breaker or accounting impact.
        cached = self._pages.get(url)
        if cached is not None:
            return cached
        if url in self.health.gaps:
            return None

        cls = url_class(url)
        gaps = self.obs.counter("crawl.gaps")
        had_transient = False
        for attempt in range(1, self.retry.max_attempts + 1):
            if not self._budget_allows():
                self.health.budget_exhausted = True
                self.health.record_gap(url, GAP_BUDGET)
                gaps.inc()
                return None
            if not self.breaker.allows(cls, self.clock):
                self.health.record_gap(url, GAP_CIRCUIT_OPEN)
                gaps.inc()
                return None
            if attempt > 1:
                self._spend(self.retry.delay_before(url, attempt))
                self.health.retries += 1
                self.obs.counter("crawl.retries").inc()

            self.health.requests += 1
            self.obs.counter("crawl.requests").inc()
            self._spend(REQUEST_COST_S + self._latency_of(url))
            try:
                page = self.site.fetch(url)
            except TransientFetchError:
                had_transient = True
                self.health.transient_failures += 1
                self.obs.counter("crawl.transient_failures").inc()
                self.breaker.record_failure(cls, self.clock)
                self.health.breaker_trips = self.breaker.trips
                continue
            except FetchError:
                self.breaker.record_failure(cls, self.clock)
                self.health.breaker_trips = self.breaker.trips
                self.health.record_gap(url, GAP_PERMANENT)
                gaps.inc()
                return None
            self.breaker.record_success(cls)
            self._pages[url] = page
            if had_transient:
                self.health.recovered += 1
                self.obs.counter("crawl.recovered").inc()
            return page

        self.health.record_gap(url, GAP_RETRIES_EXHAUSTED)
        gaps.inc()
        return None

    def fetch(self, url: str) -> Page:
        """Strict variant of :meth:`try_fetch`.

        Raises:
            FetchError: the URL could not be obtained within policy
                (the gap reason is in the message).
        """
        page = self.try_fetch(url)
        if page is None:
            reason = self.health.gaps.get(url, GAP_PERMANENT)
            raise FetchError(f"gave up on {url!r}: {reason}")
        return page
