"""Golden traces: the pipeline's observable behaviour, pinned per case.

``tests/data/pipeline_trace_golden.json`` holds one digest per
(site, method, mode) case.  A digest covers everything a run shows
the outside world under a ``ManualClock(tick=1.0)``:

* the span tree — names, nesting, attributes, and each span's start
  and end (the tick charges every clock read, so the order of reads
  is pinned too);
* the metrics registry's counters;
* per page: URL, rendered records, segmentation meta and the
  ``PageRun.elapsed`` reading;
* the crawl-health fallback ledger;
* the stage cache's hit and miss counts.

The modes are the ways a driver enters the pipeline: no cache, a
``crawl_health`` report (which disables caching), one surviving list
page, and a cold then a warm on-disk ``StageCache`` with every page's
token stream bound to it, as a batch worker does.

Floats inside the meta are rounded to nine decimals before hashing, so
the digests do not depend on the last bits of a numpy reduction.

Re-record (only for an intended change of behaviour, and say so)::

    PYTHONPATH=src python tests/test_pipeline_trace_golden.py \
        > tests/data/pipeline_trace_golden.json
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Any

import pytest

from repro.core.pipeline import SegmentationPipeline, bind_token_cache
from repro.crawl.resilient import CrawlHealth
from repro.obs import ManualClock, Observability, Span
from repro.runner.cache import StageCache, fingerprint
from repro.sitegen.corpus import build_site

GOLDEN_PATH = Path(__file__).parent / "data" / "pipeline_trace_golden.json"

SITES = ("lee", "michigan")
METHODS = ("csp", "prob")
MODES = ("uncached", "crawl_health", "one_list_page", "cold_cache", "warm_cache")


def _rounded(value: Any) -> Any:
    """``value`` with every float rounded to nine decimals."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def _span(span: Span) -> tuple:
    return (
        span.name,
        span.start,
        span.end,
        _rounded(span.attributes),
        [_span(child) for child in span.children],
    )


def _run(site_name: str, method: str, mode: str, cache_dir: Path) -> dict:
    """One case's observable outcome, as plain data."""
    site = build_site(site_name)
    list_pages = site.list_pages
    details = [site.detail_pages(i) for i in range(len(list_pages))]
    health = CrawlHealth() if mode in ("crawl_health", "one_list_page") else None
    if mode == "one_list_page":
        list_pages, details = list_pages[:1], details[:1]
    cache = None
    if mode in ("cold_cache", "warm_cache"):
        if mode == "warm_cache":
            SegmentationPipeline(method, cache=StageCache(cache_dir)).segment_site(
                *_fresh(site_name)
            )
        cache = StageCache(cache_dir)
        bind_token_cache(
            list_pages + [page for group in details for page in group], cache
        )
    obs = Observability(clock=ManualClock(tick=1.0))
    run = SegmentationPipeline(method, obs=obs, cache=cache).segment_site(
        list_pages, details, crawl_health=health
    )
    return {
        "spans": [_span(root) for root in obs.tracer.roots],
        "counters": obs.metrics.as_dict()["counters"],
        "pages": [
            (
                page_run.page.url,
                [str(record) for record in page_run.segmentation.records],
                _rounded(page_run.segmentation.meta),
                page_run.elapsed,
            )
            for page_run in run.pages
        ],
        "fallbacks": list(health.fallbacks) if health is not None else None,
        "cache": (
            (cache.stats.hits, cache.stats.misses) if cache is not None else None
        ),
    }


def _fresh(site_name: str) -> tuple[list, list]:
    """A site's pages as new objects (no token stream bound yet)."""
    site = build_site(site_name)
    return site.list_pages, [
        site.detail_pages(i) for i in range(len(site.list_pages))
    ]


def case_digest(site_name: str, method: str, mode: str) -> str:
    with tempfile.TemporaryDirectory() as cache_dir:
        return fingerprint(_run(site_name, method, mode, Path(cache_dir)))


CASES = [
    (site_name, method, mode)
    for site_name in SITES
    for method in METHODS
    for mode in MODES
]


@pytest.mark.parametrize(
    "site_name, method, mode", CASES, ids=["-".join(case) for case in CASES]
)
def test_trace_matches_golden(site_name: str, method: str, mode: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())["cases"]
    assert case_digest(site_name, method, mode) == golden[
        f"{site_name}/{method}/{mode}"
    ]


def test_golden_covers_every_case() -> None:
    golden = json.loads(GOLDEN_PATH.read_text())["cases"]
    assert set(golden) == {"/".join(case) for case in CASES}


if __name__ == "__main__":
    json.dump(
        {
            "note": (
                "Pipeline trace digests per site/method/mode; see "
                "tests/test_pipeline_trace_golden.py for what they cover "
                "and how to re-record."
            ),
            "cases": {
                "/".join(case): case_digest(*case) for case in CASES
            },
        },
        sys.stdout,
        indent=2,
    )
    sys.stdout.write("\n")
