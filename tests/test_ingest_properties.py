"""Property tests of ingest over small seeded mixed crawls.

Each example draws a crawl from :class:`MixedCorpusSpec` (3–6 slots,
seeds 1–8) and checks the invariants the crawl lifecycle rests on:

* every page is accounted for once: bundled + quarantined == pages;
* the bundle map and the quarantined ``(url, reason)`` pairs do not
  depend on the crawl order;
* incremental re-ingest, chained over generations 1 and 2 through
  :func:`write_reingest`, equals a full ingest of the same generation;
* after every write, the sample directories under ``--out`` are
  exactly the bundles its manifest lists.
"""

from __future__ import annotations

import json
import tempfile
from functools import cache
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ingest import (
    ingest_pages,
    load_previous_manifest,
    reingest_pages,
    write_bundles,
    write_reingest,
)
from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus
from repro.webdoc.page import Page

SLOTS = st.integers(3, 6)
SEEDS = st.integers(1, 8)
SETTINGS = settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.too_slow],
)


@cache
def crawl(slots: int, seed: int, generation: int = 0) -> tuple[Page, ...]:
    spec = MixedCorpusSpec(sites=slots, seed=seed, generation=generation)
    return tuple(build_mixed_corpus(spec).pages)


def outcome(summary: dict) -> tuple[list, set]:
    """(sorted bundle entries as (name, pages), quarantined (url, reason))."""
    bundles = sorted((entry["name"], entry["pages"]) for entry in summary["bundles"])
    quarantine = {(item["url"], item["reason"]) for item in summary["quarantine"]}
    return bundles, quarantine


def on_disk(out: Path) -> list[str]:
    return sorted(path.parent.name for path in out.glob("*/sample.json"))


def listed(manifest: Path) -> list[str]:
    entries = json.loads(manifest.read_text(encoding="utf-8"))["bundles"]
    return sorted(entry["name"] for entry in entries)


@given(slots=SLOTS, seed=SEEDS, data=st.data())
@SETTINGS
def test_every_page_accounted_for_in_any_crawl_order(slots, seed, data):
    pages = list(crawl(slots, seed))
    shuffled = data.draw(st.permutations(pages), label="crawl order")
    report = ingest_pages(pages)
    again = ingest_pages(shuffled)
    for run in (report, again):
        assert run.reconciles()
        summary = run.as_dict()
        accounted = [url for entry in summary["bundles"] for url in entry["pages"]]
        accounted += [item["url"] for item in summary["quarantine"]]
        assert sorted(accounted) == sorted(page.url for page in pages)
    assert outcome(again.as_dict()) == outcome(report.as_dict())


@given(slots=SLOTS, seed=SEEDS)
@SETTINGS
def test_chained_reingest_equals_full_ingest(slots, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bundles"
        manifest = write_bundles(ingest_pages(list(crawl(slots, seed))), out)
        assert on_disk(out) == listed(manifest)
        for generation in (1, 2):
            pages = list(crawl(slots, seed, generation))
            incremental = reingest_pages(pages, load_previous_manifest(out))
            manifest = write_reingest(incremental, out)
            assert incremental.reconciles()
            full = ingest_pages(pages)
            assert outcome(incremental.as_dict()) == outcome(full.as_dict())
            assert on_disk(out) == listed(manifest)
