"""Tests for the live crawl lifecycle (fetch -> diff -> invalidate).

Covers the three new layers end to end: fetch-driven ingestion over a
:class:`~repro.crawl.fetcher.DirectorySite` (resilient fetcher, crawl
snapshots with a round-trippable ``crawl.json`` manifest), incremental
re-ingest (fingerprint diff, carried-bundle byte identity, stale-bundle
blast radius), and cross-layer invalidation (relational store rows and
cached wrappers for stale sites provably gone).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.exceptions import FetchError
from repro.crawl.fetcher import DirectorySite
from repro.crawl.resilient import GAP_BUDGET, GAP_PERMANENT, CrawlBudget
from repro.ingest import (
    CRAWL_SNAPSHOT_NAME,
    diff_fingerprints,
    fetch_crawl,
    ingest_pages,
    load_previous_manifest,
    page_fingerprint,
    plan_reingest,
    reingest_pages,
    write_bundles,
    write_reingest,
    write_snapshot,
)
from repro.ingest.bundle import INGEST_MANIFEST_NAME, SiteBundle, _write_generation
from repro.lifecycle import invalidate_consumers
from repro.obs import Observability
from repro.sitegen.corpus import build_site
from repro.sitegen.mixed import (
    MixedCorpusSpec,
    build_mixed_corpus,
    load_crawl_pages,
)
from repro.webdoc.page import Page


class TestDirectorySite:
    @pytest.fixture()
    def site_dir(self, tmp_path):
        (tmp_path / "a.html").write_text("<html>A</html>", encoding="utf-8")
        (tmp_path / "b.html").write_text("<html>B</html>", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not html", encoding="utf-8")
        return tmp_path

    def test_serves_pages(self, site_dir):
        site = DirectorySite(site_dir)
        page = site.fetch("a.html")
        assert page.url == "a.html"
        assert page.html == "<html>A</html>"

    def test_urls_sorted_html_only(self, site_dir):
        assert DirectorySite(site_dir).urls() == ["a.html", "b.html"]

    def test_missing_page_is_fetch_error(self, site_dir):
        with pytest.raises(FetchError):
            DirectorySite(site_dir).fetch("missing.html")

    @pytest.mark.parametrize(
        "url",
        ["", "  ", "../a.html", "sub/a.html", ".hidden.html", "notes.txt"],
    )
    def test_unsafe_urls_rejected(self, site_dir, url):
        with pytest.raises(FetchError):
            DirectorySite(site_dir).fetch(url)


class TestFetchCrawl:
    def test_walks_generated_site_from_seed(self):
        site = build_site("ohio")
        crawl = fetch_crawl(site, ["ohio-index.html"])
        assert crawl.seeds == ("ohio-index.html",)
        assert crawl.page_count > 10
        # BFS: the seed is the first fetched page.
        assert crawl.pages[0].url == "ohio-index.html"
        # Every fetched page has a content fingerprint.
        assert set(crawl.fingerprints) == {p.url for p in crawl.pages}
        for page in crawl.pages:
            assert crawl.fingerprints[page.url] == page_fingerprint(
                page.html
            )

    def test_dead_links_become_gaps_not_exceptions(self):
        crawl = fetch_crawl(build_site("ohio"), ["ohio-index.html"])
        # Generated sites carry dead decoy links (e.g. form actions).
        assert crawl.health.gap_count > 0
        gap_urls = set(crawl.health.gaps)
        assert gap_urls.isdisjoint({p.url for p in crawl.pages})

    def test_unreachable_seed_yields_empty_crawl(self, tmp_path):
        crawl = fetch_crawl(DirectorySite(tmp_path), ["nope.html"])
        assert crawl.pages == []
        assert crawl.health.gap_count == 1

    def test_page_that_is_not_utf8_is_a_permanent_gap(self, tmp_path):
        (tmp_path / "a.html").write_text('<a href="b.html">b</a>')
        (tmp_path / "b.html").write_bytes(b"<p>caf\xe9</p>")
        crawl = fetch_crawl(DirectorySite(tmp_path), ["a.html"])
        assert [page.url for page in crawl.pages] == ["a.html"]
        assert crawl.health.gaps == {"b.html": GAP_PERMANENT}

    def test_max_pages_caps_discovery(self):
        # The request budget caps the crawl: the frontier left when it
        # runs out is recorded as budget gaps, not fetched.
        crawl = fetch_crawl(
            build_site("ohio"),
            ["ohio-index.html"],
            budget=CrawlBudget(max_requests=3),
        )
        assert crawl.health.requests == 3
        assert crawl.health.budget_exhausted is True
        assert crawl.page_count == 2
        budget_gaps = [
            url
            for url, reason in crawl.health.gaps.items()
            if reason == GAP_BUDGET
        ]
        assert len(budget_gaps) == 16

    def test_counters_booked(self):
        obs = Observability()
        crawl = fetch_crawl(build_site("ohio"), ["ohio-index.html"], obs=obs)
        counters = obs.metrics.as_dict()["counters"]
        assert counters["ingest.fetch.pages"] == crawl.page_count
        assert counters["ingest.fetch.gaps"] == crawl.health.gap_count


class TestSnapshotRoundTrip:
    def test_order_fingerprints_and_health_survive(self, tmp_path):
        crawl = fetch_crawl(build_site("ohio"), ["ohio-index.html"])
        manifest = write_snapshot(crawl, tmp_path / "snap")
        assert manifest.name == CRAWL_SNAPSHOT_NAME

        loaded = load_crawl_pages(tmp_path / "snap")
        assert [p.url for p in loaded] == [p.url for p in crawl.pages]
        assert [p.html for p in loaded] == [p.html for p in crawl.pages]
        recorded = json.loads(manifest.read_text(encoding="utf-8"))
        assert tuple(recorded["seeds"]) == crawl.seeds
        assert recorded["fingerprints"] == crawl.fingerprints
        assert recorded["crawl_health"] == crawl.health.as_dict()

    def test_manifest_is_deterministic_lf_only(self, tmp_path):
        crawl = fetch_crawl(build_site("ohio"), ["ohio-index.html"])
        first = write_snapshot(crawl, tmp_path / "one").read_bytes()
        second = write_snapshot(crawl, tmp_path / "two").read_bytes()
        assert first == second
        assert b"\r" not in first

    def test_snapshot_feeds_directory_site(self, tmp_path):
        # A snapshot is itself fetchable: replaying it through a
        # DirectorySite reproduces the crawl byte-identically.
        crawl = fetch_crawl(build_site("ohio"), ["ohio-index.html"])
        write_snapshot(crawl, tmp_path / "snap")
        replay = fetch_crawl(
            DirectorySite(tmp_path / "snap"), ["ohio-index.html"]
        )
        assert replay.fingerprints == crawl.fingerprints

    def test_load_missing_manifest_raises(self, tmp_path):
        # Neither a manifest nor pages: nothing to read back.
        with pytest.raises(ValueError):
            load_crawl_pages(tmp_path)


class TestDiff:
    def test_diff_fingerprints_partitions(self):
        previous = {"a": "1", "b": "2", "c": "3"}
        fresh = {"a": "1", "b": "9", "d": "4"}
        diff = diff_fingerprints(previous, fresh)
        assert diff.unchanged == ("a",)
        assert diff.changed == ("b",)
        assert diff.added == ("d",)
        assert diff.removed == ("c",)
        assert diff.counts() == {
            "unchanged": 1,
            "changed": 1,
            "added": 1,
            "removed": 1,
        }
        assert diff.dirty == frozenset({"b", "d"})

    def test_plan_scopes_to_stale_bundles(self):
        pages = [
            Page(url="x-list0.html", html="<a href='x-d0.html'>x</a>"),
            Page(url="x-d0.html", html="detail CHANGED"),
            Page(url="y-list0.html", html="<a href='y-d0.html'>y</a>"),
            Page(url="y-d0.html", html="detail y"),
        ]
        fingerprints = {p.url: page_fingerprint(p.html) for p in pages}
        previous_fps = dict(fingerprints)
        previous_fps["x-d0.html"] = page_fingerprint("detail OLD")
        previous = {
            "fingerprints": previous_fps,
            "bundles": [
                {"name": "x", "pages": ["x-list0.html", "x-d0.html"]},
                {"name": "y", "pages": ["y-list0.html", "y-d0.html"]},
            ],
            "quarantine": [],
        }
        plan = plan_reingest(previous, pages, fingerprints)
        assert plan.diff.changed == ("x-d0.html",)
        assert plan.stale_bundles == ["x"]
        # Only bundle x's pages re-ingest; bundle y rides through.
        assert set(plan.reingest_urls) == {"x-list0.html", "x-d0.html"}
        assert [entry["name"] for entry in plan.carried] == ["y"]

    def test_load_previous_manifest_rejects_pre_lifecycle(self, tmp_path):
        assert load_previous_manifest(tmp_path) is None
        manifest = tmp_path / "ingest_manifest.json"
        manifest.write_text("{not json", encoding="utf-8")
        assert load_previous_manifest(tmp_path) is None
        # A pre-lifecycle manifest (no fingerprints) forces full ingest.
        manifest.write_text(
            json.dumps({"bundles": [{"name": "x"}]}), encoding="utf-8"
        )
        assert load_previous_manifest(tmp_path) is None


class TestIncrementalReingest:
    SPEC0 = MixedCorpusSpec(sites=12, seed=7)
    SPEC1 = MixedCorpusSpec(sites=12, seed=7, generation=1)

    @pytest.fixture(scope="class")
    def state(self, tmp_path_factory):
        """gen0 full ingest, gen1 incremental, gen1 full (reference)."""
        root = tmp_path_factory.mktemp("reingest")
        gen0 = build_mixed_corpus(self.SPEC0)
        gen1 = build_mixed_corpus(self.SPEC1)

        full0 = ingest_pages(gen0.pages)
        out = root / "bundles"
        write_bundles(full0, out)
        previous = load_previous_manifest(out)
        assert previous is not None

        obs = Observability()
        incremental = reingest_pages(
            gen1.pages, previous, obs=obs
        )
        write_reingest(incremental, out)

        reference = ingest_pages(gen1.pages)
        ref_dir = root / "reference"
        write_bundles(reference, ref_dir)

        return {
            "gen1": gen1,
            "out": out,
            "ref_dir": ref_dir,
            "incremental": incremental,
            "reference": reference,
            "obs": obs,
        }

    def test_reconciles_and_matches_full_ingest(self, state):
        incremental = state["incremental"]
        reference = state["reference"]
        assert incremental.reconciles()
        assert incremental.bundle_count == len(reference.bundles)
        # Same bundle names, same page membership as the full run.
        ref_bundles = {
            b.name: b.page_urls() for b in reference.bundles
        }
        inc_bundles = {
            entry["name"]: entry["pages"]
            for entry in incremental.carried
        }
        for bundle in incremental.report.bundles:
            inc_bundles[bundle.name] = bundle.page_urls()
        assert inc_bundles == ref_bundles

    def test_savings_are_real(self, state):
        incremental = state["incremental"]
        assert incremental.diff.counts()["unchanged"] > 0
        assert len(incremental.carried) > 0
        assert (
            incremental.reprocessed_page_count
            < incremental.page_count
        )

    def test_carried_bundle_dirs_byte_identical(self, state):
        # Carried directories must equal what a from-scratch gen1
        # ingest writes for the same bundles, file for file.
        out, ref_dir = state["out"], state["ref_dir"]
        carried = [e["name"] for e in state["incremental"].carried]
        assert carried
        for name in carried:
            ours = sorted((out / name).rglob("*"))
            theirs = sorted((ref_dir / name).rglob("*"))
            assert [p.name for p in ours] == [p.name for p in theirs]
            for mine, ref in zip(ours, theirs):
                if mine.is_file():
                    assert mine.read_bytes() == ref.read_bytes(), mine

    def test_removed_bundle_dir_deleted(self, state):
        incremental = state["incremental"]
        assert incremental.removed_bundles  # gen1 removes a sub-site
        for name in incremental.removed_bundles:
            assert not (state["out"] / name).exists()

    def test_diff_counters_booked(self, state):
        counters = state["obs"].metrics.as_dict()["counters"]
        diff = state["incremental"].diff.counts()
        for key in ("unchanged", "changed", "added", "removed"):
            assert counters[f"ingest.diff.{key}"] == diff[key]
        assert counters["ingest.carried.bundles"] == len(
            state["incremental"].carried
        )

    def test_manifest_chains_as_previous(self, state):
        # The merged manifest must itself be a valid diff base, so
        # generation 2 can re-ingest incrementally on top of it.
        previous = load_previous_manifest(state["out"])
        assert previous is not None
        gen1 = state["gen1"]
        again = reingest_pages(gen1.pages, previous)
        assert again.diff.counts()["unchanged"] == len(
            {p.url for p in gen1.pages}
        )
        assert again.reprocessed_page_count == 0
        assert again.reconciles()


class TestBundleDirectoryGenerations:
    def test_full_ingest_replaces_previous_generation(self, tmp_path):
        # A smaller crawl ingested over a used --out leaves exactly its
        # own bundles: segment-dir must not run the old generation's.
        out = tmp_path / "bundles"
        big = build_mixed_corpus(MixedCorpusSpec(sites=8, seed=3))
        write_bundles(ingest_pages(big.pages), out)
        small = build_mixed_corpus(MixedCorpusSpec(sites=3, seed=4))
        manifest = write_bundles(ingest_pages(small.pages), out)
        listed = {
            entry["name"]
            for entry in json.loads(manifest.read_text(encoding="utf-8"))[
                "bundles"
            ]
        }
        assert listed
        on_disk = {path.parent.name for path in out.glob("*/sample.json")}
        assert on_disk == listed

    def test_full_ingest_over_a_torn_manifest_leaves_only_listed_bundles(
        self, tmp_path
    ):
        # A manifest cut to half its bytes names no bundles; the next
        # full ingest still leaves exactly the bundles it lists.
        out = tmp_path / "bundles"
        big = build_mixed_corpus(MixedCorpusSpec(sites=8, seed=3))
        manifest = write_bundles(ingest_pages(big.pages), out)
        assert len(list(out.glob("*/sample.json"))) == 10
        torn = manifest.read_bytes()
        manifest.write_bytes(torn[: len(torn) // 2])
        small = build_mixed_corpus(MixedCorpusSpec(sites=3, seed=4))
        manifest = write_bundles(ingest_pages(small.pages), out)
        listed = {
            entry["name"]
            for entry in json.loads(manifest.read_text(encoding="utf-8"))[
                "bundles"
            ]
        }
        assert len(listed) == 4
        on_disk = {path.parent.name for path in out.glob("*/sample.json")}
        assert on_disk == listed

    def test_failed_manifest_write_keeps_the_previous_manifest(
        self, tmp_path, monkeypatch
    ):
        # The manifest is replaced in one rename: a write that fails
        # leaves the previous manifest whole, so the next full ingest
        # still knows which bundles to remove.
        out = tmp_path / "bundles"
        big = build_mixed_corpus(MixedCorpusSpec(sites=8, seed=3))
        manifest = write_bundles(ingest_pages(big.pages), out)
        previous = manifest.read_bytes()
        old_bundles = {
            entry["name"] for entry in json.loads(previous)["bundles"]
        }
        small = ingest_pages(
            build_mixed_corpus(MixedCorpusSpec(sites=3, seed=4)).pages
        )
        replace = os.replace

        def failing_replace(source, target):
            if os.path.basename(target) == INGEST_MANIFEST_NAME:
                raise OSError("disk went away")
            replace(source, target)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk went away"):
            write_bundles(small, out)
        assert manifest.read_bytes() == previous
        assert list(out.rglob(".tmp-*")) == []

        monkeypatch.setattr(os, "replace", replace)
        write_bundles(small, out)
        listed = {
            entry["name"]
            for entry in json.loads(manifest.read_text(encoding="utf-8"))[
                "bundles"
            ]
        }
        on_disk = {path.parent.name for path in out.glob("*/sample.json")}
        assert on_disk == listed
        assert old_bundles - listed and not (old_bundles - listed) & on_disk

    def test_writer_never_follows_a_symlink_in_out(self, tmp_path):
        # A symlink named like a bundle, or holding a stale bundle, is
        # replaced or removed itself; what it points to is untouched.
        report = ingest_pages(
            build_mixed_corpus(MixedCorpusSpec(sites=3, seed=1)).pages
        )
        name = report.bundles[0].name
        out, target, stale = tmp_path / "out", tmp_path / "target", tmp_path / "stale"
        out.mkdir()
        target.mkdir()
        stale.mkdir()
        (stale / "sample.json").write_text("{}", encoding="utf-8")
        os.symlink(target, out / name)
        os.symlink(stale, out / "stale")
        write_bundles(report, out)
        assert list(target.iterdir()) == []
        assert [path.name for path in stale.iterdir()] == ["sample.json"]
        assert not (out / "stale").exists() and not (out / "stale").is_symlink()
        assert not (out / name).is_symlink()
        assert (out / name / "sample.json").is_file()

    def test_reingest_never_removes_outside_out(self, tmp_path):
        # A stale bundle name read from the previous manifest is only
        # removed when it is a plain child of --out.
        out = tmp_path / "bundles"
        victim = tmp_path / "victim"
        victim.mkdir()
        (victim / "keep.txt").write_text("keep", encoding="utf-8")
        previous = {
            "fingerprints": {"gone.html": page_fingerprint("<p>gone</p>")},
            "bundles": [{"name": "../victim", "pages": ["gone.html"]}],
            "quarantine": [],
        }
        report = reingest_pages(
            [Page(url="fresh.html", html="<p>fresh</p>")], previous
        )
        assert report.stale_bundles == ["../victim"]
        write_reingest(report, out)
        assert (victim / "keep.txt").read_text(encoding="utf-8") == "keep"


    @pytest.mark.parametrize(
        "head_url, name",
        [("...html", "...html"), ("sub/...html", "...html"), ("a\\b.html", "b")],
    )
    def test_bundle_named_after_a_dot_stem_head_stays_inside_out(
        self, tmp_path, head_url, name
    ):
        # A chain head saved as ``...html`` has the stem ``..``; its
        # bundle keeps the whole file name and is written under --out,
        # also when the head's URL has a path (``\\`` separates too).
        head = "mix002b-list0.html"
        pages = [
            Page(
                url=head_url if page.url == head else page.url,
                html=page.html.replace(head, head_url),
            )
            for page in build_mixed_corpus(MixedCorpusSpec(sites=3, seed=1)).pages
        ]
        run = tmp_path / "run"
        manifest = write_bundles(ingest_pages(pages), run / "out")
        listed = [
            entry["name"]
            for entry in json.loads(manifest.read_text(encoding="utf-8"))["bundles"]
        ]
        assert name in listed
        assert [path.name for path in run.iterdir()] == ["out"]
        assert (run / "out" / name / "sample.json").is_file()

    def test_writer_rejects_a_bundle_name_that_is_not_plain(self, tmp_path):
        # ``out/old`` is a bundle directory the new manifest does not
        # list; the name check comes before any removal or write.
        out = tmp_path / "out"
        (out / "old").mkdir(parents=True)
        (out / "old" / "sample.json").write_text("{}", encoding="utf-8")
        bundle = SiteBundle(
            name="..",
            list_pages=[Page(url="l.html", html="<p>x</p>")],
            detail_pages_per_list=[[]],
            list_cluster_id=0,
            detail_cluster_id=1,
        )
        with pytest.raises(ValueError):
            _write_generation(out, [bundle], {"bundles": []})
        written = sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*"))
        assert [path.as_posix() for path in written] == [
            "out",
            "out/old",
            "out/old/sample.json",
        ]


class TestInvalidation:
    def _loaded_store(self, tmp_path):
        from repro.store import RelationalStore, ingest_pages as store_ingest

        store = RelationalStore(tmp_path / "tables.db")
        entry = {
            "url": "stale-list0.html",
            "records": [
                {"texts": ["Ann", "Fraud"], "columns": [0, 1]},
            ],
            "record_count": 1,
            "names": {"L0": "Name", "L1": "Charge"},
        }
        store_ingest(store, "stale-list0", "prob", [entry])
        store_ingest(store, "fresh-list0", "prob", [entry])
        return store

    def test_store_rows_removed(self, tmp_path):
        with self._loaded_store(tmp_path) as store:
            report = invalidate_consumers(["stale-list0"], store=store)
            assert report.store_sites_removed == 1
            assert report.store["sites"] == 1
            remaining = [row["site_id"] for row in store.sites()]
            assert remaining == ["fresh-list0"]

    def test_wrapper_disk_tier_dropped(self, tmp_path):
        from repro.core.config import METHODS
        from repro.runner.cache import StageCache
        from repro.serve.registry import WRAPPER_STAGE, WrapperRegistry

        cache = StageCache(tmp_path / "wc")
        registry = WrapperRegistry(cache=cache)
        for method in METHODS:
            cache.store(
                WRAPPER_STAGE,
                WrapperRegistry._key("stale-list0", method),
                {"fake": "wrapper"},
            )
        report = invalidate_consumers(["stale-list0"], registry=registry)
        assert report.wrappers_invalidated == len(METHODS)
        for method in METHODS:
            found, _ = cache.load(
                WRAPPER_STAGE, WrapperRegistry._key("stale-list0", method)
            )
            assert not found

    def test_memory_tier_dropped(self):
        from repro.serve.registry import WrapperRegistry

        registry = WrapperRegistry()
        registry._wrappers[("stale-list0", "prob")] = object()
        report = invalidate_consumers(["stale-list0"], registry=registry)
        assert report.wrappers_invalidated == 1
        assert len(registry) == 0

    def test_store_error_does_not_stop_wrappers(self, tmp_path):
        from repro.serve.registry import WrapperRegistry

        with self._loaded_store(tmp_path) as store:
            pass  # closed: every remove now raises StoreError
        registry = WrapperRegistry()
        registry._wrappers[("stale-list0", "prob")] = object()
        report = invalidate_consumers(
            ["stale-list0"], store=store, registry=registry
        )
        assert report.errors
        assert report.wrappers_invalidated == 1

    def test_unknown_site_is_noop(self, tmp_path):
        with self._loaded_store(tmp_path) as store:
            report = invalidate_consumers(["never-seen"], store=store)
            assert report.store_sites_removed == 0
            assert report.errors == []


class TestCliLifecycle:
    def test_incremental_json_reports_diff_and_invalidation(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        gen0, gen1 = tmp_path / "g0", tmp_path / "g1"
        out = tmp_path / "bundles"
        base = ["export-corpus", "--mixed", "4", "--seed", "11"]
        assert main(base[:1] + [str(gen0)] + base[1:]) == 0
        assert main(
            base[:1] + [str(gen1)] + base[1:] + ["--generation", "1"]
        ) == 0
        assert main(["ingest", str(gen0), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(
            [
                "ingest",
                str(gen1),
                "--out",
                str(out),
                "--incremental",
                "--json",
                "--store",
                str(tmp_path / "rel.db"),
                "--wrapper-cache-dir",
                str(tmp_path / "wc"),
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reconciled"] is True
        assert summary["diff"]["unchanged"] > 0
        assert summary["reprocessed"] < summary["pages"]
        assert summary["invalidation"]["errors"] == []
        assert summary["invalidation"]["sites"] == summary["stale_bundles"]

    def test_full_ingest_invalidates_replaced_and_removed_bundles(
        self, tmp_path, capsys
    ):
        # Generation A is segmented into the store; a full ingest of B
        # over the same --out replaces or removes every A bundle, so
        # the store keeps none of A's sites.
        from repro.cli import main
        from repro.sitegen.mixed import write_crawl
        from repro.store import RelationalStore

        crawl_a, crawl_b = tmp_path / "a", tmp_path / "b"
        write_crawl(build_mixed_corpus(MixedCorpusSpec(sites=8, seed=3)), crawl_a)
        write_crawl(build_mixed_corpus(MixedCorpusSpec(sites=3, seed=4)), crawl_b)
        out, db = tmp_path / "bundles", tmp_path / "rel.db"
        assert main(["ingest", str(crawl_a), "--out", str(out)]) == 0
        assert main(
            ["segment-dir", str(out), "--method", "csp", "--store", str(db)]
        ) == 0
        generation_a = {path.parent.name for path in out.glob("*/sample.json")}
        with RelationalStore(db) as store:
            assert {row["site_id"] for row in store.sites()} == generation_a
        capsys.readouterr()
        assert main(
            ["ingest", str(crawl_b), "--out", str(out), "--store", str(db), "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["invalidation"]["sites"] == sorted(generation_a)
        assert summary["invalidation"]["store_sites_removed"] == len(generation_a)
        with RelationalStore(db) as store:
            assert not {row["site_id"] for row in store.sites()} & generation_a

    @pytest.mark.parametrize("absolute", [False, True], ids=["dotdot", "absolute"])
    def test_crawl_manifest_page_outside_the_directory_is_refused(
        self, tmp_path, capsys, absolute
    ):
        from repro.cli import main

        outside = tmp_path / "outside.html"
        outside.write_text("<p>outside</p>", encoding="utf-8")
        crawl_dir = tmp_path / "crawl"
        crawl_dir.mkdir()
        (crawl_dir / "a.html").write_text("<p>a</p>", encoding="utf-8")
        name = str(outside) if absolute else "../outside.html"
        (crawl_dir / CRAWL_SNAPSHOT_NAME).write_text(
            json.dumps({"pages": ["a.html", name]}), encoding="utf-8"
        )
        with pytest.raises(ValueError):
            load_crawl_pages(crawl_dir)
        out = tmp_path / "bundles"
        assert main(["ingest", str(crawl_dir), "--out", str(out)]) == 2
        assert "cannot read crawl directory" in capsys.readouterr().out
        assert not out.exists()

    def test_fetch_mode_threads_crawl_health(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sitegen.mixed import write_crawl

        corpus = build_mixed_corpus(MixedCorpusSpec(sites=3, seed=5))
        crawl_dir = tmp_path / "crawl"
        write_crawl(corpus, crawl_dir)
        seed = corpus.sites[0].list_urls[0]
        assert main(
            [
                "ingest",
                str(crawl_dir),
                "--out",
                str(tmp_path / "bundles"),
                "--fetch",
                seed,
                "--snapshot",
                str(tmp_path / "snap"),
                "--json",
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["crawl_health"] is not None
        assert summary["crawl_health"]["requests"] > 0
        assert (tmp_path / "snap" / CRAWL_SNAPSHOT_NAME).is_file()
