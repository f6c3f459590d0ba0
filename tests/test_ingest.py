"""Tests for the ingestion front door: fingerprints, page-type
classification, template clustering, and site bundling."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.ingest import (
    ClusterConfig,
    ingest_pages,
    profile_page,
    profile_pages,
    write_bundles,
)
from repro.ingest.classify import classify_profile
from repro.ingest.cluster import cluster_profiles
from repro.ingest.fingerprint import ShingleSpace
from repro.obs import Observability
from repro.runner.engine import BatchRunner, RunnerConfig
from repro.runner.tasks import tasks_from_directory
from repro.sitegen.corpus import build_site
from repro.sitegen.mixed import (
    MixedCorpusSpec,
    build_mixed_corpus,
    score_bundles,
)
from repro.webdoc.page import Page
from repro.webdoc.store import save_sample


def _jaccard(a, b):
    a, b = set(a), set(b)
    return len(a & b) / len(a | b)


@pytest.fixture(scope="module")
def corpus():
    return build_mixed_corpus(MixedCorpusSpec(sites=6, seed=11))


@pytest.fixture(scope="module")
def report(corpus):
    return ingest_pages(corpus.pages)


class TestFingerprint:
    def test_same_template_pages_share_shingles(self):
        site = build_site("ohio")
        space = ShingleSpace()
        profiles = [
            profile_page(page, space) for page in site.detail_pages(0)[:3]
        ]
        assert _jaccard(profiles[0].shingles, profiles[1].shingles) > 0.7
        assert _jaccard(profiles[0].shingles, profiles[2].shingles) > 0.7

    def test_different_templates_share_little(self):
        site = build_site("ohio")
        space = ShingleSpace()
        detail = profile_page(site.detail_pages(0)[0], space)
        ad = profile_page(site.fetch("ohio-ad0.html"), space)
        assert _jaccard(detail.shingles, ad.shingles) < 0.3

    def test_list_page_repeats_structure(self):
        site = build_site("ohio")
        space = ShingleSpace()
        list_profile = profile_page(site.list_pages[0], space)
        ad_profile = profile_page(site.fetch("ohio-ad0.html"), space)
        assert list_profile.repeat_ratio > 0.4
        assert list_profile.repeat_ratio > ad_profile.repeat_ratio

    def test_links_in_first_occurrence_order(self):
        site = build_site("ohio")
        profile = profile_page(site.list_pages[0], ShingleSpace())
        detail_urls = [page.url for page in site.detail_pages(0)]
        in_profile = [url for url in profile.links if url in set(detail_urls)]
        assert in_profile == detail_urls

    def test_next_and_form_signals(self):
        site = build_site("ohio")
        space = ShingleSpace()
        first = profile_page(site.list_pages[0], space)
        last = profile_page(site.list_pages[1], space)
        index = profile_page(site.fetch("ohio-index.html"), space)
        assert first.next_url == "ohio-list1.html"
        assert last.next_url is None
        assert index.has_form and not first.has_form

    def test_fragment_and_empty_hrefs_skipped(self):
        page = Page(
            "x.html",
            '<a href="#top">Top</a><a href="">E</a><a href="y.html">Y</a>',
        )
        profile = profile_page(page, ShingleSpace())
        assert profile.links == ("y.html",)

    def test_shared_space_required_for_comparability(self):
        site = build_site("ohio")
        pages = site.detail_pages(0)[:2]
        shared = ShingleSpace()
        a1, b1 = (profile_page(page, shared) for page in pages)
        assert _jaccard(a1.shingles, b1.shingles) > 0.7
        # Separate spaces assign independent ids; same page, same space
        # stays deterministic.
        again = profile_page(pages[0], ShingleSpace())
        assert profile_page(pages[0], ShingleSpace()).shingles == again.shingles


class TestNextLink:
    """The pager signal that :func:`follow_next_chain` walks."""

    @staticmethod
    def next_url(html):
        return profile_page(Page("x.html", html), ShingleSpace()).next_url

    def test_closed_by_end_tag(self):
        html = '<a href="a.html">First</a> x <a href="n.html">Next</a>'
        assert self.next_url(html) == "n.html"

    def test_implicitly_closed_by_next_anchor(self):
        # Broken markup: a second <a> opens before the first closed.
        html = '<a href="n.html">Next <a href="m.html">More</a>'
        assert self.next_url(html) == "n.html"

    def test_open_at_end_of_input(self):
        assert self.next_url('<a href="n.html">Next') == "n.html"

    def test_markup_inside_anchor(self):
        html = '<a href="n.html"><b> Next </b><img src="arrow.gif"></a>'
        assert self.next_url(html) == "n.html"

    def test_fragment_and_empty_hrefs_skipped(self):
        html = (
            '<a href="#top">Next</a><a href="">Next</a>'
            '<a href="n.html">Next</a>'
        )
        assert self.next_url(html) == "n.html"

    def test_case_insensitive(self):
        assert self.next_url('<a href="n.html">NEXT</a>') == "n.html"

    def test_first_next_wins(self):
        # Each anchor's text counts, even when its href was seen before.
        html = (
            '<a href="a.html">Prev</a><a href="a.html">next</a>'
            '<a href="b.html">Next</a>'
        )
        assert self.next_url(html) == "a.html"

    def test_no_next(self):
        html = '<a href="a.html">Next page</a><a href="b.html"></a>'
        assert self.next_url(html) is None


class TestClassify:
    @pytest.fixture(scope="class")
    def ohio_profiles(self):
        site = build_site("ohio")
        space = ShingleSpace()
        return {
            "list": profile_page(site.list_pages[0], space),
            "detail": profile_page(site.detail_pages(0)[0], space),
            "index": profile_page(site.fetch("ohio-index.html"), space),
            "ad": profile_page(site.fetch("ohio-ad0.html"), space),
        }

    def test_list_page(self, ohio_profiles):
        assert classify_profile(ohio_profiles["list"]) == "list"

    def test_detail_page(self, ohio_profiles):
        assert classify_profile(ohio_profiles["detail"]) == "detail"

    def test_form_page_is_other(self, ohio_profiles):
        assert classify_profile(ohio_profiles["index"]) == "other"

    def test_linkless_page_is_other(self, ohio_profiles):
        assert classify_profile(ohio_profiles["ad"]) == "other"


class TestCluster:
    def test_templates_separate(self):
        site = build_site("ohio")
        pages = (
            site.detail_pages(0)
            + [site.fetch("ohio-ad0.html")]
            + site.list_pages
        )
        profiles = profile_pages(pages)
        clusters = cluster_profiles(profiles)
        sizes = sorted(len(cluster) for cluster in clusters)
        # details together, ad alone, the two list pages together
        assert sizes == [1, 2, len(site.detail_pages(0))]

    def test_deterministic(self):
        site = build_site("ohio")
        pages = site.detail_pages(0) + [site.fetch("ohio-ad0.html")]

        def run():
            clusters = cluster_profiles(profile_pages(pages))
            return [tuple(cluster.members) for cluster in clusters]

        assert run() == run()

    def test_near_duplicate_clusters_merge(self):
        site = build_site("ohio")
        pages = site.detail_pages(0)
        profiles = profile_pages(pages)
        # An absurd join threshold seeds one cluster per page; the
        # merge pass must still fuse the identical-template clusters.
        config = ClusterConfig(join_threshold=1.01, merge_threshold=0.7)
        clusters = cluster_profiles(profiles, config)
        assert len(clusters) == 1
        assert clusters[0].members == list(range(len(pages)))

    def test_cross_seed_same_template_joins(self):
        # Two sites stamped from the same family with different seeds:
        # near-duplicate templates, one cluster.
        a = build_mixed_corpus(MixedCorpusSpec(sites=1, seed=1))
        b = build_mixed_corpus(MixedCorpusSpec(sites=1, seed=2))
        pages = (
            a.generated["mix000"].detail_pages(0)
            + b.generated["mix000"].detail_pages(0)
        )
        clusters = cluster_profiles(profile_pages(pages))
        assert len(clusters) == 1


class TestIngestEndToEnd:
    def test_bundle_count_matches_truth(self, corpus, report):
        assert len(report.bundles) == corpus.spec.expected_site_count()
        assert len(report.bundles) == len(corpus.sites)

    def test_every_page_accounted_for(self, corpus, report):
        assert report.page_count == corpus.page_count
        assert report.reconciles()
        bundled = {url for b in report.bundles for url in b.page_urls()}
        quarantined = {page.url for page in report.quarantined}
        assert bundled | quarantined == {page.url for page in corpus.pages}
        assert not bundled & quarantined

    def test_bundles_exactly_match_true_sites(self, corpus, report):
        score = score_bundles(
            corpus.sites,
            [(b.name, b.page_urls()) for b in report.bundles],
        )
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.exact_bundles == len(report.bundles)

    def test_distractors_all_quarantined(self, corpus, report):
        quarantined = {page.url for page in report.quarantined}
        assert corpus.distractor_urls <= quarantined

    def test_quarantine_reasons(self, corpus, report):
        counts = report.quarantine_counts()
        # Search forms and index pages carry forms; orphans are
        # structurally unique singletons.
        assert counts.get("form", 0) >= corpus.spec.form_page_count
        assert counts.get("orphan", 0) >= corpus.spec.orphan_count // 2
        by_url = {page.url: page.reason for page in report.quarantined}
        assert all(
            by_url[f"orphan-{i:03d}.html"] == "orphan"
            for i in range(corpus.spec.orphan_count)
        )
        assert all(
            by_url[f"searchhub-{i:03d}.html"] == "form"
            for i in range(corpus.spec.form_page_count)
        )

    def test_multi_template_slot_splits(self, corpus, report):
        names = {bundle.name for bundle in report.bundles}
        assert "mix002a-list0" in names and "mix002b-list0" in names
        a = next(b for b in report.bundles if b.name == "mix002a-list0")
        b = next(b for b in report.bundles if b.name == "mix002b-list0")
        assert a.list_cluster_id != b.list_cluster_id

    def test_metrics_reconcile(self, corpus):
        obs = Observability()
        ingest_pages(corpus.pages, obs=obs)
        metrics = obs.metrics.as_dict()["counters"]
        assert metrics["ingest.pages"] == corpus.page_count
        assert (
            metrics["ingest.pages.bundled"]
            + metrics["ingest.pages.quarantined"]
            == metrics["ingest.pages"]
        )

    def test_duplicate_urls_quarantined(self, corpus):
        pages = list(corpus.pages) + [corpus.pages[0], corpus.pages[1]]
        report = ingest_pages(pages)
        assert report.page_count == len(pages)
        assert report.reconciles()
        assert report.quarantine_counts().get("duplicate-url") == 2

    def test_empty_crawl(self):
        report = ingest_pages([])
        assert report.page_count == 0
        assert report.bundles == [] and report.quarantined == []
        assert report.reconciles()


class TestWriteBundles:
    def test_manifest_and_layout(self, corpus, report, tmp_path):
        manifest_path = write_bundles(report, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["reconciled"] is True
        assert manifest["pages"] == corpus.page_count
        assert manifest["bundled"] + manifest["quarantined"] == manifest["pages"]
        assert len(manifest["bundles"]) == len(report.bundles)
        tasks = tasks_from_directory(tmp_path)
        assert len(tasks) == len(report.bundles)


class TestDigestParity:
    def test_bundles_segment_identically_to_clean_path(self, tmp_path):
        corpus = build_mixed_corpus(MixedCorpusSpec(sites=4, seed=5))
        report = ingest_pages(corpus.pages)
        assert len(report.bundles) == len(corpus.sites)

        bundle_dir = tmp_path / "bundles"
        clean_dir = tmp_path / "clean"
        write_bundles(report, bundle_dir)
        for site in corpus.generated.values():
            save_sample(
                clean_dir / site.spec.name,
                site.spec.name,
                site.list_pages,
                [
                    site.detail_pages(i)
                    for i in range(len(site.list_pages))
                ],
            )

        runner = BatchRunner(RunnerConfig(workers=1))
        via_ingest = runner.run(tasks_from_directory(bundle_dir))
        via_clean = runner.run(tasks_from_directory(clean_dir))
        assert {r.status for r in via_ingest.results} == {"ok"}
        assert sorted(r.digest() for r in via_ingest.results) == sorted(
            r.digest() for r in via_clean.results
        )


class TestCli:
    def test_ingest_command_json(self, tmp_path, capsys):
        crawl = tmp_path / "crawl"
        out_dir = tmp_path / "bundles"
        assert main(["export-corpus", str(crawl), "--mixed", "3", "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(
            ["ingest", str(crawl), "--out", str(out_dir), "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reconciled"] is True
        assert summary["bundled"] + summary["quarantined"] == summary["pages"]
        assert len(summary["bundles"]) >= 3
        assert (out_dir / "ingest_manifest.json").is_file()
        assert len(tasks_from_directory(out_dir)) == len(summary["bundles"])

    def test_ingest_bad_directory(self, tmp_path, capsys):
        assert (
            main(["ingest", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
            == 2
        )
        assert "cannot read crawl directory" in capsys.readouterr().out

    def test_config_flags(self, tmp_path, capsys):
        crawl = tmp_path / "crawl"
        assert main(["export-corpus", str(crawl), "--mixed", "2"]) == 0
        code = main(
            [
                "ingest",
                str(crawl),
                "--out",
                str(tmp_path / "b"),
                "--join-threshold",
                "0.5",
                "--merge-threshold",
                "0.6",
                "--min-details",
                "2",
            ]
        )
        assert code == 0
        assert "bundles under" in capsys.readouterr().out
