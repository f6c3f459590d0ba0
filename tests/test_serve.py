"""Tests for the online segmentation service (transport-free layer).

Covers payload parsing, the cold/warm/drift request flow of
:class:`~repro.serve.service.SegmentationService`, drift scoring, and
the :class:`~repro.serve.registry.WrapperRegistry` (two-tier lookup,
disk persistence across service restarts, concurrent access).
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.core.exceptions import ExtractionError
from repro.core.pipeline import SegmentationPipeline
from repro.obs import ManualClock, Observability
from repro.serve import (
    SegmentationService,
    ServeError,
    ServiceConfig,
    WrapperRegistry,
    payload_from_pages,
    wrapped_page_quality,
)
from repro.serve.schema import PayloadError, pages_from_payload
from repro.runner.cache import StageCache
from repro.sitegen.corpus import build_site
from repro.sitegen.site import GeneratedSite, RowLayout
from repro.wrapper import apply_wrapper, induce_wrapper


def site_payload(site, name, method=None):
    return payload_from_pages(
        name,
        site.list_pages,
        [site.detail_pages(index) for index in range(len(site.list_pages))],
        method=method,
    )


@pytest.fixture(scope="module")
def ohio():
    return build_site("ohio")


@pytest.fixture(scope="module")
def ohio_payload(ohio):
    return site_payload(ohio, "ohio")


@pytest.fixture(scope="module")
def trained_wrapper(ohio):
    run = SegmentationPipeline("prob").segment_site(
        ohio.list_pages,
        [ohio.detail_pages(index) for index in range(len(ohio.list_pages))],
    )
    sample = next(page for page in run.pages if page.segmentation.records)
    return induce_wrapper(sample, run.template_verdict)


class TestPayloadParsing:
    def test_round_trip(self, ohio, ohio_payload):
        site_id, list_pages, details = pages_from_payload(ohio_payload)
        assert site_id == "ohio"
        assert len(list_pages) == len(ohio.list_pages)
        assert [page.html for page in list_pages] == [
            page.html for page in ohio.list_pages
        ]
        assert [len(pages) for pages in details] == [
            len(ohio.detail_pages(index)) for index in range(len(list_pages))
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"site": "x"},
            {"site": "", "pages": [{"list": "<html>"}]},
            {"site": "x", "pages": []},
            {"site": "x", "pages": ["nope"]},
            {"site": "x", "pages": [{"details": []}]},
            {"site": "x", "pages": [{"list": 7}]},
            {"site": "x", "pages": [{"list": "<html>", "details": [3]}]},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(PayloadError):
            pages_from_payload(payload)

    def test_bad_payload_maps_to_400(self):
        service = SegmentationService(ServiceConfig())
        with pytest.raises(ServeError) as excinfo:
            service.segment({"site": "x"})
        assert excinfo.value.status == 400

    def test_unknown_method_maps_to_400(self, ohio_payload):
        service = SegmentationService(ServiceConfig())
        payload = dict(ohio_payload, method="astrology")
        with pytest.raises(ServeError) as excinfo:
            service.segment(payload)
        assert excinfo.value.status == 400


class TestRequestFlow:
    def test_cold_then_warm_identical_records(self, ohio_payload):
        service = SegmentationService(ServiceConfig(method="prob"))
        cold = service.segment(ohio_payload)
        warm = service.segment(ohio_payload)
        assert cold["path"] == "pipeline"
        assert warm["path"] == "wrapper"
        assert cold["pages"] == warm["pages"]
        assert warm["record_count"] > 0
        assert not warm["drift"]["drifted"]
        counters = service.metrics_dict()["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.wrapper_hits"] == 1
        assert counters["serve.pipeline_runs"] == 1

    def test_trace_ids_unique_and_echoed(self, ohio_payload):
        service = SegmentationService(ServiceConfig(method="prob"))
        first = service.segment(ohio_payload)
        second = service.segment(ohio_payload, trace_id="deadbeef")
        assert first["trace_id"]
        assert second["trace_id"] == "deadbeef"

    def test_drifted_site_falls_back_and_reinduces(self, ohio, ohio_payload):
        service = SegmentationService(ServiceConfig(method="prob"))
        service.segment(ohio_payload)  # induce wrapper
        redesigned = GeneratedSite(
            dataclasses.replace(ohio.spec, layout=RowLayout.BLOCKS)
        )
        drifted = service.segment(site_payload(redesigned, "ohio"))
        assert drifted["path"] == "pipeline"
        assert drifted["drift"]["drifted"]
        assert drifted["record_count"] > 0
        # Re-induction healed the registry: the redesigned layout now
        # answers from the wrapper.
        healed = service.segment(site_payload(redesigned, "ohio"))
        assert healed["path"] == "wrapper"
        assert healed["pages"] == drifted["pages"]
        counters = service.metrics_dict()["counters"]
        assert counters["serve.fallbacks"] == 1
        assert counters["serve.reinductions"] == 1

    def test_per_method_wrappers_are_independent(self, ohio_payload):
        service = SegmentationService(ServiceConfig(method="prob"))
        service.segment(ohio_payload)
        csp = service.segment(dict(ohio_payload, method="csp"))
        assert csp["path"] == "pipeline"  # no wrapper for csp yet

    def test_sleep_hook(self):
        service = SegmentationService(ServiceConfig())
        response = service.segment({"_sleep": 0.0})
        assert response["path"] == "sleep"


class TestDriftScore:
    def test_empty_rows_score_zero(self, ohio):
        assert wrapped_page_quality([], ohio.detail_pages(0)) == 0.0

    def test_healthy_page_scores_high(self, ohio, trained_wrapper):
        rows = apply_wrapper(trained_wrapper, ohio.list_pages[0])
        score = wrapped_page_quality(rows, ohio.detail_pages(0))
        assert score >= 0.75

    def test_foreign_details_score_low(self, ohio, trained_wrapper):
        rows = apply_wrapper(trained_wrapper, ohio.list_pages[0])
        foreign = build_site("amazon").detail_pages(0)
        score = wrapped_page_quality(rows, foreign)
        assert score < 0.5

    def test_no_details_trusts_any_rows(self, ohio, trained_wrapper):
        rows = apply_wrapper(trained_wrapper, ohio.list_pages[0])
        assert wrapped_page_quality(rows, []) == 1.0


class TestWrapperRegistry:
    def test_memory_round_trip(self, trained_wrapper):
        registry = WrapperRegistry()
        assert registry.get("ohio", "prob") is None
        registry.put("ohio", "prob", trained_wrapper)
        assert registry.get("ohio", "prob") is trained_wrapper
        assert registry.get("ohio", "csp") is None  # method is part of key
        assert len(registry) == 1
        assert registry.sites() == ["ohio"]

    def test_invalidate(self, trained_wrapper):
        registry = WrapperRegistry()
        registry.put("ohio", "prob", trained_wrapper)
        assert registry.invalidate("ohio", "prob")
        assert not registry.invalidate("ohio", "prob")
        assert registry.get("ohio", "prob") is None

    def test_disk_tier_survives_restart(self, tmp_path, trained_wrapper, ohio):
        first = WrapperRegistry(cache=StageCache(tmp_path / "wrappers"))
        first.put("ohio", "prob", trained_wrapper)
        # A fresh registry over the same directory (a server restart).
        second = WrapperRegistry(cache=StageCache(tmp_path / "wrappers"))
        revived = second.get("ohio", "prob")
        assert revived is not None
        assert revived.boundary == trained_wrapper.boundary
        assert apply_wrapper(revived, ohio.list_pages[0])

    def test_disk_persistence_through_service(self, tmp_path, ohio_payload):
        config = ServiceConfig(
            method="prob", wrapper_cache_dir=str(tmp_path / "wrappers")
        )
        SegmentationService(config).segment(ohio_payload)
        # A brand-new service process answers warm straight away.
        restarted = SegmentationService(config)
        assert restarted.segment(ohio_payload)["path"] == "wrapper"

    def test_concurrent_access(self, trained_wrapper, tmp_path):
        registry = WrapperRegistry(cache=StageCache(tmp_path / "wrappers"))
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for round_index in range(25):
                    site = f"site{(worker + round_index) % 5}"
                    registry.put(site, "prob", trained_wrapper)
                    got = registry.get(site, "prob")
                    assert got is not None
                    registry.invalidate(site, "prob")
                    registry.sites()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestHealth:
    def test_health_shape(self, ohio_payload):
        service = SegmentationService(ServiceConfig(method="prob"))
        service.segment(ohio_payload)
        body = service.health(queue_depth=0)
        assert body["status"] == "ok"
        assert body["sites_cached"] == 1
        assert body["queue_depth"] == 0
        assert body["uptime_s"] >= 0


def span_counts(service):
    histograms = service.metrics_dict()["histograms"]
    return {
        step: histograms.get(f"span.serve.{step}.seconds", {}).get("count", 0)
        for step in ("request", "apply", "pipeline", "induce")
    }


def serve_counters(service):
    counters = service.metrics_dict()["counters"]
    return {
        name: counters.get(name, 0)
        for name in (
            "serve.wrapper_hits",
            "serve.fallbacks",
            "serve.reinductions",
            "serve.pipeline_runs",
        )
    }


@pytest.fixture(scope="module")
def csp_payloads(ohio):
    """ohio's own pages, and lee's pages sent as site ``ohio`` (drift)."""
    return {
        "ohio": site_payload(ohio, "ohio", method="csp"),
        "lee": site_payload(build_site("lee"), "ohio", method="csp"),
    }


#: What each serve path emits, cumulative over one csp request
#: sequence: (request, payload, path, wrapper flags, counters, spans).
SERVE_PATHS = (
    (
        "cold", "ohio", "pipeline", {"cached": False, "induced": True},
        {"serve.wrapper_hits": 0, "serve.fallbacks": 0,
         "serve.reinductions": 0, "serve.pipeline_runs": 1},
        {"request": 1, "apply": 1, "pipeline": 1, "induce": 1},
    ),
    (
        "warm", "ohio", "wrapper", {"cached": True, "induced": True},
        {"serve.wrapper_hits": 1, "serve.fallbacks": 0,
         "serve.reinductions": 0, "serve.pipeline_runs": 1},
        {"request": 2, "apply": 2, "pipeline": 1, "induce": 1},
    ),
    (
        "drifted", "lee", "pipeline", {"cached": False, "induced": True},
        {"serve.wrapper_hits": 1, "serve.fallbacks": 1,
         "serve.reinductions": 1, "serve.pipeline_runs": 2},
        {"request": 3, "apply": 4, "pipeline": 2, "induce": 2},
    ),
    (
        "re-warmed", "lee", "wrapper", {"cached": True, "induced": True},
        {"serve.wrapper_hits": 2, "serve.fallbacks": 1,
         "serve.reinductions": 1, "serve.pipeline_runs": 2},
        {"request": 4, "apply": 5, "pipeline": 2, "induce": 2},
    ),
)


class TestServePathEmissions:
    """Responses, counters and spans of every path through the service."""

    def test_request_sequence(self, csp_payloads):
        service = SegmentationService(ServiceConfig(method="csp"))
        for request, payload, path, wrapper, counters, spans in SERVE_PATHS:
            response = service.segment(csp_payloads[payload])
            assert response["path"] == path, request
            assert response["wrapper"] == wrapper, request
            assert serve_counters(service) == counters, request
            assert span_counts(service) == spans, request
            assert service.registry.sites() == ["ohio"], request

    def test_failed_induction_answers_from_the_raw_run(
        self, csp_payloads, monkeypatch
    ):
        service = SegmentationService(ServiceConfig(method="csp"))
        service.segment(csp_payloads["ohio"])

        def cannot_generalize(sample, verdict):
            raise ExtractionError("segmentation does not generalize")

        monkeypatch.setattr(
            "repro.serve.service.induce_wrapper", cannot_generalize
        )
        response = service.segment(csp_payloads["lee"])
        assert response["path"] == "pipeline"
        assert response["wrapper"] == {"cached": False, "induced": False}
        assert response["drift"]["drifted"]
        assert response["record_count"] > 0
        counters = service.metrics_dict()["counters"]
        assert counters["serve.fallbacks"] == 1
        assert "serve.reinductions" not in counters
        assert counters["serve.registry.invalidations"] == 1
        assert span_counts(service) == {
            "request": 2, "apply": 2, "pipeline": 2, "induce": 2
        }
        # The drifted wrapper is gone: the next request re-runs.
        assert service.registry.sites() == []


class TestServiceGraph:
    """The three serve steps each emit their own span and counters."""

    def test_graph_declares_the_three_serve_stages(self, csp_payloads):
        obs = Observability(clock=ManualClock())
        service = SegmentationService(
            ServiceConfig(method="csp"), metrics=obs.metrics
        )
        service._request_obs = lambda: obs
        service.segment(csp_payloads["ohio"])
        service.segment(csp_payloads["lee"])
        cold, drifted = obs.tracer.roots
        assert [span.name for span in cold.children] == [
            "serve.pipeline", "serve.induce", "serve.apply"
        ]
        assert [span.name for span in drifted.children] == [
            "serve.apply", "serve.pipeline", "serve.induce", "serve.apply"
        ]
        pipeline = drifted.children[1]
        assert pipeline.attributes == {"site": "ohio", "method": "csp"}
        assert drifted.children[0].attributes == {"site": "ohio"}
        assert drifted.children[2].attributes == {"site": "ohio"}
        # The pipeline step nests the whole pipeline.* stage chain.
        assert [span.name for span in pipeline.children] == [
            "pipeline.segment_site"
        ]

    def test_warm_apply_entry_point_counts_outcome(self, ohio_payload):
        service = SegmentationService(ServiceConfig(method="prob"))
        cold = service.segment(ohio_payload)
        warm = service.segment(ohio_payload)
        assert cold["path"] == "pipeline" and warm["path"] == "wrapper"
        counters = service.metrics_dict()["counters"]
        assert counters["serve.wrapper_hits"] == 1
        assert counters["serve.pipeline_runs"] == 1
        # The apply after the cold path's induction opens a
        # serve.apply span but books no warm-path outcome counter.
        assert counters.get("serve.fallbacks", 0) == 0
        assert span_counts(service)["apply"] == 2
