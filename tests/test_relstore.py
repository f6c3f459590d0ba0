"""Tests for the queryable relational store (:mod:`repro.store`).

Covers the sqlite layer's failure modes (corrupt file, locked
database, closed handle), idempotent ingestion (unchanged re-ingest is
a no-op, changed content replaces in one transaction, degraded runs
are skipped), the cross-site attribute catalog's ingest-order
independence, ranked column-keyword queries with provenance-tagged
rows, and the two production ingest paths: ``segment-dir --store``
(batch) and the serve path's online ingest + ``/query``.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.obs import Observability
from repro.store import (
    Catalog,
    RelationalStore,
    StoreError,
    ingest_batch,
    ingest_pages,
    page_entry,
    parse_keywords,
    query_store,
)
from repro.store.catalog import canonical_label, match_strength
from repro.webdoc.page import Page


def wire_record(*texts, columns=None):
    return {"texts": list(texts), "columns": columns}


def entry(url, records, names=None):
    return {
        "url": url,
        "records": records,
        "record_count": len(records),
        "names": names or {},
    }


INMATES = [
    entry(
        "inmates-list0.html",
        [
            wire_record("Ann Lee", "Fraud", "5,000", columns=[0, 1, 2]),
            wire_record("Bo Park", "Theft", "2,500", columns=[0, 1, 2]),
        ],
        names={"L0": "Name", "L1": "Charge", "L2": "Bail"},
    )
]

PARCELS = [
    entry(
        "parcels-list0.html",
        [
            wire_record("12-001", "Ann Lee", "90,000", columns=[0, 1, 2]),
            wire_record("12-002", "Cy Diaz", "75,500", columns=[0, 1, 2]),
        ],
        names={"L0": "Parcel ID", "L1": "Owner Name", "L2": "Value"},
    )
]


@pytest.fixture()
def store(tmp_path):
    with RelationalStore(tmp_path / "tables.db", obs=Observability()) as s:
        yield s


class TestStoreDb:
    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "tables.db"
        with RelationalStore(path):
            pass
        assert path.is_file()

    def test_corrupt_file_raises_store_error(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is not a sqlite database at all\x00\x01")
        with pytest.raises(StoreError):
            RelationalStore(path)

    def test_locked_database_raises_store_error(self, tmp_path):
        path = tmp_path / "locked.db"
        with RelationalStore(path):
            pass  # lay down the schema first
        blocker = sqlite3.connect(str(path), isolation_level=None)
        try:
            blocker.execute("BEGIN EXCLUSIVE")
            # Opening runs the schema transaction, so even the handle
            # itself refuses with StoreError while another writer holds
            # the file.
            with pytest.raises(StoreError):
                RelationalStore(path, timeout_s=0.05)
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()

    def test_closed_store_raises_store_error(self, tmp_path):
        store = RelationalStore(tmp_path / "tables.db")
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError):
            store.execute("SELECT 1")

    def test_bad_sql_is_store_error_not_sqlite_error(self, store):
        with pytest.raises(StoreError):
            store.execute("SELECT * FROM no_such_table")

    def test_transaction_rolls_back_on_error(self, store):
        before = store.counts()
        with pytest.raises(StoreError):
            with store.transaction() as conn:
                conn.execute(
                    "INSERT INTO attributes (canonical, display)"
                    " VALUES ('x', 'X')"
                )
                conn.execute("INSERT INTO nope VALUES (1)")
        assert store.counts() == before


class TestIngest:
    def test_insert_populates_all_tables(self, store):
        assert ingest_pages(store, "jail", "prob", INMATES) == "inserted"
        counts = store.counts()
        assert counts["sites"] == 1
        assert counts["site_columns"] == 3
        assert counts["cells"] == 6
        (site,) = store.sites()
        assert site["site_id"] == "jail"
        assert site["record_count"] == 2

    def test_reingest_unchanged_is_noop(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        before = store.counts()
        obs = store.obs
        assert ingest_pages(store, "jail", "prob", INMATES) == "unchanged"
        assert store.counts() == before
        assert obs.metrics.counter("store.ingest.unchanged").value == 1

    def test_changed_content_replaces_cells(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        changed = [
            entry(
                "inmates-list0.html",
                [wire_record("Zed Q", "Arson", columns=[0, 1])],
                names={"L0": "Name", "L1": "Charge"},
            )
        ]
        assert ingest_pages(store, "jail", "prob", changed) == "replaced"
        counts = store.counts()
        assert counts["sites"] == 1
        assert counts["cells"] == 2
        values = {value for (value,) in store.execute("SELECT value FROM cells")}
        assert "Ann Lee" not in values and "Zed Q" in values

    def test_empty_ingest_refused(self, store):
        with pytest.raises(StoreError):
            ingest_pages(store, "jail", "prob", [])
        with pytest.raises(StoreError):
            ingest_pages(store, "", "prob", INMATES)

    def test_positional_fallback_on_column_mismatch(self, store):
        # Attached extracts make texts longer than columns; cells must
        # still land, positionally.
        pages = [
            entry(
                "x-list0.html",
                [{"texts": ["a", "b", "c"], "columns": [0, 1]}],
            )
        ]
        ingest_pages(store, "x", "prob", pages)
        assert store.counts()["cells"] == 3

    def test_duplicate_column_joins_values(self, store):
        pages = [
            entry(
                "x-list0.html",
                [wire_record("a", "b", columns=[0, 0])],
            )
        ]
        ingest_pages(store, "x", "prob", pages)
        ((value,),) = store.execute("SELECT value FROM cells")
        assert value == "a / b"

    def test_batch_skips_quarantined_and_wireless(self, store):
        from repro.runner.engine import BatchResult
        from repro.runner.tasks import PageOutcome, TaskResult

        ok = TaskResult(
            task_id="good:prob",
            status="ok",
            pages=[PageOutcome(url="g-list0.html", wire=INMATES[0])],
        )
        quarantined = TaskResult(
            task_id="bad:prob",
            status="quarantined",
            pages=[PageOutcome(url="b-list0.html", wire=PARCELS[0])],
        )
        wireless = TaskResult(
            task_id="plain:prob",
            status="ok",
            pages=[PageOutcome(url="p-list0.html", records=["r0: x"])],
        )
        batch = BatchResult(results=[ok, quarantined, wireless])
        obs = store.obs
        report = ingest_batch(store, batch, method="prob", obs=obs)
        assert report.as_dict() == {
            "sites": 1,
            "rows": 2,
            "unchanged": 0,
            "replaced": 0,
            "skipped": 2,
        }
        assert obs.metrics.counter("store.ingest.skipped").value == 2
        assert [site["site_id"] for site in store.sites()] == ["good"]


class TestCatalog:
    def test_canonical_label(self):
        assert canonical_label("  Owner Name: ") == "owner name"
        assert canonical_label("Assessed-Value") == "assessed value"
        assert canonical_label("L3") == "l3"

    def test_match_strength(self):
        assert match_strength("owner name", "owner name") == 1.0
        assert match_strength("owner", "owner name") == 0.5
        assert match_strength("owner name", "owner") == 0.5
        assert match_strength("owner", "@site/prob:L0") == 0.0
        assert match_strength("owner", "charge") == 0.0

    def test_matching_columns_share_attribute(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        ingest_pages(store, "county", "prob", PARCELS)
        rows = dict(
            store.execute(
                "SELECT site_id || '/' || column_key, attribute_id"
                " FROM site_columns"
            )
        )
        # No shared exact label between the two fixtures...
        assert rows["jail/L0"] != rows["county/L1"]
        # ...until a third site reuses one.
        ingest_pages(
            store,
            "jail2",
            "prob",
            [
                entry(
                    "j2-list0.html",
                    [wire_record("Di Fox", columns=[0])],
                    names={"L0": "Name"},
                )
            ],
        )
        rows = dict(
            store.execute(
                "SELECT site_id || '/' || column_key, attribute_id"
                " FROM site_columns"
            )
        )
        assert rows["jail/L0"] == rows["jail2/L0"]

    def test_attribute_ids_ingest_order_independent(self, tmp_path):
        def catalog_view(order):
            with RelationalStore(tmp_path / f"{order[0][0]}.db") as store:
                for site_id, pages in order:
                    ingest_pages(store, site_id, "prob", pages)
                return sorted(
                    store.execute(
                        "SELECT c.site_id, c.column_key, a.canonical"
                        " FROM site_columns c JOIN attributes a"
                        " ON a.attribute_id = c.attribute_id"
                    )
                )

        forward = catalog_view([("jail", INMATES), ("county", PARCELS)])
        backward = catalog_view([("county", PARCELS), ("jail", INMATES)])
        assert forward == backward

    def test_unnamed_columns_stay_site_local(self, store):
        ingest_pages(
            store,
            "a",
            "prob",
            [entry("a-list0.html", [wire_record("x", columns=[0])])],
        )
        ingest_pages(
            store,
            "b",
            "prob",
            [entry("b-list0.html", [wire_record("y", columns=[0])])],
        )
        rows = dict(
            store.execute("SELECT site_id, attribute_id FROM site_columns")
        )
        # Both columns are anonymous L0s yet must not share an attribute.
        assert rows["a"] != rows["b"]
        catalog = Catalog(store)
        assert catalog.match_keyword("l0") == {}


class TestQuery:
    @pytest.fixture()
    def loaded(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        ingest_pages(store, "county", "prob", PARCELS)
        return store

    def test_parse_keywords(self):
        assert parse_keywords("name, charge, bail") == [
            "name",
            "charge",
            "bail",
        ]
        assert parse_keywords(["name", "charge,bail", " ", "!!"]) == [
            "name",
            "charge",
            "bail",
        ]

    def test_no_keywords_raises(self, loaded):
        with pytest.raises(ValueError):
            query_store(loaded, "  ,  ")

    def test_full_match_outranks_partial(self, loaded):
        result = query_store(loaded, "name, charge, bail")
        assert [hit.site_id for hit in result.tables] == ["jail", "county"]
        jail, county = result.tables
        assert jail.score > county.score
        assert set(jail.columns) == {"name", "charge", "bail"}
        # "name" word-matches county's "Owner Name" at half strength.
        assert county.columns["name"]["strength"] == 0.5

    def test_rows_carry_provenance(self, loaded):
        result = query_store(loaded, "charge")
        assert [hit.site_id for hit in result.tables] == ["jail"]
        row = result.rows[0]
        assert row["site"] == "jail"
        assert row["page"] == "inmates-list0.html"
        assert row["record"] == 0
        assert row["values"] == {"charge": "Fraud"}

    def test_union_follows_rank_order(self, loaded):
        result = query_store(loaded, "name")
        assert [row["site"] for row in result.rows] == [
            "jail",
            "jail",
            "county",
            "county",
        ]
        assert result.as_dict()["row_count"] == 4

    def test_limit_spreads_over_ranked_tables(self, loaded):
        result = query_store(loaded, "name", limit=3)
        assert len(result.rows) == 3
        assert [row["site"] for row in result.rows] == [
            "jail",
            "jail",
            "county",
        ]

    def test_method_filter(self, loaded):
        assert query_store(loaded, "name", method="csp").tables == []
        assert query_store(loaded, "name", method="prob").tables

    def test_as_dict_is_json_ready(self, loaded):
        import json

        payload = query_store(loaded, "name, bail").as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["keywords"] == ["name", "bail"]
        assert payload["tables"][0]["site"] == "jail"


class TestPageEntry:
    def test_names_from_detail_pages(self):
        from repro.sitegen.corpus import build_site

        site = build_site("allegheny")
        from repro.core.pipeline import SegmentationPipeline
        from repro.relational.detail_fields import detail_field_pairs
        from repro.serve.schema import segmentation_records

        run = SegmentationPipeline("prob").segment_generated_site(site)
        page_run = run.pages[0]
        made = page_entry(
            page_run.page.url,
            segmentation_records(page_run.segmentation),
            detail_field_pairs(site.detail_pages(0)),
        )
        assert made["names"].get("L0") == "Parcel ID"
        assert made["names"].get("L1") == "Owner"

    def test_no_details_no_names(self):
        made = page_entry("u.html", [wire_record("a", columns=[0])])
        assert made["names"] == {}
        assert made["record_count"] == 1


class TestBatchPath:
    def test_segment_dir_batch_collects_wire_and_ingests(self, tmp_path):
        from repro.runner import BatchRunner, RunnerConfig, tasks_for_sites

        batch = BatchRunner(
            RunnerConfig(collect_wire=True)
        ).run(tasks_for_sites(["ohio"], method="prob"))
        assert batch.ok
        assert all(
            page.wire is not None
            for result in batch.results
            for page in result.pages
        )
        with RelationalStore(tmp_path / "t.db", obs=Observability()) as store:
            report = ingest_batch(store, batch, method="prob")
            assert report.sites == 1 and report.rows > 0
            result = query_store(store, "name")
            assert result.tables[0].site_id == "ohio"
            # Ingesting the same batch again changes nothing.
            before = store.counts()
            again = ingest_batch(store, batch, method="prob")
            assert again.unchanged == 1 and again.sites == 0
            assert store.counts() == before

    def test_wire_off_by_default(self):
        from repro.runner import BatchRunner, RunnerConfig, tasks_for_sites

        batch = BatchRunner(RunnerConfig()).run(
            tasks_for_sites(["superpages"], method="prob")
        )
        assert all(
            page.wire is None
            for result in batch.results
            for page in result.pages
        )


class TestServePath:
    @pytest.fixture(scope="class")
    def ohio_payload(self):
        from repro.serve import payload_from_pages
        from repro.sitegen.corpus import build_site

        site = build_site("ohio")
        return payload_from_pages(
            "ohio",
            site.list_pages,
            [site.detail_pages(i) for i in range(len(site.list_pages))],
        )

    def test_online_ingest_then_query(self, tmp_path, ohio_payload):
        from repro.serve import SegmentationService, ServiceConfig

        service = SegmentationService(
            ServiceConfig(method="prob", store_path=str(tmp_path / "s.db"))
        )
        service.segment(ohio_payload)
        answer = service.query(["name"])
        assert answer["tables"][0]["site"] == "ohio"
        assert answer["row_count"] > 0
        assert answer["rows"][0]["page"].startswith("ohio-")

    def test_warm_path_reingest_is_noop(self, tmp_path, ohio_payload):
        from repro.serve import SegmentationService, ServiceConfig

        service = SegmentationService(
            ServiceConfig(method="prob", store_path=str(tmp_path / "w.db"))
        )
        cold = service.segment(ohio_payload)
        before = service.store.counts()
        warm = service.segment(ohio_payload)
        assert warm["path"] == "wrapper"
        assert service.store.counts() == before
        assert [p["records"] for p in cold["pages"]] == [
            p["records"] for p in warm["pages"]
        ]

    def test_fields_are_parsed_only_when_the_store_writes(
        self, tmp_path, ohio_payload, monkeypatch
    ):
        from repro.core.pipeline import SegmentationPipeline
        from repro.serve import SegmentationService, ServiceConfig

        service = SegmentationService(
            ServiceConfig(method="prob", store_path=str(tmp_path / "f.db"))
        )
        service.segment(ohio_payload)
        parsed = []
        real = SegmentationPipeline.detail_fields

        def spy(pipeline, details):
            parsed.append(len(details))
            return real(pipeline, details)

        monkeypatch.setattr(SegmentationPipeline, "detail_fields", spy)
        unchanged = service.metrics.counter("store.ingest.unchanged")
        warm = service.segment(ohio_payload)
        assert warm["path"] == "wrapper"
        assert unchanged.value == 1
        assert parsed == []
        # A request that changes the site's content writes, and so parses.
        single = dict(ohio_payload, pages=ohio_payload["pages"][:1])
        assert service.segment(single)["path"] == "wrapper"
        assert unchanged.value == 1
        assert parsed == [len(ohio_payload["pages"][0]["details"])]

    def test_write_time_naming_stores_what_eager_naming_does(self, tmp_path):
        """A seeded cold-then-warm sequence over a mixed crawl.

        The reference names every healthy response's pages before the
        store looks at the fingerprint (detail pages parsed with
        ``detail_field_pairs`` on every request) and ingests them into
        a second store; every table but ``ingested_at`` must match.
        """
        import random

        from repro.ingest import ingest_pages as bundle_pages
        from repro.relational.detail_fields import detail_field_pairs
        from repro.serve import SegmentationService, ServiceConfig
        from repro.serve import payload_from_pages
        from repro.sitegen.mixed import MixedCorpusSpec, build_mixed_corpus

        corpus = build_mixed_corpus(MixedCorpusSpec(sites=4, seed=3))
        bundles = bundle_pages(corpus.pages).bundles
        requests = [
            payload_from_pages(b.name, b.list_pages, b.detail_pages_per_list)
            for b in bundles
        ]
        singles = [
            payload_from_pages(b.name, [page], [details])
            for b in bundles
            for page, details in zip(b.list_pages, b.detail_pages_per_list)
        ]
        rng = random.Random(7)
        requests += [rng.choice(singles) for _ in range(3 * len(singles))]

        service = SegmentationService(
            ServiceConfig(method="prob", store_path=str(tmp_path / "lazy.db"))
        )
        skipped = service.metrics.counter("store.ingest.skipped")
        with RelationalStore(tmp_path / "eager.db", obs=Observability()) as eager:
            for payload in requests:
                before = skipped.value
                response = service.segment(payload)
                if skipped.value > before:
                    continue
                details = {
                    page.get("url"): page["details"]
                    for page in payload["pages"]
                }
                entries = []
                for page in response["pages"]:
                    site_details = [
                        Page(url=f"d{i}.html", html=html, kind="detail")
                        for i, html in enumerate(details[page["url"]])
                    ]
                    fields = (
                        detail_field_pairs(site_details)
                        if site_details and page["records"]
                        else None
                    )
                    entries.append(
                        page_entry(page["url"], page["records"], fields)
                    )
                ingest_pages(
                    eager, response["site"], "prob", entries, source="serve"
                )
            outcomes = service.metrics.as_dict()["counters"]
            assert outcomes["store.ingest.unchanged"] > 0
            assert outcomes["store.ingest.replaced"] > 0
            for query in (
                "SELECT * FROM cells ORDER BY 1, 2, 3, 4, 5",
                "SELECT * FROM site_columns ORDER BY 1, 2, 3",
                "SELECT * FROM attributes ORDER BY 1",
                "SELECT site_id, method, fingerprint, page_count,"
                " record_count, source FROM sites ORDER BY 1, 2",
            ):
                expected = eager.execute(query)
                assert expected
                assert service.store.execute(query) == expected

    def test_query_without_store_is_404(self):
        from repro.serve import SegmentationService, ServeError, ServiceConfig

        service = SegmentationService(ServiceConfig(method="prob"))
        with pytest.raises(ServeError) as excinfo:
            service.query(["name"])
        assert excinfo.value.status == 404

    def test_empty_query_is_400(self, tmp_path):
        from repro.serve import SegmentationService, ServeError, ServiceConfig

        service = SegmentationService(
            ServiceConfig(method="prob", store_path=str(tmp_path / "q.db"))
        )
        with pytest.raises(ServeError) as excinfo:
            service.query([" , "])
        assert excinfo.value.status == 400

    def test_broken_store_never_breaks_the_response(
        self, tmp_path, ohio_payload
    ):
        from repro.serve import SegmentationService, ServiceConfig

        service = SegmentationService(
            ServiceConfig(method="prob", store_path=str(tmp_path / "b.db"))
        )
        service.store.close()  # simulate a store failing mid-flight
        response = service.segment(ohio_payload)
        assert response["record_count"] > 0


class TestRemoveSite:
    def test_remove_then_query_returns_nothing(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        ingest_pages(store, "county", "prob", PARCELS)
        removed = store.remove_site("jail")
        # All three jail attributes orphan: county's "Owner Name" is a
        # distinct catalog attribute that only word-matches "Name".
        assert removed == {
            "sites": 1,
            "columns": 3,
            "cells": 6,
            "attributes": 3,
        }
        result = query_store(store, "charge")
        assert result.tables == []
        assert result.rows == []
        # The untouched site still answers.
        result = query_store(store, "owner")
        assert [hit.site_id for hit in result.tables] == ["county"]

    def test_remove_prunes_only_orphaned_attributes(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        ingest_pages(store, "county", "prob", PARCELS)
        store.remove_site("jail")
        catalog = {
            row[0]
            for row in store.execute("SELECT canonical FROM attributes")
        }
        assert catalog.isdisjoint({"name", "charge", "bail"})
        assert {"parcel id", "owner name", "value"} <= catalog

    def test_remove_nonexistent_is_noop(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        before = store.counts()
        removed = store.remove_site("never-ingested")
        assert removed == {
            "sites": 0,
            "columns": 0,
            "cells": 0,
            "attributes": 0,
        }
        assert store.counts() == before

    def test_remove_single_method_keeps_other_methods(self, store):
        ingest_pages(store, "jail", "prob", INMATES)
        ingest_pages(store, "jail", "csp", INMATES)
        removed = store.remove_site("jail", method="prob")
        assert removed["sites"] == 1
        assert removed["attributes"] == 0  # csp columns still reference them
        (site,) = store.sites()
        assert site["method"] == "csp"
