#!/usr/bin/env python
"""End-to-end smoke test of the live crawl lifecycle via the real CLI.

Drives the whole fetch → ingest → segment → churn → re-ingest →
invalidate loop as separate ``python -m repro`` processes, the way an
operator would:

1. exports the seeded generation-0 mixed crawl (12 slots, 14 true
   sub-sites) and ingests it into site bundles;
2. segments the bundles into a relational store (``--store``);
3. exports generation 1 of the same corpus — a few detail pages
   mutated, one template reskinned, one sub-site added, one removed —
   and re-ingests it **incrementally** into the same bundle directory,
   pointing invalidation at the store and a wrapper cache;
4. asserts the diff found carried work (``unchanged > 0``, fewer pages
   re-processed than crawled), that every stale site's store rows were
   dropped, and that the removed sub-site's bundle directory is gone;
5. re-segments the merged bundle directory expecting zero failures and
   re-populating the store;
6. proves ``/query``-visible state is clean: the store's site list has
   no removed bundle, and a broad query returns no row attributed to
   one;
7. cuts the ingest manifest to half its bytes (a torn write), exports
   a smaller mixed crawl, runs a **full** ingest into the same bundle
   directory with ``--store``, and asserts that the subdirectories
   holding a ``sample.json`` are exactly the bundles the new manifest
   lists, and that the store lists no site but those bundles.

Exits non-zero on the first failed expectation.  Run from the repo
root (CI does)::

    PYTHONPATH=src python tools/reingest_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

SLOTS = 12
SEED = 7
SMALL_SLOTS = 4


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"ok: {message}")


def run_cli(*args: str) -> str:
    """Run one ``python -m repro`` command, returning its stdout."""
    command = [sys.executable, "-m", "repro", *args]
    result = subprocess.run(
        command, capture_output=True, text=True, timeout=300
    )
    if result.returncode != 0:
        print(result.stdout)
        print(result.stderr, file=sys.stderr)
        fail(f"{' '.join(command)} exited {result.returncode}")
    return result.stdout


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reingest_smoke_") as tmp:
        return run(Path(tmp))


def run(tmp: Path) -> int:
    gen0, gen1 = tmp / "gen0", tmp / "gen1"
    bundles = tmp / "bundles"
    store_db = tmp / "tables.db"
    wrapper_cache = tmp / "wrappers"

    run_cli(
        "export-corpus", str(gen0), "--mixed", str(SLOTS), "--seed", str(SEED)
    )
    first = json.loads(
        run_cli("ingest", str(gen0), "--out", str(bundles), "--json")
    )
    check(first["reconciled"], "generation-0 ingest reconciles")
    check(
        len(first["bundles"]) == 14,
        f"generation-0 ingest finds 14 bundles ({len(first['bundles'])})",
    )
    check(
        "crawl_health" in first and "diff" in first,
        "ingest --json carries the lifecycle keys (crawl_health, diff)",
    )

    segment0 = run_cli(
        "segment-dir", str(bundles), "--store", str(store_db)
    )
    check(
        "0 failed" in segment0,
        "generation-0 bundles segment into the store without failures",
    )

    churn_line = run_cli(
        "export-corpus",
        str(gen1),
        "--mixed",
        str(SLOTS),
        "--seed",
        str(SEED),
        "--generation",
        "1",
    )
    check("generation 1 churn" in churn_line, "generation-1 export reports churn")

    second = json.loads(
        run_cli(
            "ingest",
            str(gen1),
            "--out",
            str(bundles),
            "--incremental",
            "--store",
            str(store_db),
            "--wrapper-cache-dir",
            str(wrapper_cache),
            "--json",
        )
    )
    check(second["reconciled"], "incremental re-ingest reconciles")
    check(
        second["diff"]["unchanged"] > 0,
        f"diff finds unchanged pages ({second['diff']['unchanged']})",
    )
    check(
        second["reprocessed"] < second["pages"],
        f"re-ingest re-processes a subset "
        f"({second['reprocessed']}/{second['pages']} pages)",
    )
    check(
        len(second["carried"]) > 0,
        f"bundles carried forward ({len(second['carried'])})",
    )
    stale = second["stale_bundles"]
    removed = second["removed_bundles"]
    check(len(stale) > 0, f"stale bundles identified ({len(stale)})")
    check(len(removed) > 0, f"removed sub-site detected ({removed})")
    for name in removed:
        check(
            not (bundles / name).exists(),
            f"removed bundle directory {name} is gone",
        )

    invalidation = second["invalidation"]
    check(invalidation is not None, "invalidation report present in --json")
    check(
        invalidation["errors"] == [],
        "invalidation completed without errors",
    )
    check(
        invalidation["store_sites_removed"] == len(stale),
        f"every stale site's store rows dropped "
        f"({invalidation['store_sites_removed']}/{len(stale)})",
    )

    segment1 = run_cli(
        "segment-dir", str(bundles), "--store", str(store_db)
    )
    check(
        "0 failed" in segment1,
        "merged bundle directory re-segments without failures",
    )

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.store import RelationalStore, query_store

    with RelationalStore(store_db) as store:
        site_ids = {row["site_id"] for row in store.sites()}
        for name in removed:
            check(
                name not in site_ids,
                f"store no longer lists removed site {name}",
            )
        result = query_store(store, "name", limit=1000)
        hit_sites = {row["site"] for row in result.rows}
        check(
            hit_sites.isdisjoint(removed),
            "query returns no rows from removed sub-sites",
        )
        check(len(site_ids) > 0, f"surviving sites still queryable ({len(site_ids)})")

    manifest = bundles / "ingest_manifest.json"
    torn = manifest.read_bytes()
    manifest.write_bytes(torn[: len(torn) // 2])
    small = tmp / "small"
    run_cli(
        "export-corpus", str(small), "--mixed", str(SMALL_SLOTS),
        "--seed", str(SEED),
    )
    third = json.loads(
        run_cli(
            "ingest", str(small), "--out", str(bundles),
            "--store", str(store_db), "--json",
        )
    )
    listed = {entry["name"] for entry in third["bundles"]}
    on_disk = {path.parent.name for path in bundles.glob("*/sample.json")}
    check(
        len(listed) > 0 and on_disk == listed,
        f"a full ingest over a torn manifest leaves exactly "
        f"its {len(listed)} bundles ({len(on_disk)} on disk)",
    )
    check(
        third["invalidation"]["errors"] == [],
        "full-ingest invalidation completed without errors",
    )
    with RelationalStore(store_db) as store:
        stored = {row["site_id"] for row in store.sites()}
    check(
        stored <= listed,
        f"the store lists only bundles of the new manifest "
        f"({len(stored)} sites, {len(stored - listed)} unlisted)",
    )

    print("reingest smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
