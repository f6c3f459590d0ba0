"""The paper's full Section 3 vision, end to end.

    "We envision an application where the user provides a pointer to
    the top-level page — index page or a form — and the system
    automatically navigates the site, retrieving all pages,
    classifying them as list and detail pages, and extracting
    structured data from these pages."

This script is that application, over a simulated site: entry page in,
relational data out — navigation (Next-chain discovery), list/detail
classification, segmentation, column labels, and the merged two-view
relation, with zero site-specific code.

Run:  python examples/full_vision.py [site-name]
"""

from __future__ import annotations

import sys

from repro import SegmentationPipeline, build_site
from repro.crawl import ResilientFetcher, discover_site
from repro.relational import build_table, detail_field_pairs


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "butler"
    site = build_site(name)
    entry = f"{name}-index.html"
    print(f"entry point: {entry}")

    # 1. Navigate: find the results chain + detail pages automatically.
    fetcher = ResilientFetcher(site)
    found = discover_site(fetcher, entry)
    print(f"discovered {len(found.list_pages)} result pages "
          f"({fetcher.health.requests} fetches); detail counts: "
          f"{[len(d) for d in found.detail_pages_per_list]}")

    # 2. Segment.
    run = SegmentationPipeline("prob").segment_site(
        found.list_pages, found.detail_pages_per_list
    )
    print(f"template found: {run.template_verdict.ok}")

    # 3. Reconstruct the relation for the first page, both views merged.
    table = build_table(run.pages[0].segmentation)
    table.merge_detail_fields(
        detail_field_pairs(found.detail_pages_per_list[0])
    )
    print(f"\nrelation {table.shape[0]} x {table.shape[1]}:")
    print("\n".join(table.render().splitlines()[:7]))


if __name__ == "__main__":
    main()
