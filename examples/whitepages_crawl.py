"""End-to-end hidden-web extraction: crawl, classify, segment, merge.

This is the paper's Section 3 vision in one script: starting from a
site's list pages, the crawler follows every link and tells detail
pages from advertisements by template fingerprint, the segmenter
aligns list rows with their detail pages, and finally the *two views
of each record* (list row + detail page) are merged into one combined
record — "we can potentially combine the two views to get a more
complete view of the record".

Run:  python examples/whitepages_crawl.py
"""

from __future__ import annotations

from repro import SegmentationPipeline, build_site
from repro.crawl import crawl_site
from repro.webdoc.html import strip_tags


def main() -> None:
    site = build_site("sprintcanada")
    print(f"crawling {site.spec.title!r} "
          f"({len(site.list_pages)} list pages)...")

    crawl = crawl_site(site)
    for result in crawl.results:
        print(f"  {result.list_page.url}: "
              f"{len(result.detail_pages)} detail pages, "
              f"{len(result.other_pages)} other pages, "
              f"{len(result.dead_links)} dead links")

    pipeline = SegmentationPipeline("csp")
    run = pipeline.segment_site(crawl.list_pages, crawl.detail_pages_per_list)

    # Merge the two views of the first few records of page 0.
    segmentation = run.pages[0].segmentation
    details = crawl.detail_pages_per_list[0]
    print("\ncombined records (list view + detail view):")
    for record in segmentation.records[:5]:
        list_view = " | ".join(record.extract_texts)
        detail_text = strip_tags(details[record.record_id].html)
        print(f"\n  r{record.record_id}")
        print(f"    list view:   {list_view}")
        print(f"    detail view: {detail_text[:110]}...")

    print(f"\nsegmented {segmentation.record_count} of "
          f"{len(site.truth[0].rows)} records on page 0")


if __name__ == "__main__":
    main()
