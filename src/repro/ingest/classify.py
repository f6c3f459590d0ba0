"""Page-type classification: list / detail / other.

The paper's Section 3 navigation assumes the system can tell result
("list") pages from record ("detail") pages from everything else.
Over an arbitrary crawl that distinction comes from three structural
signals, all already collected by the fingerprint pass:

* **link fanout** — a list page links out to a screenful of records;
  a detail page carries only a handful of chrome links; ads and other
  dead ends often link nowhere.
* **repeating structure** — a list page renders one row template many
  times, so most of its structural shingles are repeats.
* **forms** — a page with a ``<form>`` is a search entry point, not a
  data page, whatever else it looks like.

The classification is a deterministic *prior*: the bundler
(:mod:`repro.ingest.bundle`) trusts it only in aggregate (a cluster
is treated as a list cluster when most members classify as lists) and
demotes pages the chain/fanout evidence contradicts — a portal page
classifies as "list" here but never survives bundling.
"""

from __future__ import annotations

from repro.ingest.fingerprint import PageProfile

__all__ = ["PageKind", "classify_profile", "classify_profiles"]

#: The three page types, as string constants (JSON-friendly).
PageKind = str

LIST: PageKind = "list"
DETAIL: PageKind = "detail"
OTHER: PageKind = "other"

#: Minimum distinct outgoing links of a list page.  A results page
#: links to every row's record plus chrome; generated list pages sit
#: well above 10.
MIN_LIST_FANOUT = 6
#: Minimum :attr:`PageProfile.repeat_ratio` of a list page.  Row
#: templates repeat, so list pages score 0.5+; one-off pages near 0.
MIN_LIST_REPEAT = 0.25
#: Maximum fanout of a detail page: record pages carry only chrome
#: links (home / search / footer).
MAX_DETAIL_FANOUT = 5


def classify_profile(profile: PageProfile) -> PageKind:
    """Classify one fingerprinted page as list / detail / other."""
    if profile.has_form:
        return OTHER
    fanout = profile.link_fanout
    if fanout >= MIN_LIST_FANOUT and profile.repeat_ratio >= MIN_LIST_REPEAT:
        return LIST
    if 1 <= fanout <= MAX_DETAIL_FANOUT:
        return DETAIL
    return OTHER


def classify_profiles(profiles: list[PageProfile]) -> list[PageKind]:
    """Classify every profile; output parallels the input."""
    return [classify_profile(profile) for profile in profiles]
