"""An adversarial mixed crawl: many sites plus distractor page soup.

Every other sitegen family produces one clean site at a time; the
ingestion front door (:mod:`repro.ingest`) needs the opposite — a
single flat crawl mixing dozens of sites' pages with everything a real
crawl drags in:

* **multi-template sites** — every ``multi_template_every``-th site
  slot renders *two* sub-sites from different templates (grid vs
  free-form layout, different domain) plus a portal page linking both,
  so correct ingestion must split one "site" into two bundles;
* **near-duplicate templates** — the family rotates a small set of
  layout/domain variants across many sites, so unrelated sites share
  almost-identical templates and correct ingestion must *not* split on
  textual differences (labels, record data);
* **distractors** — per-site search forms and advertisement pages,
  plus standalone search hubs, portal pages, an ad farm stamped from
  the sites' own ad template, and structurally unique orphan pages.

Everything is generated from one integer seed and the output is
byte-identical across runs; the ground truth (which pages belong to
which sub-site, which are distractors) rides along so ingestion
precision/recall can be scored exactly.

**Generations.**  Real sites change between crawls, so a spec can
also carry ``generation=G``: generation 0 is the base corpus, and
each later generation applies one seeded churn step on top of the
previous one — ``churn_removed`` sub-sites vanish, ``churn_reskins``
sub-sites are re-rendered from a *different* template (every page's
bytes change, the URL set mostly survives), ``churn_added`` new
sub-sites appear, and ``churn_mutations`` detail pages get an
in-place content edit (one appended paragraph; the template, and
therefore the page's cluster, survives).  Pages untouched by churn
are **byte-identical** across generations — the invariant the
fingerprint-diff re-ingest path (:mod:`repro.ingest.diff`) is
benchmarked against — and distractor pages never churn (portal link
targets are pinned to the generation-0 membership, so a portal may
dangle at a removed site exactly like a stale link on the live web).
The last generation's churn rides along as ground truth
(:class:`GenerationChurn`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from repro.sitegen.domains.corrections import (
    _corrections_extras,
    _inmate_schema,
    _no_categorical_singletons,
)
from repro.sitegen.domains.propertytax import _parcel_schema, _tax_extras
from repro.sitegen.rendering import HtmlBuilder, NOISE_WORDS, ad_sentence, link
from repro.sitegen.rng import SiteRng
from repro.sitegen.site import GeneratedSite, RowLayout, SiteSpec
from repro.sitegen.sweeps import _INMATE_LABELS, _PARCEL_LABELS
from repro.webdoc.page import Page
from repro.webdoc.store import CRAWL_MANIFEST_NAME, plain_name, save_crawl

__all__ = [
    "CRAWL_MANIFEST_NAME",
    "BundleScore",
    "GenerationChurn",
    "MixedCorpus",
    "MixedCorpusSpec",
    "TrueSite",
    "build_mixed_corpus",
    "load_crawl_pages",
    "score_bundles",
    "write_crawl",
]


#: Plain single-template slot names (``mix007``); only these churn,
#: so multi-template slots and their stitched portals stay stable.
_PLAIN_SITE = re.compile(r"^mix\d+$")

#: The template rotation: (domain, schema factory, detail extras,
#: post-process hook, row layout).  Layouts alternate grid/free-form
#: so a multi-template slot (which pairs consecutive variants) always
#: combines two structurally distinct templates.
_VARIANTS = (
    ("propertytax", lambda: _parcel_schema("PA"), _tax_extras, None, RowLayout.GRID),
    (
        "corrections",
        lambda: _inmate_schema("MX"),
        _corrections_extras,
        _no_categorical_singletons,
        RowLayout.FLAT,
    ),
    (
        "corrections",
        lambda: _inmate_schema("MZ"),
        _corrections_extras,
        _no_categorical_singletons,
        RowLayout.GRID,
    ),
    ("propertytax", lambda: _parcel_schema("PA"), _tax_extras, None, RowLayout.FLAT),
)

_ORPHAN_TAGS = (
    "div", "p", "span", "ul", "li", "h2", "h3",
    "blockquote", "em", "pre", "dl", "dt", "dd", "code",
)


@dataclass(frozen=True)
class MixedCorpusSpec:
    """Declarative description of one mixed crawl.

    Attributes:
        sites: number of site *slots*.  Every
            ``multi_template_every``-th slot holds two sub-sites, so
            the true site count is larger (see
            :meth:`expected_site_count`).
        seed: master seed; everything derives from it.
        records: records per list page (each sub-site has two list
            pages).
        multi_template_every: slot period of multi-template sites.
        orphans / form_pages / portal_pages / ad_farm_pages:
            standalone distractor counts; ``None`` scales each with
            ``sites`` so the default mix stays above one distractor
            page in four.
        generation: how many seeded churn steps to apply on top of
            the base corpus (0 = the base; see the module docstring).
        churn_mutations / churn_reskins / churn_added /
        churn_removed: per-generation churn sizes — detail pages
            edited in place, sub-sites re-templated, sub-sites added,
            sub-sites removed.
    """

    sites: int = 40
    seed: int = 0
    records: int = 9
    multi_template_every: int = 5
    orphans: int | None = None
    form_pages: int | None = None
    portal_pages: int | None = None
    ad_farm_pages: int | None = None
    generation: int = 0
    churn_mutations: int = 6
    churn_reskins: int = 1
    churn_added: int = 1
    churn_removed: int = 1

    @property
    def orphan_count(self) -> int:
        return self.orphans if self.orphans is not None else 3 * self.sites

    @property
    def form_page_count(self) -> int:
        return self.form_pages if self.form_pages is not None else self.sites

    @property
    def portal_page_count(self) -> int:
        if self.portal_pages is not None:
            return self.portal_pages
        return max(2, self.sites // 3)

    @property
    def ad_farm_page_count(self) -> int:
        if self.ad_farm_pages is not None:
            return self.ad_farm_pages
        return 2 * self.sites

    def slot_names(self, slot: int) -> list[str]:
        """Sub-site names of one slot (two for multi-template slots)."""
        base = f"mix{slot:03d}"
        if self.multi_template_every > 0 and (
            slot % self.multi_template_every == 2
        ):
            return [f"{base}a", f"{base}b"]
        return [base]

    def expected_site_count(self) -> int:
        """True (sub-)site count across all slots."""
        return sum(len(self.slot_names(slot)) for slot in range(self.sites))


@dataclass(frozen=True)
class TrueSite:
    """Ground truth for one sub-site inside the crawl."""

    name: str
    list_urls: tuple[str, ...]
    detail_urls_per_list: tuple[tuple[str, ...], ...]

    def page_urls(self) -> list[str]:
        """All true member URLs: list pages then details, in order."""
        urls = list(self.list_urls)
        for details in self.detail_urls_per_list:
            urls.extend(details)
        return urls


@dataclass(frozen=True)
class GenerationChurn:
    """Ground truth of one generation step (the *last* one applied).

    URLs/names are relative to the previous generation: ``mutated``
    pages exist in both with different bytes, ``reskinned`` sites
    exist in both with every page's bytes changed, ``added`` /
    ``removed`` sites exist only after / only before.
    """

    generation: int
    mutated: tuple[str, ...]  #: detail URLs edited in place
    reskinned: tuple[str, ...]  #: site names re-rendered from a new template
    added: tuple[str, ...]  #: new sub-site names
    removed: tuple[str, ...]  #: dropped sub-site names

    def as_dict(self) -> dict:
        return {
            "generation": self.generation,
            "mutated": list(self.mutated),
            "reskinned": list(self.reskinned),
            "added": list(self.added),
            "removed": list(self.removed),
        }


@dataclass
class MixedCorpus:
    """One generated crawl plus its ground truth.

    ``pages`` is the crawl itself — every page in a deterministic
    shuffled order with ``kind=None``, exactly as anonymous as a real
    crawl.  ``generated`` keeps the underlying :class:`GeneratedSite`
    objects so tests can run the clean single-site path against the
    same sub-sites.  ``churn`` records the last generation step
    applied (None for generation 0).
    """

    spec: MixedCorpusSpec
    pages: list[Page]
    sites: list[TrueSite]
    distractor_urls: frozenset[str]
    generated: dict[str, GeneratedSite]
    churn: GenerationChurn | None = None

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def truth_urls(self) -> frozenset[str]:
        urls: set[str] = set()
        for site in self.sites:
            urls.update(site.page_urls())
        return frozenset(urls)

    @property
    def distractor_ratio(self) -> float:
        return len(self.distractor_urls) / len(self.pages)


def _sub_site(
    name: str, variant_index: int, label_index: int, records: int, seed: int
) -> GeneratedSite:
    domain, schema_factory, extras, post, layout = _VARIANTS[
        variant_index % len(_VARIANTS)
    ]
    if domain == "propertytax":
        labels = _PARCEL_LABELS[label_index % len(_PARCEL_LABELS)]
    else:
        labels = _INMATE_LABELS[label_index % len(_INMATE_LABELS)]
    spec = SiteSpec(
        name=name,
        title=f"Mixed {name}",
        domain=domain,
        schema=schema_factory(),
        records_per_page=(records, records),
        layout=layout,
        seed=seed,
        detail_labels=dict(labels),
        detail_extras=extras,
        post_process=post,
    )
    return GeneratedSite(spec)


def _orphan_page(index: int, seed: int) -> Page:
    """A structurally unique dead-end page (no links, no form)."""
    rng = SiteRng(seed * 7919 + index)
    builder = HtmlBuilder()
    builder.add("<html><head><title>")
    builder.add_text(f"Archive item {index}")
    builder.add("</title></head><body>")
    # A random tag sequence per orphan: no two orphans (and no orphan
    # and any template) share enough structure to cluster together.
    for _ in range(6 + index % 9):
        tag = rng.pick(_ORPHAN_TAGS)
        builder.add(f"<{tag}>")
        builder.add_text(
            " ".join(rng.pick(NOISE_WORDS) for _ in range(rng.randint(1, 5)))
        )
        builder.add(f"</{tag}>")
        if rng.chance(0.4):
            inner = rng.pick(_ORPHAN_TAGS)
            builder.add(f"<{inner}>")
            builder.add_text(rng.pick(NOISE_WORDS))
            builder.add(f"</{inner}>")
    builder.add("</body></html>")
    return Page(url=f"orphan-{index:03d}.html", html=builder.build())


def _form_page(index: int, seed: int) -> Page:
    """A standalone search hub: all form, no data."""
    rng = SiteRng(seed * 104729 + index)
    builder = HtmlBuilder()
    builder.add("<html><head><title>")
    builder.add_text(f"Search Hub {index}")
    builder.add("</title></head><body><h1>")
    builder.add_text(ad_sentence(rng, 3))
    builder.add("</h1>")
    builder.add(
        '<form action="results.html" method="get">'
        '<input name="q" type="text"> '
        '<select name="state"><option>Any</option></select> '
        '<input type="submit" value="Find"></form>'
    )
    builder.add("<p>")
    builder.add_text(ad_sentence(rng, 10))
    builder.add("</p></body></html>")
    return Page(url=f"searchhub-{index:03d}.html", html=builder.build())


def _portal_page(url: str, title: str, targets: list[str], seed: int) -> Page:
    """A link hub: repeating list-like structure, heterogeneous targets."""
    rng = SiteRng(seed)
    builder = HtmlBuilder()
    builder.add("<html><head><title>")
    builder.add_text(title)
    builder.add("</title></head><body><h1>")
    builder.add_text(title)
    builder.add("</h1><ul>")
    for target in targets:
        builder.add("<li>")
        builder.add(link(target, ad_sentence(rng, 2)))
        builder.add("</li>")
    builder.add("</ul></body></html>")
    return Page(url=url, html=builder.build())


def _ad_farm_page(index: int, seed: int) -> Page:
    """An off-site ad stamped from the sites' own ad template."""
    rng = SiteRng(seed * 15485863 + index)
    builder = HtmlBuilder()
    builder.add("<html><head><title>Special Offer</title></head><body><h1>")
    builder.add_text(ad_sentence(rng, 4))
    builder.add("</h1><p>")
    builder.add_text(ad_sentence(rng, 20))
    builder.add("</p></body></html>")
    return Page(url=f"adfarm-{index:03d}.html", html=builder.build())


def _truth_of(site: GeneratedSite) -> TrueSite:
    """The ground-truth membership of one generated sub-site."""
    return TrueSite(
        name=site.spec.name,
        list_urls=tuple(page.url for page in site.list_pages),
        detail_urls_per_list=tuple(
            tuple(page.url for page in site.detail_pages(i))
            for i in range(len(site.list_pages))
        ),
    )


def build_mixed_corpus(spec: MixedCorpusSpec | None = None) -> MixedCorpus:
    """Generate the crawl.  Deterministic: one seed, one byte stream.

    With ``spec.generation > 0`` the base corpus is churned that many
    times (see the module docstring); every page not named by the
    churn is byte-identical to its previous-generation self.
    """
    spec = spec or MixedCorpusSpec()
    by_url: dict[str, str] = {}
    sites: list[TrueSite] = []
    distractors: set[str] = set()
    generated: dict[str, GeneratedSite] = {}
    variant_of: dict[str, int] = {}

    def add_page(url: str, html: str, distractor: bool) -> None:
        if url in by_url:
            raise ValueError(f"mixed corpus generated duplicate url {url!r}")
        by_url[url] = html
        if distractor:
            distractors.add(url)

    def add_site(site: GeneratedSite) -> TrueSite:
        name = site.spec.name
        generated[name] = site
        truth = _truth_of(site)
        sites.append(truth)
        truth_urls = set(truth.page_urls())
        for url in site.urls():
            add_page(url, site.fetch(url).html, url not in truth_urls)
        return truth

    def drop_site(name: str) -> None:
        site = generated.pop(name)
        for url in site.urls():
            by_url.pop(url, None)
            distractors.discard(url)
        sites[:] = [truth for truth in sites if truth.name != name]

    variant_cursor = 0
    for slot in range(spec.sites):
        names = spec.slot_names(slot)
        slot_sites: list[GeneratedSite] = []
        for name in names:
            site = _sub_site(
                name,
                variant_index=variant_cursor,
                label_index=slot % 3,
                records=spec.records,
                seed=spec.seed * 1000003 + slot * 31 + len(slot_sites),
            )
            variant_of[name] = variant_cursor
            variant_cursor += 1
            slot_sites.append(site)
            add_site(site)
        if len(slot_sites) > 1:
            # A portal stitching the slot's sub-sites together: the
            # "one site, several templates" entry page.
            targets = []
            for site in slot_sites:
                name = site.spec.name
                targets += [
                    f"{name}-list0.html",
                    f"{name}-index.html",
                    f"{name}-ad0.html",
                ]
            portal = _portal_page(
                url=f"mix{slot:03d}-portal.html",
                title=f"Mixed Portal {slot}",
                targets=targets,
                seed=spec.seed * 523 + slot,
            )
            add_page(portal.url, portal.html, True)

    # Portal link targets are pinned to the generation-0 membership
    # *before* churn: distractor pages never change across
    # generations, even when a target site has since been removed
    # (a dangling portal link, like the live web's stale directories).
    base_list0_urls = [site.list_urls[0] for site in sites]

    churn: GenerationChurn | None = None
    for gen in range(1, spec.generation + 1):
        rng = SiteRng(spec.seed).fork(f"generation-{gen}")
        plain = sorted(
            truth.name for truth in sites if _PLAIN_SITE.match(truth.name)
        )

        removed: list[str] = []
        for _ in range(min(spec.churn_removed, max(0, len(plain) - 2))):
            name = rng.pick(plain)
            plain.remove(name)
            removed.append(name)
            drop_site(name)

        reskinned: list[str] = []
        for _ in range(min(spec.churn_reskins, len(plain))):
            name = rng.pick(plain)
            plain.remove(name)
            reskinned.append(name)
            drop_site(name)
            # A different variant index is a different template *and*
            # a different row layout (the rotation alternates
            # grid/flat), so every page's bytes change.
            variant = variant_of[name] + 1 + rng.randint(0, len(_VARIANTS) - 2)
            variant_of[name] = variant
            add_site(
                _sub_site(
                    name,
                    variant_index=variant,
                    label_index=rng.randint(0, 5),
                    records=spec.records,
                    seed=spec.seed * 1000003 + 999331 * gen + rng.randint(0, 997),
                )
            )

        added: list[str] = []
        for index in range(spec.churn_added):
            name = f"gen{gen}site{index}"
            added.append(name)
            variant = rng.randint(0, len(_VARIANTS) - 1)
            variant_of[name] = variant
            add_site(
                _sub_site(
                    name,
                    variant_index=variant,
                    label_index=rng.randint(0, 5),
                    records=spec.records,
                    seed=spec.seed * 1000003 + 15485863 * gen + index,
                )
            )

        frozen = set(reskinned) | set(added)
        eligible = sorted(
            url
            for truth in sites
            if truth.name not in frozen
            for details in truth.detail_urls_per_list
            for url in details
        )
        mutated = rng.sample(
            eligible, min(spec.churn_mutations, len(eligible))
        )
        for url in mutated:
            marker = (
                f'<p class="updated">Record updated: generation {gen}, '
                f"rev {rng.randint(1000, 9999)}.</p>"
            )
            html = by_url[url]
            if "</body>" in html:
                by_url[url] = html.replace("</body>", marker + "</body>", 1)
            else:  # pragma: no cover - every template closes its body
                by_url[url] = html + marker

        churn = GenerationChurn(
            generation=gen,
            mutated=tuple(sorted(mutated)),
            reskinned=tuple(sorted(reskinned)),
            added=tuple(sorted(added)),
            removed=tuple(sorted(removed)),
        )

    for index in range(spec.orphan_count):
        page = _orphan_page(index, spec.seed)
        add_page(page.url, page.html, True)
    for index in range(spec.form_page_count):
        page = _form_page(index, spec.seed)
        add_page(page.url, page.html, True)
    for index in range(spec.ad_farm_page_count):
        page = _ad_farm_page(index, spec.seed)
        add_page(page.url, page.html, True)

    portal_rng = SiteRng(spec.seed * 2971 + 17)
    list0_urls = base_list0_urls
    for index in range(spec.portal_page_count):
        targets = portal_rng.sample(list0_urls, min(8, len(list0_urls)))
        targets += [
            f"adfarm-{portal_rng.randint(0, max(0, spec.ad_farm_page_count - 1)):03d}.html"
            for _ in range(2)
            if spec.ad_farm_page_count > 0
        ]
        page = _portal_page(
            url=f"portal-{index:03d}.html",
            title=f"Directory Portal {index}",
            targets=targets,
            seed=spec.seed * 6421 + index,
        )
        add_page(page.url, page.html, True)

    shuffle_rng = SiteRng(spec.seed).fork("crawl-order")
    order = shuffle_rng.shuffled(sorted(by_url))
    pages = [Page(url=url, html=by_url[url]) for url in order]
    return MixedCorpus(
        spec=spec,
        pages=pages,
        sites=sites,
        distractor_urls=frozenset(distractors),
        generated=generated,
        churn=churn,
    )


def write_crawl(corpus: MixedCorpus, directory: str | Path) -> Path:
    """Dump the crawl flat into ``directory`` plus a truth manifest.

    Page URLs become file names; :data:`CRAWL_MANIFEST_NAME` records
    the crawl order, the ground-truth site structure and the
    distractor set (written by :func:`~repro.webdoc.store.save_crawl`).
    Returns the manifest path.
    """
    return save_crawl(
        directory,
        corpus.pages,
        {
            "seed": corpus.spec.seed,
            "generation": corpus.spec.generation,
            "churn": corpus.churn.as_dict() if corpus.churn else None,
            "distractors": sorted(corpus.distractor_urls),
            "sites": [
                {
                    "name": site.name,
                    "lists": list(site.list_urls),
                    "details": [list(urls) for urls in site.detail_urls_per_list],
                }
                for site in corpus.sites
            ],
        },
    )


def load_crawl_pages(directory: str | Path) -> list[Page]:
    """Read a crawl directory back into anonymous pages.

    With a :data:`CRAWL_MANIFEST_NAME` present the recorded crawl
    order is preserved; otherwise every ``*.html`` file is read in
    sorted name order.  Either way the pages carry no role hints.  A
    manifest page name that is not a plain file name of ``directory``
    (:func:`~repro.webdoc.store.plain_name`) raises ``ValueError``:
    a crawl directory never reads outside itself.
    """
    directory = Path(directory)
    manifest_path = directory / CRAWL_MANIFEST_NAME
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        names = list(manifest["pages"])
        unsafe = [name for name in names if not plain_name(name)]
        if unsafe:
            raise ValueError(
                f"{manifest_path}: page names must be plain file names: {unsafe!r}"
            )
    else:
        names = sorted(
            path.name for path in directory.glob("*.html") if path.is_file()
        )
    if not names:
        raise ValueError(f"no crawl pages found in {directory}")
    return [
        Page(url=name, html=(directory / name).read_text(encoding="utf-8"))
        for name in names
    ]


@dataclass(frozen=True)
class BundleScore:
    """How well a set of bundles matches the corpus ground truth.

    Each bundle is credited against the true sub-site owning the
    majority of its pages; ``precision`` is the fraction of bundled
    pages credited, ``recall`` the fraction of all true site pages
    recovered.
    """

    precision: float
    recall: float
    bundled_pages: int
    truth_pages: int
    exact_bundles: int

    def as_dict(self) -> dict:
        return {
            "bundle_precision": round(self.precision, 4),
            "bundle_recall": round(self.recall, 4),
            "bundled_pages": self.bundled_pages,
            "truth_pages": self.truth_pages,
            "exact_bundles": self.exact_bundles,
        }


def score_bundles(
    sites: list[TrueSite], bundles: list[tuple[str, list[str]]]
) -> BundleScore:
    """Score ``(name, page urls)`` bundles against the ground truth."""
    owner: dict[str, str] = {}
    for site in sites:
        for url in site.page_urls():
            owner[url] = site.name
    truth_pages = len(owner)

    bundled_pages = 0
    correct = 0
    exact = 0
    for _, urls in bundles:
        bundled_pages += len(urls)
        votes: dict[str, int] = {}
        for url in urls:
            site_name = owner.get(url)
            if site_name is not None:
                votes[site_name] = votes.get(site_name, 0) + 1
        if not votes:
            continue
        majority = max(sorted(votes), key=lambda name: votes[name])
        correct += votes[majority]
        majority_urls = {
            url for url, name in owner.items() if name == majority
        }
        if majority_urls == set(urls):
            exact += 1

    precision = correct / bundled_pages if bundled_pages else 0.0
    recall = correct / truth_pages if truth_pages else 0.0
    return BundleScore(
        precision=precision,
        recall=recall,
        bundled_pages=bundled_pages,
        truth_pages=truth_pages,
        exact_bundles=exact,
    )
