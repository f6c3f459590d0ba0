"""repro — reproduction of *Using the Structure of Web Sites for
Automatic Segmentation of Tables* (Lerman, Getoor, Minton & Knoblock,
SIGMOD 2004).

The library implements the paper's full pipeline — page-template
induction, extract extraction, detail-page observation building, and
two record segmenters (a WSAT(OIP)-style CSP solver and a factored
probabilistic model learned with EM) — plus the substrates the
evaluation needs: a deterministic hidden-web site simulator standing
in for the paper's 12 live 2003-era sites, a crawler with a
list/detail page classifier, three layout-based baselines, and the
scoring/reporting machinery that regenerates every table in the
paper.

Quickstart::

    from repro import SegmentationPipeline, build_site

    site = build_site("superpages")
    pipeline = SegmentationPipeline("prob")
    run = pipeline.segment_generated_site(site)
    for record in run.pages[0].segmentation.records:
        print(record)

The names below load on first use (:mod:`repro._lazy`), so importing
any one submodule does not load the rest of the library.

See README.md for the architecture overview, DESIGN.md for the
system inventory, and EXPERIMENTS.md for paper-vs-measured results.
"""

from repro._lazy import lazy_exports

__version__ = "0.1.0"

_EXPORTS = {
    "repro.core.config": ("METHODS", "PipelineConfig"),
    "repro.core.evaluation": ("PageScore", "score_page"),
    "repro.core.exceptions": ("ReproError",),
    "repro.core.pipeline": ("PageRun", "SegmentationPipeline", "SiteRun"),
    "repro.core.results": ("SegmentedRecord", "Segmentation"),
    "repro.core.hybrid": ("HybridConfig", "HybridSegmenter"),
    "repro.csp.segmenter": ("CspConfig", "CspSegmenter"),
    "repro.extraction.extracts": ("Extract", "extract_strings"),
    "repro.extraction.observations": ("Observation", "ObservationTable"),
    "repro.obs": ("ManualClock", "MetricsRegistry", "Observability", "Tracer"),
    "repro.prob.config": ("ProbConfig",),
    "repro.prob.segmenter": ("ProbabilisticSegmenter",),
    "repro.reporting.experiment": ("run_corpus", "run_site"),
    "repro.reporting.tables": ("render_table4",),
    "repro.sitegen.corpus": ("build_corpus", "build_site"),
    "repro.template.finder": ("TemplateFinder", "TemplateFinderConfig"),
    "repro.webdoc.page": ("Page",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = sorted([*__all__, "__version__"])
