"""Core: pipeline, results, evaluation, configuration, exceptions.

Attributes are loaded lazily (:func:`repro._lazy.lazy_exports`): leaf
modules throughout the library import ``repro.core.exceptions``,
which initializes this package — eager re-exports here would close an
import cycle back into those leaf modules.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.config": ("METHODS", "PipelineConfig"),
    "repro.core.evaluation": (
        "PageScore",
        "ScoreCard",
        "score_page",
        "truth_assignment",
    ),
    "repro.core.exceptions": (
        "ConfigError",
        "CrawlError",
        "CspError",
        "EmptyProblemError",
        "ExtractionError",
        "FetchError",
        "HtmlParseError",
        "InferenceError",
        "InsufficientPagesError",
        "ReproError",
        "PermanentFetchError",
        "SiteGenError",
        "SolverBudgetExceededError",
        "TemplateError",
        "TransientFetchError",
        "TemplateNotFoundError",
        "UnsatisfiableError",
    ),
    "repro.core.hybrid": ("HybridConfig", "HybridSegmenter"),
    "repro.core.pipeline": (
        "PIPELINE_GRAPH",
        "PageRun",
        "SegmentationPipeline",
        "SiteRun",
        "bind_token_cache",
    ),
    "repro.core.stages": ("Degradation", "Stage", "StageContext", "StageGraph"),
    "repro.core.results": ("SegmentedRecord", "Segmentation"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
