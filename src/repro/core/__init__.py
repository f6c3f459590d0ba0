"""Core: pipeline, results, evaluation, configuration, exceptions.

Attributes are loaded lazily (PEP 562): leaf modules throughout the
library import ``repro.core.exceptions``, which initializes this
package — eager re-exports here would close an import cycle back into
those leaf modules.
"""

from __future__ import annotations

from typing import Any

_EXPORTS = {
    "METHODS": "repro.core.config",
    "PipelineConfig": "repro.core.config",
    "PageScore": "repro.core.evaluation",
    "ScoreCard": "repro.core.evaluation",
    "score_page": "repro.core.evaluation",
    "truth_assignment": "repro.core.evaluation",
    "CircuitOpenError": "repro.core.exceptions",
    "ConfigError": "repro.core.exceptions",
    "CrawlBudgetExceededError": "repro.core.exceptions",
    "CrawlError": "repro.core.exceptions",
    "CspError": "repro.core.exceptions",
    "EmptyProblemError": "repro.core.exceptions",
    "ExtractionError": "repro.core.exceptions",
    "FetchError": "repro.core.exceptions",
    "HtmlParseError": "repro.core.exceptions",
    "InferenceError": "repro.core.exceptions",
    "InsufficientPagesError": "repro.core.exceptions",
    "ReproError": "repro.core.exceptions",
    "PermanentFetchError": "repro.core.exceptions",
    "SiteGenError": "repro.core.exceptions",
    "SolverBudgetExceededError": "repro.core.exceptions",
    "TemplateError": "repro.core.exceptions",
    "TransientFetchError": "repro.core.exceptions",
    "TemplateNotFoundError": "repro.core.exceptions",
    "UnsatisfiableError": "repro.core.exceptions",
    "HybridConfig": "repro.core.hybrid",
    "HybridSegmenter": "repro.core.hybrid",
    "PIPELINE_GRAPH": "repro.core.pipeline",
    "PageRun": "repro.core.pipeline",
    "SegmentationPipeline": "repro.core.pipeline",
    "SiteRun": "repro.core.pipeline",
    "bind_token_cache": "repro.core.pipeline",
    "Degradation": "repro.core.stages",
    "Stage": "repro.core.stages",
    "StageContext": "repro.core.stages",
    "StageGraph": "repro.core.stages",
    "SegmentedRecord": "repro.core.results",
    "Segmentation": "repro.core.results",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
