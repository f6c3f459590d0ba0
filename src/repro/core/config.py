"""Top-level pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import ConfigError
from repro.csp.segmenter import CspConfig
from repro.extraction.matching import MatchOptions
from repro.prob.config import ProbConfig
from repro.template.finder import TemplateFinderConfig
from repro.tokens.tokenizer import DEFAULT_ALLOWED_PUNCT

__all__ = ["PipelineConfig", "METHODS"]

#: Segmentation methods the pipeline knows.
METHODS = ("csp", "prob", "hybrid")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything the end-to-end pipeline needs.

    Attributes:
        template: template-induction knobs.
        match: extract/detail matching knobs.
        csp: CSP segmenter settings.
        prob: probabilistic segmenter settings.
        allowed_punct: the punctuation characters allowed inside
            extracts (paper default ``.,()-``); shared by the
            tokenizer and the separator classifier.
    """

    template: TemplateFinderConfig = field(default_factory=TemplateFinderConfig)
    match: MatchOptions = field(default_factory=MatchOptions)
    csp: CspConfig = field(default_factory=CspConfig)
    prob: ProbConfig = field(default_factory=ProbConfig)
    allowed_punct: frozenset[str] = DEFAULT_ALLOWED_PUNCT

    def __post_init__(self) -> None:
        if self.match.allowed_punct != self.allowed_punct:
            raise ConfigError(
                "match.allowed_punct must agree with allowed_punct "
                "(the tokenizer and matcher must classify separators "
                "identically)"
            )
