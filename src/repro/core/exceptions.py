"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the pipeline boundary.  Sub-types are
deliberately fine-grained: the segmentation pipeline treats several of
them (template failure, unsatisfiable constraints) as *recoverable*
conditions with paper-prescribed fallbacks, so they must be
distinguishable from plain bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is out of range or inconsistent."""


class HtmlParseError(ReproError):
    """Raised when an HTML document cannot be lexed at all.

    The lexer is intentionally forgiving (real pages are malformed), so
    this is reserved for truly unusable input such as ``None`` or
    non-string payloads.
    """


class TemplateError(ReproError):
    """Base class for page-template induction problems."""


class TemplateNotFoundError(TemplateError):
    """No usable page template could be induced from the sample pages.

    The paper's pipeline recovers from this by using the entire list
    page as the table slot (Section 6.2, note *b* in Table 4).
    """


class InsufficientPagesError(TemplateError):
    """Template induction needs at least two sample pages."""


class ExtractionError(ReproError):
    """Extract or observation construction failed."""


class CspError(ReproError):
    """Base class for constraint-solver problems."""


class UnsatisfiableError(CspError):
    """The constraint problem admits no solution at this relaxation level.

    The CSP segmenter reacts by climbing the relaxation ladder
    (Section 6.3, notes *c*/*d* in Table 4); only if every level fails
    does the failure propagate to the caller.
    """


class SolverBudgetExceededError(CspError):
    """The local-search solver exhausted its flip budget without a solution.

    Distinct from :class:`UnsatisfiableError`: the instance may well be
    satisfiable, the solver just could not prove it within budget.
    """


class InferenceError(ReproError):
    """Probabilistic inference failed (degenerate lattice, NaNs, ...)."""


class EmptyProblemError(ReproError):
    """There is nothing to segment: no extracts survived the filters."""


class SiteGenError(ReproError):
    """A site specification is inconsistent and cannot be rendered."""


class CrawlError(ReproError):
    """The simulated crawler could not retrieve or classify pages."""


class FetchError(CrawlError):
    """A URL was requested that the simulated site does not serve."""


class TransientFetchError(FetchError):
    """A fetch failed in a way that may succeed on retry.

    Raised by fault-injecting transports (simulated timeouts, connection
    resets).  :class:`~repro.crawl.resilient.ResilientFetcher` retries
    these with backoff; every other :class:`FetchError` is treated as
    permanent.
    """


class PermanentFetchError(FetchError):
    """A fetch failed definitively (simulated 404/410); retrying is useless."""

