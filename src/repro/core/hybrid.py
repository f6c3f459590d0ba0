"""The combined segmenter the paper's conclusion calls for.

    "Both techniques (or a combination of the two) are likely to be
    required for large-scale robust and reliable information
    extraction."  (Section 7)

The combination rule follows the paper's own characterization of the
two methods' strengths:

* the **CSP** is "very reliable on clean data" — when the *strict*
  problem is satisfiable, its solution is exact and is used as-is;
* the **probabilistic** approach "tolerates inconsistencies" — when
  the strict CSP fails (the data is provably or practically
  inconsistent), the factored model takes over instead of falling back
  to a relaxed partial assignment.

The result carries both sub-results' diagnostics plus which engine was
chosen (``meta["engine"]``), and inherits the probabilistic engine's
column labels whenever it ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import EmptyProblemError
from repro.core.results import Segmentation
from repro.csp.relaxation import RelaxationLevel
from repro.csp.segmenter import CspConfig, CspSegmenter
from repro.extraction.observations import ObservationTable
from repro.obs import Observability
from repro.prob.config import ProbConfig
from repro.prob.segmenter import ProbabilisticSegmenter

__all__ = ["HybridConfig", "HybridSegmenter"]


@dataclass(frozen=True)
class HybridConfig:
    """Configuration of the combined segmenter.

    Attributes:
        csp: settings for the CSP attempt.
        prob: settings for the probabilistic fallback.
    """

    csp: CspConfig = field(default_factory=CspConfig)
    prob: ProbConfig = field(default_factory=ProbConfig)


class HybridSegmenter:
    """CSP when the data is clean, probabilistic when it is not."""

    method_name = "hybrid"

    def __init__(
        self,
        config: HybridConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or HybridConfig()
        self.obs = obs

    def segment(self, table: ObservationTable) -> Segmentation:
        """Segment one list page's observation table.

        Raises:
            EmptyProblemError: the table has no usable observations.
        """
        if not table.observations:
            raise EmptyProblemError("no observations to segment")

        csp_result = CspSegmenter(self.config.csp, obs=self.obs).segment(table)
        if (
            csp_result.meta.get("solution_found")
            and csp_result.meta.get("level") is RelaxationLevel.STRICT
        ):
            csp_result.method = self.method_name
            csp_result.meta["engine"] = "csp"
            return csp_result

        prob_result = ProbabilisticSegmenter(self.config.prob).segment(table)
        prob_result.method = self.method_name
        prob_result.meta["engine"] = "prob"
        prob_result.meta["csp_attempts"] = csp_result.meta.get("attempts")
        prob_result.meta["csp_level"] = csp_result.meta.get("level")
        return prob_result
