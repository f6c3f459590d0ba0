"""CSP-based attribute (column) assignment.

The paper closes Section 6.3 with a research direction:

    "It may also be possible to obtain the attribute assignment in the
    CSP approach, by using the observation that different values of
    the same attribute should be similar in content, e.g., start with
    the same token type.  We may be able to express this observation
    as a set of constraints."

This module implements exactly that: column assignment as an
over-constrained pseudo-boolean problem solved with the same
WSAT(OIP)-style engine as segmentation.

Hard constraints:

* every assigned extract gets exactly one column;
* columns strictly increase along each record (fields appear in schema
  order; encoded over consecutive record members, which chains);
* the first extract of every record takes column 0 (the paper's
  never-missing first column, Section 5.1).

Soft constraints encode the content-similarity observation: each
variable ``y[i,c]`` carries a reward equal to the affinity between
extract *i*'s token-type vector and column *c*'s prototype signature.
Prototypes start from positional columns and the solve/re-estimate
loop runs a few rounds, WSAT maximizing total affinity subject to the
hard structure each time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.results import Segmentation
from repro.csp.constraints import ConstraintSystem, Relation
from repro.csp.wsat import WsatConfig, WsatSolver
from repro.tokens.types import NUM_TOKEN_TYPES, union_type_vector

__all__ = ["CspColumnAssigner"]


def _extract_signature(observation) -> np.ndarray:
    """Union type vector of an extract's tokens."""
    return np.array(union_type_vector(observation.extract.tokens), dtype=float)


@dataclass(frozen=True)
class CspColumnAssignerConfig:
    """Knobs for the column CSP.

    Attributes:
        rounds: solve / re-estimate iterations.
        wsat: local-search settings per round.
        max_columns: cap on the column count (defaults to the longest
            record).
    """

    rounds: int = 3
    wsat: WsatConfig = WsatConfig(max_flips=20_000, max_restarts=2)
    max_columns: int | None = None


class CspColumnAssigner:
    """Assign column labels to a CSP segmentation's extracts."""

    def __init__(self, config: CspColumnAssignerConfig | None = None) -> None:
        self.config = config or CspColumnAssignerConfig()

    def assign(self, segmentation: Segmentation) -> dict[int, int]:
        """Compute ``seq -> column`` for every assigned observation."""
        records = [
            record.observations
            for record in segmentation.records
            if record.observations
        ]
        if not records:
            return {}
        k = max(len(members) for members in records)
        if self.config.max_columns is not None:
            k = min(k, self.config.max_columns)
        k = max(k, 1)

        signatures = {
            observation.seq: _extract_signature(observation)
            for members in records
            for observation in members
        }

        # Initial prototypes from positional columns.
        assignment = {
            observation.seq: min(position, k - 1)
            for members in records
            for position, observation in enumerate(members)
        }
        for _ in range(max(1, self.config.rounds)):
            prototypes = self._prototypes(assignment, signatures, k)
            assignment = self._solve_round(records, signatures, prototypes, k)
        return assignment

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _prototypes(
        assignment: dict[int, int],
        signatures: dict[int, np.ndarray],
        k: int,
    ) -> np.ndarray:
        """Mean type signature per column (uniform when empty)."""
        prototypes = np.full((k, NUM_TOKEN_TYPES), 0.5)
        for column in range(k):
            members = [
                signatures[seq]
                for seq, assigned in assignment.items()
                if assigned == column
            ]
            if members:
                prototypes[column] = np.mean(members, axis=0)
        return prototypes

    def _solve_round(
        self,
        records,
        signatures: dict[int, np.ndarray],
        prototypes: np.ndarray,
        k: int,
    ) -> dict[int, int]:
        var_of: dict[tuple[int, int], int] = {}
        pair_of: list[tuple[int, int]] = []

        # Feasible columns per observation: position <= c, and enough
        # room for the rest of the record.
        feasible: dict[int, list[int]] = {}
        for members in records:
            size = len(members)
            for position, observation in enumerate(members):
                if position == 0:
                    columns = [0]
                else:
                    low = position
                    high = k - (size - position)
                    columns = list(range(low, max(low, high) + 1))
                    columns = [c for c in columns if c < k] or [k - 1]
                feasible[observation.seq] = columns
                for column in columns:
                    var_of[(observation.seq, column)] = len(pair_of)
                    pair_of.append((observation.seq, column))

        system = ConstraintSystem(num_vars=len(pair_of))
        # Uniqueness.
        for seq, columns in feasible.items():
            system.add(
                [(1, var_of[(seq, c)]) for c in columns],
                Relation.EQ,
                1,
                label=f"uniq[{seq}]",
            )
        # Strictly increasing columns along each record (consecutive
        # members chain the ordering through the whole record).
        for members in records:
            for first, second in zip(members, members[1:]):
                for c1 in feasible[first.seq]:
                    for c2 in feasible[second.seq]:
                        if c2 <= c1:
                            system.add(
                                [
                                    (1, var_of[(first.seq, c1)]),
                                    (1, var_of[(second.seq, c2)]),
                                ],
                                Relation.LE,
                                1,
                                label="order",
                            )
        # Soft content-similarity rewards.
        for seq, columns in feasible.items():
            signature = signatures[seq]
            for column in columns:
                affinity = float(
                    1.0
                    - np.abs(signature - prototypes[column]).mean()
                )
                system.add(
                    [(1, var_of[(seq, column)])],
                    Relation.GE,
                    1,
                    weight=max(affinity, 1e-3),
                    hard=False,
                    label=f"sim[{seq},{column}]",
                )

        # Seed: positional columns (always hard-feasible).
        seed = [0] * system.num_vars
        for members in records:
            size = len(members)
            for position, observation in enumerate(members):
                column = position if position < k else k - 1
                if (observation.seq, column) not in var_of:
                    column = feasible[observation.seq][0]
                seed[var_of[(observation.seq, column)]] = 1

        result = WsatSolver(system, self.config.wsat).solve(seed)
        assignment: dict[int, int] = {}
        for var, value in enumerate(result.assignment):
            if value == 1:
                seq, column = pair_of[var]
                # Lowest column wins if the assignment is degenerate.
                if seq not in assignment or column < assignment[seq]:
                    assignment[seq] = column
        # Guarantee totality even on pathological solver output.
        for seq, columns in feasible.items():
            assignment.setdefault(seq, columns[0])
        return assignment
