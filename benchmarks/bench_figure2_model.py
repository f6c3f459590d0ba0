"""Paper Figure 2: the factored probabilistic model (no period).

Figure 2 is a graphical-model diagram; its executable analogue is the
model fit itself.  This benchmark fits the Figure-2 variant
(``use_period=False``) on the Superpages example, prints the learned
structure — token-type emissions per column and the column-transition
matrix, i.e. the model's P(T|C) and P(C|C') blocks — and measures the
EM fit.
"""

from __future__ import annotations

import numpy as np

from repro.prob.config import ProbConfig
from repro.prob.segmenter import ProbabilisticSegmenter
from repro.tokens.types import TOKEN_TYPE_ORDER


def test_figure2_model_fit(benchmark, superpages_problem, capsys):
    site, table = superpages_problem
    segmenter = ProbabilisticSegmenter(ProbConfig(use_period=False))

    params, lattice = benchmark(lambda: segmenter.fit(table))

    type_names = [t.name for t in TOKEN_TYPE_ORDER]
    with capsys.disabled():
        print()
        print(f"Figure 2 model (k={params.k} columns, no period)")
        print("P(T|C): dominant token type per column")
        for column in range(params.k):
            best = int(np.argmax(params.emit[column]))
            print(
                f"  L{column}: {type_names[best]:<12} "
                f"(p={params.emit[column, best]:.2f})"
            )
        print("P(C'|C): within-record transition mass (upper triangle)")
        matrix = params.within_record_matrix()
        for column in range(params.k - 1):
            successor = int(np.argmax(matrix[column]))
            print(
                f"  L{column} -> L{successor} "
                f"(p={matrix[column, successor]:.2f}); "
                f"P(record ends|L{column})={params.start_from[column]:.2f}"
            )

    # Learned-structure sanity: emissions are proper Bernoullis and
    # the transition matrix is strictly upper triangular.
    assert np.all((params.emit > 0) & (params.emit < 1))
    assert np.allclose(np.tril(params.within_record_matrix()), 0)
    benchmark.extra_info["k"] = params.k
    benchmark.extra_info["lattice_states"] = lattice.n_states
