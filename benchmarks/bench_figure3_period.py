"""Paper Figure 3: the hierarchical record-period model.

    "Furthermore this more complex model does in fact give us
    improvements in accuracy."  (Section 5.2.2)

This benchmark runs the probabilistic segmenter over the corpus with
and without the period model π and compares accuracy, reproducing the
paper's claim that Figure 3's hierarchy does not hurt and the learned
period matches the sites' schema widths.
"""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.core.evaluation import PageScore
from repro.prob.config import ProbConfig
from repro.reporting.experiment import run_corpus


def _total(corpus, use_period):
    config = PipelineConfig(prob=ProbConfig(use_period=use_period))
    result = run_corpus(corpus, methods=("prob",), config=config)
    return result.totals("prob"), result


def test_figure3_period_ablation(benchmark, corpus, capsys):
    with_period, result = benchmark.pedantic(
        lambda: _total(corpus, True), iterations=1, rounds=1
    )
    without_period, _ = _total(corpus, False)

    with capsys.disabled():
        print()
        print("Record-period model ablation (probabilistic method, 24 pages)")
        print(
            f"  Figure 3 (with pi):    P={with_period.precision:.3f} "
            f"R={with_period.recall:.3f} F={with_period.f_measure:.3f}"
        )
        print(
            f"  Figure 2 (without pi): P={without_period.precision:.3f} "
            f"R={without_period.recall:.3f} F={without_period.f_measure:.3f}"
        )
        # Learned periods on a few sites.
        for row in result.rows_for("prob"):
            if row.site in {"superpages", "allegheny", "ohio"} and row.page_index == 0:
                print(
                    f"  {row.site}: learned record length mode = "
                    f"{row.meta.get('period_mode')} "
                    f"(E[len] = {row.meta.get('expected_record_length', 0):.2f})"
                )

    assert with_period.f_measure >= without_period.f_measure - 0.02
    benchmark.extra_info["f_with_period"] = round(with_period.f_measure, 3)
    benchmark.extra_info["f_without_period"] = round(
        without_period.f_measure, 3
    )
