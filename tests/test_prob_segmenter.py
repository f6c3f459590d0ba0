"""Tests for the end-to-end probabilistic segmenter."""

from __future__ import annotations

import pytest

from repro.core.exceptions import EmptyProblemError
from repro.extraction.observations import ObservationTable
from repro.prob.config import ProbConfig
from repro.prob.segmenter import ProbabilisticSegmenter
from tests.conftest import PAPER_TABLE2, build_observation_table


class TestSegmenter:
    def test_paper_example(self, paper_table):
        segmentation = ProbabilisticSegmenter().segment(paper_table)
        got = {
            record.record_id: sorted(record.assigned_seqs)
            for record in segmentation.records
        }
        assert got == PAPER_TABLE2

    def test_never_partial(self, paper_table):
        segmentation = ProbabilisticSegmenter().segment(paper_table)
        assert not segmentation.is_partial

    def test_columns_strictly_increase_within_record(self, paper_table):
        segmentation = ProbabilisticSegmenter().segment(paper_table)
        for record in segmentation.records:
            assert record.columns is not None
            columns = [
                record.columns[o.seq] for o in record.observations
            ]
            assert all(a < b for a, b in zip(columns, columns[1:]))

    def test_records_start_at_column_zero(self, paper_table):
        segmentation = ProbabilisticSegmenter().segment(paper_table)
        for record in segmentation.records:
            first = record.observations[0]
            assert record.columns[first.seq] == 0

    def test_no_period_variant(self, paper_table):
        config = ProbConfig(use_period=False)
        segmentation = ProbabilisticSegmenter(config).segment(paper_table)
        got = {
            record.record_id: sorted(record.assigned_seqs)
            for record in segmentation.records
        }
        assert got == PAPER_TABLE2
        assert segmentation.meta["use_period"] is False

    def test_meta_diagnostics(self, paper_table):
        segmentation = ProbabilisticSegmenter().segment(paper_table)
        meta = segmentation.meta
        assert meta["k"] == 6
        assert meta["em_iterations"] >= 1
        assert meta["d_violations"] == 0
        assert meta["period_mode"] == 4
        assert meta["lattice_states"] > 0

    def test_tolerates_wrong_d_evidence(self):
        # An extract whose only match is a far, wrong detail page: the
        # model should pay epsilon instead of honoring it (the paper's
        # robustness claim), keeping neighbours intact.
        data = [
            ("Ada Lane", {0: (10,)}),
            ("88-321", {0: (20,)}),
            ("Stray", {3: (99,)}),      # truthfully in record 1
            ("77-654", {1: (20,)}),
            ("Cy Voss", {2: (10,)}),
            ("66-987", {2: (20,)}),
            ("Di Webb", {3: (10,)}),
            ("55-111", {3: (20,)}),
        ]
        table = build_observation_table(data, detail_count=4)
        segmentation = ProbabilisticSegmenter().segment(table)
        # Every observation is somewhere, and the four anchored pairs
        # stay in their own records.
        by_record = {
            record.record_id: sorted(record.assigned_seqs)
            for record in segmentation.records
        }
        assert by_record[0][:2] == [0, 1]
        assert [s for s in by_record.get(2, [])] == [4, 5]
        assert segmentation.meta["d_violations"] >= 1

    def test_empty_table_raises(self):
        table = ObservationTable(extracts=[], observations=[], detail_count=2)
        with pytest.raises(EmptyProblemError):
            ProbabilisticSegmenter().segment(table)

    def test_deterministic(self, paper_table):
        first = ProbabilisticSegmenter().segment(paper_table)
        second = ProbabilisticSegmenter().segment(paper_table)
        assert [sorted(r.assigned_seqs) for r in first.records] == [
            sorted(r.assigned_seqs) for r in second.records
        ]

    def test_fit_returns_model(self, paper_table):
        params, lattice = ProbabilisticSegmenter().fit(paper_table)
        assert params.k == lattice.k
        assert params.period.shape == (lattice.k + 1,)

    def test_single_record_table(self):
        data = [("Solo Act", {0: (5,)}), ("99-000", {0: (9,)})]
        table = build_observation_table(data, detail_count=1)
        segmentation = ProbabilisticSegmenter().segment(table)
        assert len(segmentation.records) == 1
        assert sorted(segmentation.records[0].assigned_seqs) == [0, 1]
