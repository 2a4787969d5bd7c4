"""Corpus statistics and distribution data."""

import math

import pytest

from annorate.corpus import (
    EmptyCorpusError,
    corpus_stats,
    distribution,
)
from annorate.isatab import AnnotationType
from annorate.scoring import EntryScore, TypeScore, log_transform

from conftest import read_reference_scores


def make_entry(study_id, log_terms=0.0, log_annotations=0.0, total_annotations=0,
               global_terms=0.0, global_annotations=0.0, per_type=None):
    return EntryScore(
        study_id=study_id,
        per_type=per_type or {},
        global_terms=global_terms,
        global_annotations=global_annotations,
        log_terms=log_terms,
        log_annotations=log_annotations,
        total_annotations=total_annotations,
    )


def make_type_score(score_sum, annotation_count, term_count):
    return TypeScore(
        annotation_count=annotation_count,
        term_count=term_count,
        score_sum=score_sum,
        by_annotations=score_sum / annotation_count if annotation_count else 0.0,
        by_terms=score_sum / term_count if term_count else 0.0,
    )


def reference_entries():
    return [
        make_entry(sid, log_terms=lt, log_annotations=la, total_annotations=total,
                   global_terms=st, global_annotations=sa)
        for sid, total, st, lt, sa, la in read_reference_scores()
    ]


class TestCorpusStats:
    def test_two_value_hand_oracle(self):
        entries = [
            make_entry("A", log_terms=20.0, total_annotations=1),
            make_entry("B", log_terms=40.0, total_annotations=1),
        ]
        stats = corpus_stats(entries, "log_terms")
        assert stats.mean == pytest.approx(30.0)
        assert stats.max == 40.0
        assert stats.pct_above_mean == pytest.approx(50.0)
        # sample estimator: sqrt(((20-30)^2 + (40-30)^2) / 1)
        assert stats.std_dev == pytest.approx(math.sqrt(200), abs=1e-9)
        assert stats.min_annotated == 20.0

    def test_single_zero_entry(self):
        stats = corpus_stats([make_entry("A")], "log_terms")
        assert stats.mean == 0.0
        assert stats.std_dev == 0.0
        assert stats.pct_above_mean == 0.0
        assert stats.min_annotated is None

    def test_min_annotated_skips_unannotated(self):
        entries = [
            make_entry("A", log_terms=0.0, total_annotations=0),
            make_entry("B", log_terms=50.0, total_annotations=2),
        ]
        assert corpus_stats(entries, "log_terms").min_annotated == 50.0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            corpus_stats([], "log_terms")

    def test_unknown_column(self):
        with pytest.raises(ValueError):
            corpus_stats([make_entry("A")], "nope")

    def test_permutation_invariant(self):
        entries = [
            make_entry(f"E{i}", log_terms=v, total_annotations=1)
            for i, v in enumerate([5.0, 30.0, 30.0, 80.0, 12.5])
        ]
        assert corpus_stats(entries) == corpus_stats(list(reversed(entries)))

    def test_appending_mean_value_entry(self):
        entries = [
            make_entry(f"E{i}", log_terms=v, total_annotations=1)
            for i, v in enumerate([10.0, 20.0, 30.0])
        ]
        base = corpus_stats(entries)
        extended = corpus_stats(entries + [make_entry("M", log_terms=base.mean,
                                                      total_annotations=1)])
        assert extended.mean == pytest.approx(base.mean)
        assert extended.pct_above_mean <= base.pct_above_mean

    def test_reference_corpus_with_reconciling_zero_row(self):
        entries = reference_entries() + [make_entry("MTBLS_MISSING")]
        stats = corpus_stats(entries, "log_terms")
        assert stats.n == 95
        assert stats.mean == pytest.approx(29.31230073, abs=1e-6)
        assert stats.std_dev == pytest.approx(22.62573092, abs=1e-6)
        assert stats.max == 80.73549221
        assert stats.min_annotated == 28.54022189
        assert stats.pct_above_mean == pytest.approx(58.94736842, abs=1e-6)


class TestDistribution:
    def test_identical_entries_single_bin(self):
        entries = [make_entry(f"E{i}", log_terms=55.0, total_annotations=1) for i in range(4)]
        dist = distribution(entries, "log_terms")
        assert dict(dist.histogram)[50] == 4
        assert sum(count for _, count in dist.histogram) == 4

    def test_histogram_bin_edges(self):
        # 10 falls in [10,20); 100 lands in the closed last bin [90,100]
        entries = [
            make_entry("A", log_terms=10.0),
            make_entry("B", log_terms=9.999),
            make_entry("C", log_terms=100.0),
            make_entry("D", log_terms=90.0),
        ]
        hist = dict(distribution(entries, "log_terms").histogram)
        assert hist[0] == 1
        assert hist[10] == 1
        assert hist[90] == 2

    @pytest.mark.parametrize("value", [-5.0, -0.001, 100.5])
    def test_histogram_value_outside_range_rejected(self, value):
        entries = [make_entry("A", log_terms=50.0), make_entry("B", log_terms=value)]
        with pytest.raises(ValueError, match="B: log_terms .* outside"):
            distribution(entries, "log_terms")

    def test_histogram_counts_sum_to_n(self):
        entries = reference_entries()
        hist = distribution(entries, "log_terms").histogram
        assert sum(count for _, count in hist) == len(entries)

    def test_boxplot_identical_values(self):
        per_type = {AnnotationType.ASSAY: make_type_score(1.0, 1, 1)}
        entries = [
            make_entry(f"E{i}", log_terms=55.0, total_annotations=1, per_type=per_type)
            for i in range(3)
        ]
        box = distribution(entries, "log_terms").per_type_boxplot[AnnotationType.ASSAY]
        assert box.minimum == box.median == box.maximum == 1.0

    def test_boxplot_tukey_quartiles(self):
        # scores 0.1..0.5 for five annotated entries: median-exclusive halves
        values = [0.1, 0.2, 0.3, 0.4, 0.5]
        entries = [
            make_entry(
                f"E{i}",
                total_annotations=1,
                per_type={AnnotationType.DESIGN: make_type_score(v, 1, 1)},
            )
            for i, v in enumerate(values)
        ]
        box = distribution(entries).per_type_boxplot[AnnotationType.DESIGN]
        assert box.median == pytest.approx(0.3)
        assert box.q1 == pytest.approx(0.15)
        assert box.q3 == pytest.approx(0.45)
        assert (box.minimum, box.maximum) == (0.1, 0.5)

    def test_boxplot_excludes_type_unannotated_entries(self):
        annotated = make_entry(
            "A", total_annotations=1,
            per_type={AnnotationType.DESIGN: make_type_score(0.5, 1, 1)},
        )
        unannotated_for_type = make_entry(
            "B", total_annotations=1,
            per_type={AnnotationType.DESIGN: make_type_score(0.0, 0, 2)},
        )
        dist = distribution([annotated, unannotated_for_type])
        box = dist.per_type_boxplot[AnnotationType.DESIGN]
        assert box.minimum == box.maximum == 0.5

    def test_gap_zero_without_unannotated_terms(self):
        per_type = {AnnotationType.ASSAY: make_type_score(1.75, 2, 2)}
        entries = [make_entry("A", total_annotations=2, per_type=per_type)]
        gaps = distribution(entries).avg_weighting_gap
        assert gaps[AnnotationType.ASSAY] == pytest.approx(0.0)

    def test_gap_hand_computed(self):
        # two annotated entries; design gaps 0.5-0.25=0.25 and 0.8-0.4=0.4
        entries = [
            make_entry(
                "A", total_annotations=1,
                per_type={AnnotationType.DESIGN: make_type_score(0.5, 1, 2)},
            ),
            make_entry(
                "B", total_annotations=1,
                per_type={AnnotationType.DESIGN: make_type_score(0.8, 1, 2)},
            ),
        ]
        gaps = distribution(entries).avg_weighting_gap
        assert gaps[AnnotationType.DESIGN] == pytest.approx(100 * (0.25 + 0.4) / 2)

    def test_gap_excludes_zero_annotation_entries(self):
        annotated = make_entry(
            "A", total_annotations=1,
            per_type={AnnotationType.DESIGN: make_type_score(0.5, 1, 1)},
        )
        zero = make_entry(
            "Z", total_annotations=0,
            per_type={AnnotationType.DESIGN: make_type_score(0.0, 0, 3)},
        )
        gaps = distribution([annotated, zero]).avg_weighting_gap
        assert gaps[AnnotationType.DESIGN] == pytest.approx(0.0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            distribution([], "log_terms")

    def test_five_entry_fixture_hand_oracle(self):
        rows = [
            # (score_sum, annotations, terms) for design / assay
            ((2.0, 3, 4), (1.0, 1, 1)),
            ((1.0, 2, 2), (0.5, 1, 2)),
            ((0.0, 0, 1), (1.5, 2, 2)),
            ((3.0, 4, 5), (0.0, 0, 0)),
            ((0.5, 1, 4), (0.75, 1, 1)),
        ]
        entries = []
        for i, (design, assay) in enumerate(rows):
            entries.append(
                make_entry(
                    f"E{i}",
                    total_annotations=design[1] + assay[1],
                    per_type={
                        AnnotationType.DESIGN: make_type_score(*design),
                        AnnotationType.ASSAY: make_type_score(*assay),
                    },
                )
            )
        gaps = distribution(entries).avg_weighting_gap
        expected_design = 100 * sum(
            (s / a if a else 0) - (s / t if t else 0) for (s, a, t), _ in rows
        ) / len(rows)
        expected_assay = 100 * sum(
            (s / a if a else 0) - (s / t if t else 0) for _, (s, a, t) in rows
        ) / len(rows)
        assert gaps[AnnotationType.DESIGN] == pytest.approx(expected_design)
        assert gaps[AnnotationType.ASSAY] == pytest.approx(expected_assay)


class TestReferenceDistribution:
    def test_zero_bin_matches_zero_entry_count(self):
        entries = reference_entries()
        hist = dict(distribution(entries, "log_terms").histogram)
        zero_entries = sum(1 for e in entries if e.log_terms == 0.0)
        assert hist[0] == zero_entries == 30

    def test_log_ranking_equals_score_ranking(self):
        entries = reference_entries()
        by_score = sorted(entries, key=lambda e: (e.global_terms, e.study_id))
        by_log = sorted(entries, key=lambda e: (log_transform(e.global_terms), e.study_id))
        assert [e.study_id for e in by_score] == [e.study_id for e in by_log]
