"""Corpus statistics and distribution data."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annorate.corpus import (
    SCORE_COLUMNS,
    CorpusStats,
    EmptyCorpusError,
    corpus_stats,
    distribution,
)
from annorate.isatab import SCORED_TYPES, AnnotationType
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


def _numpy_stats(entries, column):
    """The statistics as numpy computes them: the oracle for the pairwise sums."""
    values = np.array([getattr(e, column) for e in entries], dtype=float)
    mean = float(values.mean())
    annotated = [getattr(e, column) for e in entries if e.total_annotations >= 1]
    return CorpusStats(
        n=len(values),
        mean=mean,
        std_dev=float(values.std(ddof=1)) if len(values) > 1 else 0.0,
        max=float(values.max()),
        min_annotated=min(annotated) if annotated else None,
        pct_above_mean=100.0 * int((values > mean).sum()) / len(values),
    )


def _numpy_gaps(entries):
    """Average weighting gap per type as numpy computes it."""
    gaps = {}
    for annotation_type in SCORED_TYPES:
        diffs = [
            e.per_type[annotation_type].by_annotations
            - e.per_type[annotation_type].by_terms
            for e in entries
            if e.total_annotations >= 1 and annotation_type in e.per_type
        ]
        if diffs:
            gaps[annotation_type] = 100.0 * float(np.mean(diffs))
    return gaps


def _bits(values):
    """Each float's repr: distinct doubles, -0.0 and 0.0 included, differ."""
    return [repr(v) for v in values]


#: Sizes on both sides of the 8-lane, 128-value block and split boundaries.
_SIZES = st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 137, 255, 256,
                          257, 300, 1000, 2049]) | st.integers(1, 3000)


def _draw_scores(rnd, n):
    """``n`` scores in [0, 100]: runs, 0.0, 100.0, and exact or arbitrary floats.

    In a balanced column every value is the centre or one of a pair placed
    symmetrically around it, on a quarter grid, so the sums are exact and
    the mean lands on the centre, which is not above itself.
    """
    if rnd.random() < 0.25:
        centre = rnd.randint(0, 400) / 4
        values = [centre] * rnd.randint(1, n)
        while len(values) + 2 <= n:
            d = rnd.randint(0, int(min(centre, 100 - centre) * 4)) / 4
            values += [centre - d, centre + d]
        values += [centre] * (n - len(values))
        rnd.shuffle(values)
        return values
    values = []
    for _ in range(n):
        roll = rnd.random()
        if values and roll < 0.3:
            values.append(values[-1])
        elif roll < 0.45:
            values.append(rnd.choice((0.0, 100.0)))
        elif roll < 0.6:
            values.append(rnd.randint(0, 400) / 4)
        else:
            values.append(rnd.uniform(0.0, 100.0))
    return values


def _draw_type_score(rnd):
    """A per-type score whose gap is often 0.0, 100.0 or -0.0."""
    roll = rnd.random()
    if roll < 0.15:
        by_annotations, by_terms = -0.0, 0.0  # -0.0 - 0.0 == -0.0
    elif roll < 0.3:
        by_annotations = by_terms = rnd.choice((0.0, 0.5, 1.0))
    elif roll < 0.4:
        by_annotations, by_terms = 100.0, 0.0
    else:
        by_annotations, by_terms = rnd.random(), rnd.random()
    count = rnd.randint(0, 3)
    return TypeScore(count, count + rnd.randint(0, 3), 0.0, by_annotations, by_terms)


def _draw_entries(rnd, n):
    columns = {c: _draw_scores(rnd, n) for c in SCORE_COLUMNS}
    return [
        make_entry(
            f"E{i}",
            total_annotations=rnd.choice((0, 1, 1, 1, 4)),
            per_type={
                t: _draw_type_score(rnd) for t in SCORED_TYPES if rnd.random() < 0.8
            },
            **{c: values[i] for c, values in columns.items()},
        )
        for i in range(n)
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

    @settings(max_examples=100, deadline=None)
    @given(_SIZES, st.integers(0, 2**32))
    def test_equals_numpy_oracle_bit_for_bit(self, n, seed):
        # a seeded generator, not st.randoms(): hypothesis would record
        # each of the tens of thousands of draws
        entries = _draw_entries(random.Random(seed), n)
        for column in SCORE_COLUMNS:
            assert _bits(tuple(corpus_stats(entries, column))) == _bits(
                tuple(_numpy_stats(entries, column))
            )
        gaps = distribution(entries).avg_weighting_gap
        expected = _numpy_gaps(entries)
        assert list(gaps) == list(expected)
        assert _bits(gaps.values()) == _bits(expected.values())

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
