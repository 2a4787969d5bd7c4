"""Corpus-level statistics and figure-ready distribution data.

All functions take a list of :class:`~annorate.scoring.EntryScore` and a
score column name. Corpus statistics use the sample (n-1) standard
deviation, chosen because it reproduces the reference corpus statistics
exactly; "% above mean" uses strict inequality. The minimum is taken over
entries with at least one annotation, since the mass of zero-score entries
would otherwise pin it to 0.

Distribution data follows the figure conventions: a 10-point histogram over
[0, 100] (last bin closed), per-type boxplots of the annotation-weighted
score over entries annotated for that type, and per-type averages of the
annotation-vs-term weighting gap over entries with at least one annotation
anywhere. Boxplot quartiles use the median-exclusive (Tukey) method so
outputs are reproducible bit for bit.

Every sum is taken in one fixed pairwise order (Higham, *The accuracy of
floating point summation*, SIAM J. Sci. Comput. 1993): fewer than 8 values
are added in order from 0.0; 8 to 128 values are added in 8 interleaved
lanes, combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the
remainder is added in order; longer lists are split at half their length
rounded down to a multiple of 8, and each half is summed the same way.
This is the order of the usual float64 array reduction, so the mean, the
standard deviation and the gaps equal an array library's bit for bit, and
``stats`` need not import one: that import alone would be about half of a
run.
"""

from functools import reduce
from math import sqrt
from operator import add
from typing import NamedTuple

from .isatab import SCORED_TYPES, AnnotationType
from .scoring import EntryScore

#: Score columns statistics can be computed over.
SCORE_COLUMNS = ("log_terms", "log_annotations", "global_terms", "global_annotations")


class EmptyCorpusError(Exception):
    """Statistics requested over an empty entry list."""


class CorpusStats(NamedTuple):
    n: int
    mean: float
    std_dev: float
    max: float
    min_annotated: float | None
    pct_above_mean: float


class BoxplotStats(NamedTuple):
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


class Distribution(NamedTuple):
    histogram: list[tuple[int, int]]
    per_type_boxplot: dict[AnnotationType, BoxplotStats]
    avg_weighting_gap: dict[AnnotationType, float]


def corpus_stats(entries: list[EntryScore], column: str = "log_terms") -> CorpusStats:
    """Mean, sample std dev, max, annotated minimum and % above mean."""
    _check_column(column)
    if not entries:
        raise EmptyCorpusError("no entries")
    values = [float(getattr(e, column)) for e in entries]
    n = len(values)
    mean = _pairwise_sum(values) / n
    squares = [(v - mean) * (v - mean) for v in values]
    std_dev = sqrt(_pairwise_sum(squares) / (n - 1)) if n > 1 else 0.0
    annotated = [getattr(e, column) for e in entries if e.total_annotations >= 1]
    return CorpusStats(
        n=n,
        mean=mean,
        std_dev=std_dev,
        max=max(values),
        min_annotated=min(annotated) if annotated else None,
        pct_above_mean=100.0 * sum(v > mean for v in values) / n,
    )


def distribution(entries: list[EntryScore], column: str = "log_terms") -> Distribution:
    """Histogram, per-type boxplots and average weighting gaps.

    Zero-annotation entries appear in the histogram but are excluded from
    boxplots and weighting gaps. Types for which no entry carries per-type
    detail are absent from the boxplot and gap maps. Raises ``ValueError``
    naming the entry when a ``column`` value lies outside [0, 100].
    """
    _check_column(column)
    if not entries:
        raise EmptyCorpusError("no entries")

    counts = [0] * 10
    for entry in entries:
        value = getattr(entry, column)
        if not 0.0 <= value <= 100.0:
            raise ValueError(f"{entry.study_id}: {column} {value} outside [0, 100]")
        counts[min(int(value // 10), 9)] += 1
    histogram = [(lo, counts[lo // 10]) for lo in range(0, 100, 10)]

    boxplots: dict[AnnotationType, BoxplotStats] = {}
    for annotation_type in SCORED_TYPES:
        values = [
            e.per_type[annotation_type].by_annotations
            for e in entries
            if annotation_type in e.per_type
            and e.per_type[annotation_type].annotation_count >= 1
        ]
        if values:
            boxplots[annotation_type] = _tukey_five_numbers(values)

    annotated_entries = [e for e in entries if e.total_annotations >= 1]
    gaps: dict[AnnotationType, float] = {}
    for annotation_type in SCORED_TYPES:
        diffs = [
            e.per_type[annotation_type].by_annotations
            - e.per_type[annotation_type].by_terms
            for e in annotated_entries
            if annotation_type in e.per_type
        ]
        if diffs:
            gaps[annotation_type] = 100.0 * (_pairwise_sum(diffs) / len(diffs))

    return Distribution(
        histogram=histogram, per_type_boxplot=boxplots, avg_weighting_gap=gaps
    )


def _pairwise_sum(values: list[float]) -> float:
    """Sum ``values`` in the pairwise order of the module docstring.

    Each lane starts from 0.0 rather than from its first value; that can
    change only the sign of a zero sum, and the array reduction adds its
    0.0 identity to its total too, so signed zeros agree as well.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        m = n - n % 8
        r = [reduce(add, values[lane:m:8], 0.0) for lane in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[m:], total)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _check_column(column: str) -> None:
    if column not in SCORE_COLUMNS:
        raise ValueError(f"unknown score column {column!r}; expected one of {SCORE_COLUMNS}")


def _tukey_five_numbers(values: list[float]) -> BoxplotStats:
    data = sorted(values)
    n = len(data)
    median = _median(data)
    if n == 1:
        return BoxplotStats(data[0], data[0], median, data[0], data[0])
    half = n // 2
    return BoxplotStats(
        minimum=data[0],
        q1=_median(data[:half]),
        median=median,
        q3=_median(data[n - half:]),
        maximum=data[-1],
    )


def _median(data: list[float]) -> float:
    n = len(data)
    mid = n // 2
    if n % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0
