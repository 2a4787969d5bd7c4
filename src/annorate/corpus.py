"""Corpus-level statistics and figure-ready distribution data.

All functions take a list of :class:`~annorate.scoring.EntryScore` and a
score column name. Corpus statistics use the sample (n-1) standard
deviation, chosen because it reproduces the reference corpus statistics
exactly; "% above mean" counts the values strictly above the exact mean,
which the rounded mean may miss by one ulp. The minimum is taken over
entries with at least one annotation, since the mass of zero-score entries
would otherwise pin it to 0.

Distribution data follows the figure conventions: a 10-point histogram over
[0, 100] (last bin closed), per-type boxplots of the annotation-weighted
score over entries annotated for that type, and per-type averages of the
annotation-vs-term weighting gap over entries with at least one annotation
anywhere. Boxplot quartiles use the median-exclusive (Tukey) method so
outputs are reproducible bit for bit.

Every sum is correctly rounded: :func:`math.fsum` returns the exact sum of
its values rounded once (Shewchuk, *Adaptive Precision Floating-Point
Arithmetic*, Discrete Comput. Geom. 1997). So the mean, the standard
deviation and the gaps depend neither on the order of the entries nor on
the Python version, and ``stats`` needs no array library.
"""

from math import fsum, sqrt
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
    """Mean, sample std dev, max, annotated minimum and % above mean.

    The mean and the standard deviation come from correctly rounded sums, so
    they are the same for every order of ``entries``. "% above mean" counts
    the values above the exact mean, not above the rounded ``mean``. Raises
    ``OverflowError`` when a sum overflows a float, as two values of 1e308
    do; scores in their [0, 100] domain never do.
    """
    _check_column(column)
    if not entries:
        raise EmptyCorpusError("no entries")
    values = [float(getattr(e, column)) for e in entries]
    n = len(values)
    mean = fsum(values) / n
    squares = [(v - mean) * (v - mean) for v in values]
    std_dev = sqrt(fsum(squares) / (n - 1)) if n > 1 else 0.0
    annotated = [getattr(e, column) for e in entries if e.total_annotations >= 1]
    return CorpusStats(
        n=n,
        mean=mean,
        std_dev=std_dev,
        max=max(values),
        min_annotated=min(annotated) if annotated else None,
        pct_above_mean=100.0 * _count_above_mean(values) / n,
    )


def _count_above_mean(values: list[float]) -> int:
    """How many of ``values`` lie strictly above their exact mean, counted in integers.

    Each value is ``p / d``, ``d`` a power of two: scaled to the largest ``d``,
    ``v > sum / n`` is ``n * v * scale > sum * scale``, with no rounding.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    scaled = [p * (scale // d) for p, d in ratios]
    total = sum(scaled)
    return sum(len(scaled) * s > total for s in scaled)


def distribution(entries: list[EntryScore], column: str = "log_terms") -> Distribution:
    """Histogram, per-type boxplots and average weighting gaps.

    Zero-annotation entries appear in the histogram but are excluded from
    boxplots and weighting gaps. Types for which no entry carries per-type
    detail are absent from the boxplot and gap maps. Each gap is the
    correctly rounded mean of its differences, the same for every order of
    ``entries``. Raises ``ValueError`` naming the entry when a ``column``
    value lies outside [0, 100], and ``OverflowError`` when a gap's sum
    overflows a float; per-type scores in [0, 1] never do.
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
            gaps[annotation_type] = 100.0 * (fsum(diffs) / len(diffs))

    return Distribution(
        histogram=histogram, per_type_boxplot=boxplots, avg_weighting_gap=gaps
    )


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
