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
"""

from dataclasses import dataclass

from .isatab import SCORED_TYPES, AnnotationType
from .scoring import EntryScore

#: Score columns statistics can be computed over.
SCORE_COLUMNS = ("log_terms", "log_annotations", "global_terms", "global_annotations")


class EmptyCorpusError(Exception):
    """Statistics requested over an empty entry list."""


@dataclass(frozen=True)
class CorpusStats:
    n: int
    mean: float
    std_dev: float
    max: float
    min_annotated: float | None
    pct_above_mean: float


@dataclass(frozen=True)
class BoxplotStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class Distribution:
    histogram: list[tuple[int, int]]
    per_type_boxplot: dict[AnnotationType, BoxplotStats]
    avg_weighting_gap: dict[AnnotationType, float]


def corpus_stats(entries: list[EntryScore], column: str = "log_terms") -> CorpusStats:
    """Mean, sample std dev, max, annotated minimum and % above mean."""
    _check_column(column)
    if not entries:
        raise EmptyCorpusError("no entries")
    # numpy is imported where it is used: its import is a large share of a
    # short process's start-up, and score and audit import this module
    # without calling into it.
    import numpy as np

    values = np.array([getattr(e, column) for e in entries], dtype=float)
    mean = float(values.mean())
    std_dev = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    annotated = [getattr(e, column) for e in entries if e.total_annotations >= 1]
    return CorpusStats(
        n=len(values),
        mean=mean,
        std_dev=std_dev,
        max=float(values.max()),
        min_annotated=min(annotated) if annotated else None,
        pct_above_mean=100.0 * int((values > mean).sum()) / len(values),
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
    import numpy as np

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
            gaps[annotation_type] = 100.0 * float(np.mean(diffs))

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
