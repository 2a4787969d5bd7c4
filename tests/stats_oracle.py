"""Reference statistics: the oracle for the four tables of ``annorate stats``.

It rebuilds each table from the definitions, reading the ``scores.tsv``
that ``stats`` read and the ``scores.json`` beside it when there is one.
The k-th row of a study id takes the per-type scores of the k-th record
of that id.

* ``stats.tsv``: for each log column, the mean, the sample (n - 1)
  standard deviation, the maximum, the minimum over rows with at least one
  annotation (empty when there is none), and the percentage of rows
  strictly above the exact mean;
* ``hist.tsv``: the ``--score-column`` values in ten bins of width 10 from
  0, the last one closed at 100;
* ``boxplot.tsv``: for each scored type that has one, Tukey's five numbers
  (quartiles are the medians of the halves that exclude an odd median) of
  ``by_annotations`` over the entries with at least one annotation of
  that type;
* ``gaps.tsv``: for each scored type that has one, 100 times the mean of
  ``by_annotations - by_terms`` over the entries with at least one
  annotation anywhere and a record of that type.

Means, percentages and bins are exact (:mod:`fractions`); the standard
deviation and the medians come from :mod:`statistics`. Nothing is imported
from ``annorate``.

:func:`oracle_stats_mismatches` compares the written tables with these by
value: each number within ``TOLERANCE``, one unit of the last of the 7
printed decimals, and everything else (headers, row names and order, bin
counts, empty cells) exactly. Text would not do: a mean of 7-decimal
values can sit on a rounding tie of its 7th decimal, and then the exact
mean and the correctly rounded float mean print differently.

Used by ``tests/test_score_oracle.py`` and by the CI steps that run
``stats`` on the generated workloads and a 10x corpus (``sys.path`` must
include ``tests/``).
"""

import json
import statistics
from collections.abc import Iterator
from fractions import Fraction
from pathlib import Path

#: Each ``--score-column`` by the scores.tsv header of its cells.
COLUMNS = {
    "global_terms": "score_terms",
    "log_terms": "log_score_terms",
    "global_annotations": "score_annotations",
    "log_annotations": "log_score_annotations",
}
#: The scored types, in report order.
TYPES = ("Design", "Factor", "Assay", "Protocol")
#: How far a written number may lie from the oracle's: one unit of its last digit.
TOLERANCE = Fraction(1, 10**7)


def oracle_stats(scores_tsv: Path, column: str) -> dict[str, list[list]]:
    """Each table's lines, header first, for ``stats --scores scores_tsv --score-column column``.

    A cell is the text expected (an empty cell is ``""``) or a number
    (a ``Fraction`` or a float).
    """
    entries = _entries(scores_tsv)
    summaries = [_summary(entries, c) for c in ("log_terms", "log_annotations")]
    counts = [0] * 10
    for row, _ in entries:
        counts[min(Fraction(float(row[COLUMNS[column]])) // 10, 9)] += 1
    boxplots, gaps = [], []
    for name in TYPES:
        values = [types[name]["by_annotations"] for _, types in entries
                  if name in types and types[name]["annotation_count"] >= 1]
        if values:
            boxplots.append([name, *_five_numbers(values)])
        diffs = [Fraction(types[name]["by_annotations"]) - Fraction(types[name]["by_terms"])
                 for row, types in entries if int(row["total_annotations"]) >= 1 and name in types]
        if diffs:
            gaps.append([name, 100 * sum(diffs) / len(diffs)])
    return {
        "stats.tsv": [["statistic", "log_terms", "log_annotations"]]
        + [[name, *(s[name] for s in summaries)]
           for name in ("mean", "std_dev", "max", "min_annotated", "pct_above_mean")],
        "hist.tsv": [["bin_low", "count"]] + [[str(10 * b), str(n)] for b, n in enumerate(counts)],
        "boxplot.tsv": [["type", "min", "q1", "median", "q3", "max"]] + boxplots,
        "gaps.tsv": [["type", "avg_gap_pct"]] + gaps,
    }


def oracle_stats_mismatches(scores_tsv: Path, column: str, out_dir: Path) -> list[str]:
    """Each place where the tables under ``out_dir`` differ from the oracle's; [] when none."""
    problems = []
    for name, want in oracle_stats(scores_tsv, column).items():
        lines = (Path(out_dir) / name).read_text(encoding="utf-8").splitlines()
        problems += _differences([line.split("\t") for line in lines], want, name)
    return problems


def _entries(scores_tsv: Path) -> list[tuple[dict[str, str], dict[str, dict]]]:
    """Each scores.tsv row, by header, with the per-type scores of its scores.json record."""
    header, *lines = Path(scores_tsv).read_text(encoding="utf-8-sig").splitlines()
    json_path = Path(scores_tsv).with_name("scores.json")
    records = json.loads(json_path.read_text(encoding="utf-8-sig")) if json_path.exists() else []
    types_by_id: dict[str, list[dict]] = {}
    for record in records:
        types_by_id.setdefault(record["study_id"], []).append(record["types"])
    entries = []
    for line in filter(str.strip, lines):
        row = dict(zip(header.split("\t"), line.split("\t")))
        queue = types_by_id.get(row["study_id"], [])
        entries.append((row, queue.pop(0) if queue else {}))
    return entries


def _summary(entries, column: str) -> dict:
    values = [float(row[COLUMNS[column]]) for row, _ in entries]
    annotated = [float(row[COLUMNS[column]]) for row, _ in entries
                 if int(row["total_annotations"]) >= 1]
    mean = sum(map(Fraction, values)) / len(values)
    return {
        "mean": mean,
        "std_dev": statistics.stdev(values) if len(values) > 1 else 0.0,
        "max": max(values),
        "min_annotated": min(annotated) if annotated else "",
        "pct_above_mean": Fraction(100 * sum(Fraction(v) > mean for v in values), len(values)),
    }


def _five_numbers(values: list[float]) -> list[float]:
    data = sorted(values)
    half = len(data) // 2
    lower, upper = (data[:half], data[-half:]) if half else (data, data)
    return [data[0], statistics.median(lower), statistics.median(data),
            statistics.median(upper), data[-1]]


def _differences(got: list[list[str]], want: list[list], name: str) -> Iterator[str]:
    """Where the written lines ``got`` differ from ``want``, cell by cell."""
    if len(got) != len(want):
        yield f"{name}: {len(got)} lines, not {len(want)}"
    for number, (got_row, want_row) in enumerate(zip(got, want), start=1):
        agree = len(got_row) == len(want_row) and all(map(_agrees, got_row, want_row))
        if not agree:
            shown = [cell if isinstance(cell, str) else f"{float(cell):.7f}" for cell in want_row]
            yield f"{name} line {number}: {got_row}, not {shown}"


def _agrees(cell: str, want) -> bool:
    if isinstance(want, str):
        return cell == want
    try:
        return abs(Fraction(cell) - Fraction(want)) <= TOLERANCE
    except ValueError:
        return False
