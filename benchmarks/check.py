"""Output checks for one score -> stats -> audit repetition.

``check_outputs`` compares the files in an output directory with the
generator's ground truth and returns a list of problems (empty when the
outputs are correct). ``digests`` gives the sha256 of every output file, so
the caller can require identical bytes across repetitions and, for the
default seed, equality with ``pinned_digests.json``.
"""

import hashlib
import json
import math
from pathlib import Path

OUTPUT_FILES = (
    "scores.tsv",
    "scores.json",
    "stats.tsv",
    "hist.tsv",
    "boxplot.tsv",
    "gaps.tsv",
    "audit.json",
)
LOG_TOLERANCE = 1e-6


def digests(out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
        if (out_dir / name).is_file()
    }


def check_outputs(out_dir: Path, truth: dict) -> list[str]:
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing output files: {', '.join(missing)}"]
    try:
        return _check_scores(out_dir, truth) + _check_stats(out_dir) + _check_audit(out_dir, truth)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _score_rows(out_dir: Path) -> list[list[str]]:
    lines = (out_dir / "scores.tsv").read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:]]


def _log_transform(score: float) -> float:
    return 100.0 * math.log2(1.0 + score / 100.0)


def _check_scores(out_dir: Path, truth: dict) -> list[str]:
    rows = _score_rows(out_dir)
    problems = []
    if len(rows) != truth["studies"]:
        problems.append(f"scores.tsv has {len(rows)} rows, expected {truth['studies']}")
    if sorted(row[0] for row in rows) != truth["study_ids"]:
        problems.append("scores.tsv study ids differ from the generated studies")
    for row in rows:
        for score_col, log_col in ((2, 3), (4, 5)):
            if abs(_log_transform(float(row[score_col])) - float(row[log_col])) > LOG_TOLERANCE:
                problems.append(f"scores.tsv {row[0]}: column {log_col} is not the log transform")
    return problems


def _check_stats(out_dir: Path) -> list[str]:
    """The mean row of stats.tsv must be the mean of both log columns."""
    rows = _score_rows(out_dir)
    stats = {
        line.split("\t")[0]: line.split("\t")[1:]
        for line in (out_dir / "stats.tsv").read_text(encoding="utf-8").splitlines()
    }
    if "mean" not in stats:
        return ["stats.tsv has no mean row"]
    problems = []
    for cell, col in zip(stats["mean"], (3, 5)):
        mean = sum(float(row[col]) for row in rows) / max(len(rows), 1)
        if abs(float(cell) - mean) > LOG_TOLERANCE:
            problems.append(f"stats.tsv mean {cell} differs from the scores mean {mean:.7f}")
    return problems


def _check_audit(out_dir: Path, truth: dict) -> list[str]:
    findings = json.loads((out_dir / "audit.json").read_text(encoding="utf-8"))
    keys = {(f["study_id"], f["kind"], f["evidence"]) for f in findings}
    near_dups = {
        (f["study_id"], f["evidence"].split(" ", 2)[1])
        for f in findings
        if f["kind"] == "NearDuplicateEntry"
    }
    problems = [
        f"audit.json lacks the planted near-duplicate pair {a} / {b}"
        for a, b in truth["near_dup_pairs"]
        if (a, b) not in near_dups
    ]
    problems += [
        f"audit.json lacks the planted non-PURL {study} {evidence!r}"
        for study, evidence in truth["non_purls"]
        if (study, "NonPurlAccession", evidence) not in keys
    ]
    return problems
