"""Per-type and per-entry aggregation of annotation specificity scores.

A type's score sum is the sum of its annotations' specificity scores, where
an annotation is a slot whose accession classifies as a scorable PURL.
Two weightings divide that sum differently:

* ``by_annotations`` — over the number of annotations;
* ``by_terms`` — over the number of term slots (non-empty labels plus
  label-less annotations), so free text that should have been annotated
  drags the score down.

Entry-level global scores are 100 times the arithmetic mean of the four
scored types' values, always over the fixed denominator of four. The log
transform ``100 * log2(1 + score/100)`` compresses the upper range to favour
entries with relatively few annotations; it is strictly increasing, so
rankings are preserved.

:func:`annotation_ref`, memoized per accession string, is the one test of
what an annotation is: the tally, the ``scores.json`` writer and the audit
all ask it, so each distinct string is classified once per process.
"""

import math
from functools import cache, reduce
from operator import add
from typing import Callable, Iterable, NamedTuple

from .accession import AccessionRef, classify_accession
from .isatab import SCORED_TYPES, AnnotationType, StudyMetadata, TermSlot

#: Maps a classified scorable accession to a specificity score in [0, 1].
Scorer = Callable[[AccessionRef], float]


class DomainError(ValueError):
    """Input outside the [0, 100] score domain."""


class TypeScore(NamedTuple):
    annotation_count: int
    term_count: int
    score_sum: float
    by_annotations: float
    by_terms: float


class EntryScore(NamedTuple):
    study_id: str
    per_type: dict[AnnotationType, TypeScore]
    global_terms: float
    global_annotations: float
    log_terms: float
    log_annotations: float
    total_annotations: int


def log_transform(score: float) -> float:
    """``100 * log2(1 + score/100)``, mapping [0, 100] onto [0, 100].

    0 and 100 are fixed points; everything in between moves up.
    """
    if not 0.0 <= score <= 100.0:
        raise DomainError(f"score {score!r} outside [0, 100]")
    return 100.0 * math.log2(1.0 + score / 100.0)


@cache
def annotation_ref(accession: str) -> AccessionRef | None:
    """The classified ``accession`` when it is a scorable PURL, else None.

    A slot is an annotation exactly when this returns a reference for its
    accession. Memoized: a corpus repeats its URLs across slots and studies,
    and the memo holds one entry per distinct string seen, which for a batch
    run is bounded by its input.
    """
    ref = classify_accession(accession)
    return ref if ref.is_scorable else None


def type_tally(slots: Iterable[TermSlot], scorer: Scorer) -> TypeScore:
    """Tally one annotation type's slots into counts and weighted scores.

    Non-PURL and malformed accessions are not annotations; their slots count
    as unannotated terms when they carry a label. The scorer is consulted
    once per annotation and must return a value in [0, 1] (unresolvable
    terms score 0; they still count as annotations).
    """
    annotation_count = 0
    term_count = 0
    score_sum = 0.0
    for slot in slots:
        ref = annotation_ref(slot.accession)
        if slot.label or ref is not None:
            term_count += 1
        if ref is not None:
            annotation_count += 1
            score = scorer(ref)
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"scorer returned {score!r} for {ref.raw!r}")
            score_sum += score
    by_annotations = score_sum / annotation_count if annotation_count else 0.0
    by_terms = score_sum / term_count if term_count else 0.0
    return TypeScore(annotation_count, term_count, score_sum, by_annotations, by_terms)


def score_entry(metadata: StudyMetadata, scorer: Scorer) -> EntryScore:
    """Score one study entry: per-type tallies, global scores and their logs.

    Person slots are ignored; the global denominator is the fixed set of
    four scored types, even when some of them are empty.
    """
    per_type = {
        t: type_tally(metadata.slots.get(t, []), scorer) for t in SCORED_TYPES
    }
    n_types = len(SCORED_TYPES)
    # Added left to right, not with the builtin sum, which compensates float
    # round-off from Python 3.12 on: every version writes the same scores.
    # Round-off must not push a saturated mean past the log domain.
    global_terms = min(
        100.0, 100.0 * reduce(add, (ts.by_terms for ts in per_type.values()), 0.0) / n_types
    )
    global_annotations = min(
        100.0, 100.0 * reduce(add, (ts.by_annotations for ts in per_type.values()), 0.0) / n_types
    )
    return EntryScore(
        study_id=metadata.study_id,
        per_type=per_type,
        global_terms=global_terms,
        global_annotations=global_annotations,
        log_terms=log_transform(global_terms),
        log_annotations=log_transform(global_annotations),
        total_annotations=sum(ts.annotation_count for ts in per_type.values()),
    )
