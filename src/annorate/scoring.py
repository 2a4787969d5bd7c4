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
"""

import math
from functools import reduce
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
    #: The (slot, classified accession) pair of each annotation, in slot order.
    #: Empty on scores rebuilt from report files; ignored by equality, hashing
    #: and repr, which all read the fields before it.
    annotations: tuple[tuple[TermSlot, AccessionRef], ...] = ()

    def __eq__(self, other):
        return self[:-1] == other[:-1] if isinstance(other, TypeScore) else NotImplemented

    def __ne__(self, other):
        return self[:-1] != other[:-1] if isinstance(other, TypeScore) else NotImplemented

    def __hash__(self) -> int:
        return hash(self[:-1])

    def __repr__(self) -> str:
        return "TypeScore(" + ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self[:-1])) + ")"


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


def type_tally(slots: Iterable[TermSlot], scorer: Scorer) -> TypeScore:
    """Tally one annotation type's slots into counts and weighted scores.

    Non-PURL and malformed accessions are not annotations; their slots count
    as unannotated terms when they carry a label. The scorer is consulted
    once per scorable accession and must return a value in [0, 1]
    (unresolvable terms score 0; they still count as annotations).
    """
    annotations = []
    term_count = 0
    score_sum = 0.0
    for slot in slots:
        ref = classify_accession(slot.accession) if slot.accession else None
        scorable = ref is not None and ref.is_scorable
        if slot.label or scorable:
            term_count += 1
        if scorable:
            annotations.append((slot, ref))
            score = scorer(ref)
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"scorer returned {score!r} for {ref.raw!r}")
            score_sum += score
    annotation_count = len(annotations)
    by_annotations = score_sum / annotation_count if annotation_count else 0.0
    by_terms = score_sum / term_count if term_count else 0.0
    return TypeScore(
        annotation_count=annotation_count,
        term_count=term_count,
        score_sum=score_sum,
        by_annotations=by_annotations,
        by_terms=by_terms,
        annotations=tuple(annotations),
    )


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
