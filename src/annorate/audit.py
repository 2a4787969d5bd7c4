"""Detection of structural irregularities in study metadata.

Per-entry checks flag accession problems (non-PURL links, empty-label
annotations, broken or uncatalogued terms), identical (label, accession)
pairs listed more than once, and labels that appear under two annotation
types with the accession under exactly one of them. Corpus-wide checks flag
near-duplicate entry pairs whose slot multisets are identical or almost so.

The near-duplicate check is an exact prefix-filtered similarity join
(Chaudhuri, Ganti & Kaushik, ICDE 2006; Xiao et al., PPJoin, WWW 2008).
Each entry's slot multiset becomes a set of int tokens, ranked rarest first
across the corpus. At threshold t, a flagged pair shares at least
o = (1 - t) * n of each entry's n tokens, so under that one ranking the two
entries' first n - o + 1 tokens meet. Candidates are the pairs that share
such a prefix token, plus every pair of empty entries; each candidate is
checked with the full flag rule, so the findings are exactly those of
comparing every pair. The cost is one pass over the slots, a sort of each
entry's tokens and one multiset intersection per candidate, where the
all-pairs scan did one intersection per pair of entries.

Labels are compared case-insensitively with collapsed whitespace; accessions
are compared exactly. Findings report, never repair: repeated annotations
are left in place for scoring, which tallies files as they are.
"""

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .accession import AccessionRef, Resolution, classify_accession
from .isatab import AnnotationType, StudyMetadata


class IrregularityKind(Enum):
    BROKEN_ACCESSION = "BrokenAccession"
    NON_PURL_ACCESSION = "NonPurlAccession"
    REPEATED_ANNOTATION = "RepeatedAnnotation"
    CROSS_TYPE_UNANNOTATED_DUPLICATE = "CrossTypeUnannotatedDuplicate"
    NEAR_DUPLICATE_ENTRY = "NearDuplicateEntry"
    ONTOLOGY_UNAVAILABLE = "OntologyUnavailable"
    EMPTY_LABEL_ANNOTATION = "EmptyLabelAnnotation"


@dataclass(frozen=True)
class Irregularity:
    study_id: str
    kind: IrregularityKind
    evidence: str


#: Supplies the resolution outcome for a scorable accession.
Resolver = Callable[[AccessionRef], Resolution]

DEFAULT_NEAR_DUP_THRESHOLD = 0.10

#: The finding a scorable accession raises for each unresolved outcome.
_RESOLUTION_FINDINGS = {
    Resolution.BROKEN: IrregularityKind.BROKEN_ACCESSION,
    Resolution.NOT_IN_CATALOG: IrregularityKind.ONTOLOGY_UNAVAILABLE,
}


def audit_entry(
    metadata: StudyMetadata, resolution: Resolver | None = None
) -> list[Irregularity]:
    """Audit one entry; ``resolution`` defaults to treating everything resolved.

    Findings come out in a stable order: per-slot classification and
    resolution findings in (type, slot) order, then repeated pairs and
    cross-type duplicates in order of first occurrence.
    """
    findings: list[Irregularity] = []
    study_id = metadata.study_id

    pair_counts: dict[tuple[str, str], list] = {}
    label_types: dict[str, dict[AnnotationType, bool]] = {}
    first_labels: dict[str, str] = {}

    for annotation_type in AnnotationType:
        for slot in metadata.slots.get(annotation_type, []):
            label_key = _normalize_label(slot.label)
            if slot.accession:
                ref = classify_accession(slot.accession)
                if not ref.is_scorable:
                    problem = IrregularityKind.NON_PURL_ACCESSION
                else:
                    problem = _RESOLUTION_FINDINGS.get(resolution(ref)) if resolution else None
                evidence = f"{annotation_type.value}: {slot.accession}"
                kinds = (None if slot.label else IrregularityKind.EMPTY_LABEL_ANNOTATION, problem)
                findings.extend(Irregularity(study_id, kind, evidence) for kind in kinds if kind)
            record = pair_counts.setdefault(
                (label_key, slot.accession), [0, slot.label, annotation_type]
            )
            record[0] += 1
            if slot.label:
                first_labels.setdefault(label_key, slot.label)
                per_type = label_types.setdefault(label_key, {})
                per_type[annotation_type] = per_type.get(annotation_type, False) or bool(
                    slot.accession
                )

    for (label_key, accession), (count, first_label, first_type) in pair_counts.items():
        if count > 1:
            shown = first_label if first_label else "<empty label>"
            shown_acc = accession if accession else "<no accession>"
            findings.append(
                Irregularity(
                    study_id,
                    IrregularityKind.REPEATED_ANNOTATION,
                    f"{shown!r} / {shown_acc} listed {count} times"
                    f" (first under {first_type.value})",
                )
            )

    for label_key, per_type in label_types.items():
        if len(per_type) < 2:
            continue
        annotated = [t for t, has_acc in per_type.items() if has_acc]
        if len(annotated) == 1:
            unannotated = [t.value for t in per_type if not per_type[t]]
            findings.append(
                Irregularity(
                    study_id,
                    IrregularityKind.CROSS_TYPE_UNANNOTATED_DUPLICATE,
                    f"{first_labels[label_key]!r} annotated under {annotated[0].value},"
                    f" unannotated under {', '.join(unannotated)}",
                )
            )

    return findings


def audit_corpus(
    entries: list[StudyMetadata],
    near_dup_threshold: float = DEFAULT_NEAR_DUP_THRESHOLD,
) -> list[Irregularity]:
    """Flag near-duplicate entry pairs across a corpus.

    A pair is flagged when the two (type, label, accession) slot multisets
    are identical, or when the number of differing slots is within
    ``near_dup_threshold`` of the larger entry's slot count (a 1-in-10
    difference is flagged at the default 0.10). Each unordered pair is
    reported at most once, on the lexically first study id. Findings are
    ordered by the pair's earlier entry in ``entries``, then its later one.

    Raises ``ValueError`` for a threshold outside [0, 1): at 1 or above
    every pair is flagged.
    """
    if not 0.0 <= near_dup_threshold < 1.0:
        raise ValueError(f"near_dup_threshold must be in [0, 1), got {near_dup_threshold}")
    multisets = [_slot_multiset(e) for e in entries]

    # A slot's first copy is the slot itself and its k-th repeat is
    # (slot, k), so set overlap of these int tokens equals multiset overlap.
    token_ids: dict = {}
    token_lists = []
    for multiset in multisets:
        tokens = []
        for slot, count in multiset.items():
            tokens.append(token_ids.setdefault(slot, len(token_ids)))
            for k in range(1, count):
                tokens.append(token_ids.setdefault((slot, k), len(token_ids)))
        token_lists.append(tokens)
    frequency = [0] * len(token_ids)
    for tokens in token_lists:
        for token in tokens:
            frequency[token] += 1
    rank = [0] * len(token_ids)
    for position, token in enumerate(sorted(range(len(token_ids)), key=frequency.__getitem__)):
        rank[token] = position
    del token_ids, frequency

    # Index each entry's first n - o + 1 ranked tokens (see the module
    # docstring); the 1e-9 keeps o a lower bound when (1 - t) * n rounds up.
    # Empty entries have no tokens, and 0 of 0 slots differ between them.
    candidates: set[tuple[int, int]] = set()
    index: dict[int, list[int]] = {}
    empty: list[int] = []
    for i, tokens in enumerate(token_lists):
        n = len(tokens)
        if not n:
            candidates.update((j, i) for j in empty)
            empty.append(i)
            continue
        overlap = max(1, math.floor((1.0 - near_dup_threshold) * n - 1e-9))
        for token in sorted(rank[t] for t in tokens)[: n - overlap + 1]:
            bucket = index.setdefault(token, [])
            candidates.update((j, i) for j in bucket)
            bucket.append(i)
    del index, token_lists, rank

    findings: list[Irregularity] = []
    for a, b in sorted(candidates):
        ms_a, ms_b = multisets[a], multisets[b]
        size = max(sum(ms_a.values()), sum(ms_b.values()))
        shared = sum((ms_a & ms_b).values())
        differ = size - shared
        if differ <= near_dup_threshold * size:
            first, second = sorted((entries[a].study_id, entries[b].study_id))
            findings.append(
                Irregularity(
                    first,
                    IrregularityKind.NEAR_DUPLICATE_ENTRY,
                    f"matches {second} ({differ} of {size} slots differ)",
                )
            )
    return findings


def _normalize_label(label: str) -> str:
    return " ".join(label.lower().split())


def _slot_multiset(metadata: StudyMetadata) -> Counter:
    return Counter(
        (annotation_type.value, _normalize_label(slot.label), slot.accession)
        for annotation_type in AnnotationType
        for slot in metadata.slots.get(annotation_type, [])
    )
