"""Reference audit functions: the oracles for ``annorate.audit``.

``oracle_audit_entry`` is the per-entry audit as it was before it kept
type names as plain strings and memoized labels and accession problems:
it normalizes every label, classifies every accession and asks
``resolution`` once per slot. ``oracle_prefix_join`` is the near-duplicate
join as it was before it ordered entries by size: an exact prefix-filtered
join in input order, which verifies every candidate with a multiset
intersection. ``oracle_slot_multiset`` builds those multisets without the
package's own key, so a wrong key in the package shows up as a difference.
Both oracles share the finding types with the package, so findings compare
equal.

Used by ``tests/test_audit.py`` and by the CI step that runs the
near-duplicate join on a 10x corpus (``sys.path`` must include ``tests/``).
"""

import math
from collections import Counter

from annorate.accession import Resolution, classify_accession
from annorate.audit import Irregularity, IrregularityKind, Resolver
from annorate.isatab import AnnotationType, StudyMetadata

_RESOLUTION_FINDINGS = {
    Resolution.BROKEN: IrregularityKind.BROKEN_ACCESSION,
    Resolution.NOT_IN_CATALOG: IrregularityKind.ONTOLOGY_UNAVAILABLE,
}


def _normalize_label(label: str) -> str:
    return " ".join(label.lower().split())


def oracle_slot_multiset(metadata: StudyMetadata) -> Counter:
    """An entry's slots as (type name, normalized label, accession), repeats counted."""
    return Counter(
        (annotation_type.value, _normalize_label(slot.label), slot.accession)
        for annotation_type in AnnotationType
        for slot in metadata.slots.get(annotation_type, ())
    )


def oracle_audit_entry(
    metadata: StudyMetadata, resolution: Resolver | None = None
) -> list[Irregularity]:
    """Audit one entry; ``resolution`` defaults to treating everything resolved."""
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


def oracle_prefix_join(
    entries: list[StudyMetadata], near_dup_threshold: float
) -> tuple[list[Irregularity], int]:
    """Near-duplicate findings and the number of candidate pairs verified.

    Entries are indexed in input order, and every pair that shares a
    prefix token is a candidate, whatever the two entries' sizes.
    """
    multisets = [oracle_slot_multiset(e) for e in entries]

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
    return findings, len(candidates)
