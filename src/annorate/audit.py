"""Detection of structural irregularities in study metadata.

Per-entry checks flag accession problems (non-PURL links, empty-label
annotations, broken or uncatalogued terms), identical (label, accession)
pairs listed more than once, and labels that appear under two annotation
types with the accession under exactly one of them. Corpus-wide checks flag
near-duplicate entry pairs whose slot multisets are identical or almost so.

An entry is audited in one pass over its slots. Label normalization is
memoized per process, and the near-duplicate join shares the memo; within
an entry each distinct accession is classified and resolved once. Types are
carried by name, so no slot reads an enum's value or hashes an enum.

The near-duplicate check is an exact prefix-filtered similarity join
(Chaudhuri, Ganti & Kaushik, ICDE 2006; Xiao et al., PPJoin, WWW 2008)
with the length filter of AllPairs (Bayardo, Ma & Srikant, WWW 2007).
Each entry's slot multiset becomes a set of int tokens, ranked rarest first
across the corpus and kept as one sorted list. At threshold t, a flagged
pair shares at least o = (1 - t) * n of each entry's n tokens, so under that
one ranking the two entries' first n - o + 1 tokens meet; and, since the
shared tokens are at most the smaller size, the sizes differ by at most
t times the larger one. Entries are indexed in ascending size order, so an
indexed entry shorter than (1 - t) * n is too short for every later entry
as well, and each index bucket skips its too-short head for good.
Candidates are the pairs that share such a prefix token and pass the size
test, plus every pair of empty entries. Tokens are unique within an entry,
so each candidate is verified with one set intersection, under the full
flag rule: the findings are exactly those of comparing every pair.

Labels are compared case-insensitively with collapsed whitespace; accessions
are compared exactly. Findings report, never repair: repeated annotations
are left in place for scoring, which tallies files as they are.
"""

import math
from collections import Counter
from enum import Enum
from functools import cache
from itertools import chain
from typing import Callable, Iterator, NamedTuple

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


class Irregularity(NamedTuple):
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

#: Each annotation type with its name, in audit order.
_TYPES = tuple((annotation_type, annotation_type.value) for annotation_type in AnnotationType)


def audit_entry(
    metadata: StudyMetadata, resolution: Resolver | None = None
) -> list[Irregularity]:
    """Audit one entry; ``resolution`` defaults to treating everything resolved.

    Findings come out in a stable order: per-slot classification and
    resolution findings in (type, slot) order, then repeated pairs and
    cross-type duplicates in order of first occurrence. ``resolution`` is
    asked once per distinct scorable accession of the entry.
    """
    findings: list[Irregularity] = []
    append = findings.append
    study_id = metadata.study_id
    slots_by_type = metadata.slots

    problems: dict[str, IrregularityKind | None] = {}  # accession -> its finding
    pair_counts: dict[tuple[str, str], list] = {}  # -> [count, first label, first type]
    label_types: dict[str, dict[str, bool]] = {}  # -> {type name: annotated}, first-seen order
    first_labels: dict[str, str] = {}

    for annotation_type, type_name in _TYPES:
        for slot in slots_by_type.get(annotation_type, ()):
            label = slot.label
            accession = slot.accession
            label_key = _normalize_label(label)
            if accession:
                problem = problems.get(accession, False)
                if problem is False:
                    problem = problems[accession] = _accession_problem(accession, resolution)
                if problem or not label:
                    evidence = f"{type_name}: {accession}"
                    if not label:
                        empty_label = IrregularityKind.EMPTY_LABEL_ANNOTATION
                        append(Irregularity(study_id, empty_label, evidence))
                    if problem:
                        append(Irregularity(study_id, problem, evidence))
            pair = (label_key, accession)
            record = pair_counts.get(pair)
            if record is None:
                pair_counts[pair] = [1, label, type_name]
            else:
                record[0] += 1
            if label:
                per_type = label_types.get(label_key)
                if per_type is None:
                    label_types[label_key] = {type_name: bool(accession)}
                    first_labels[label_key] = label
                elif not per_type.get(type_name):
                    per_type[type_name] = bool(accession)

    for (label_key, accession), (count, first_label, first_type) in pair_counts.items():
        if count > 1:
            shown = first_label if first_label else "<empty label>"
            shown_acc = accession if accession else "<no accession>"
            append(
                Irregularity(
                    study_id,
                    IrregularityKind.REPEATED_ANNOTATION,
                    f"{shown!r} / {shown_acc} listed {count} times (first under {first_type})",
                )
            )

    for label_key, per_type in label_types.items():
        if len(per_type) < 2:
            continue
        annotated = [name for name, has_acc in per_type.items() if has_acc]
        if len(annotated) == 1:
            unannotated = [name for name, has_acc in per_type.items() if not has_acc]
            append(
                Irregularity(
                    study_id,
                    IrregularityKind.CROSS_TYPE_UNANNOTATED_DUPLICATE,
                    f"{first_labels[label_key]!r} annotated under {annotated[0]},"
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
    candidates = _near_dup_candidates(_ranked_tokens(entries), near_dup_threshold)
    findings: list[Irregularity] = []
    for a, b, differ, size in sorted(candidates):
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


def _accession_problem(accession: str, resolution: Resolver | None) -> IrregularityKind | None:
    """The finding a slot's non-empty accession raises, if any."""
    ref = classify_accession(accession)
    if not ref.is_scorable:
        return IrregularityKind.NON_PURL_ACCESSION
    return _RESOLUTION_FINDINGS.get(resolution(ref)) if resolution else None


@cache
def _normalize_label(label: str) -> str:
    """``label`` lower-cased with its whitespace runs collapsed to one space.

    Memoized: a corpus repeats its labels across slots and studies, and the
    memo holds one entry per distinct label seen.
    """
    return " ".join(label.lower().split())


def _slot_multiset(metadata: StudyMetadata) -> Counter:
    slots_by_type = metadata.slots
    return Counter(
        (type_name, _normalize_label(slot.label), slot.accession)
        for annotation_type, type_name in _TYPES
        for slot in slots_by_type.get(annotation_type, ())
    )


def _ranked_tokens(entries: list[StudyMetadata]) -> list[list[int]]:
    """Each entry's slot multiset as a sorted list of distinct int tokens.

    A slot's first copy is the slot itself and its k-th repeat is
    (slot, k), so the set overlap of two entries' tokens equals their
    multiset overlap. A token's value is its rank, rarest first across the
    corpus (ties in order of first appearance).
    """
    token_ids: dict = {}
    token_lists = []
    for entry in entries:
        tokens = []
        for slot, count in _slot_multiset(entry).items():
            tokens.append(token_ids.setdefault(slot, len(token_ids)))
            if count > 1:
                for k in range(1, count):
                    tokens.append(token_ids.setdefault((slot, k), len(token_ids)))
        token_lists.append(tokens)
    frequency = Counter(chain.from_iterable(token_lists))
    rank = [0] * len(token_ids)
    for position, token in enumerate(sorted(range(len(token_ids)), key=frequency.__getitem__)):
        rank[token] = position
    return [sorted(map(rank.__getitem__, tokens)) for tokens in token_lists]


def _near_dup_candidates(
    token_lists: list[list[int]], near_dup_threshold: float
) -> Iterator[tuple[int, int, int, int]]:
    """``(a, b, differ, size)`` for each candidate pair, ``a < b``, in no fixed order.

    ``size`` is the larger entry's token count and ``differ`` the number of
    its tokens the other entry lacks; the caller applies the flag rule. See
    the module docstring for why no flagged pair is missed.
    """
    t = near_dup_threshold
    sizes = [len(tokens) for tokens in token_lists]
    # bucket[0] is the offset of the bucket's first entry not yet too short
    index: dict[int, list[int]] = {}
    empty: list[int] = []
    for i in sorted(range(len(token_lists)), key=sizes.__getitem__):
        tokens = token_lists[i]
        n = len(tokens)
        if not n:  # 0 of 0 slots differ between two empty entries
            for j in empty:
                yield j, i, 0, 0
            empty.append(i)
            continue
        # the 1e-9 keeps both bounds on the safe side of float rounding
        min_size = (1.0 - t) * n - 1e-9
        overlap = max(1, math.floor(min_size))
        found: set[int] = set()
        for token in tokens[: n - overlap + 1]:
            bucket = index.get(token)
            if bucket is None:
                index[token] = [1, i]
                continue
            start = bucket[0]
            while start < len(bucket) and sizes[bucket[start]] < min_size:
                start += 1
            bucket[0] = start
            found.update(bucket[start:])
            bucket.append(i)
        if not found:
            continue
        token_set = set(tokens)
        for j in found:
            differ = n - len(token_set.intersection(token_lists[j]))
            yield (j, i, differ, n) if j < i else (i, j, differ, n)
