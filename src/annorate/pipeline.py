"""Wiring between parsed metadata, ontology catalogs and the scorers.

The full offline pipeline is: load investigation files from a directory,
resolve each slot's accession against an :class:`~annorate.ontology.OntologyCatalog`
and score entries; the audit reads the same loaded studies. Network probing
is an optional add-on that only refines *why* an accession could not be
resolved (broken versus not in the catalog); it never changes scores.

A run does the costly work of each distinct cell, slot and accession URL
once, however often it repeats. The parse cleans each distinct cell once and
makes equal (label, accession) pairs one shared :class:`~annorate.isatab.TermSlot`
(see :mod:`annorate.isatab`). Each distinct URL costs one classification
(:func:`~annorate.scoring.annotation_ref`, the memoized test of what an
annotation is), one catalog lookup and at most one probe (one
:class:`AccessionResolver` serves the whole run and remembers, per URL,
both the depth metrics and the resolution outcome). The ``scores.json``
writer walks each study's slots through the same test and encodes each
distinct annotation record, a slot's label with its URL's
:func:`annotation_fields`, once per distinct slot. Scoring, the
per-annotation report and the audit share all of these.
"""

import logging
import os
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable

# classify_accession is unused here but stays bound: the benchmark's tracer
# test (benchmarks/test_benchmark.py) asserts that this binding is rewrapped.
from .accession import AccessionRef, Resolution, classify_accession  # noqa: F401
from .isatab import SCORED_TYPES, MalformedFileError, StudyMetadata, load_investigation
from .ontology import DepthMetrics, OntologyCatalog
from .scoring import EntryScore, annotation_ref, score_entry

log = logging.getLogger(__name__)

#: Optional network prober: scorable accession -> Resolved/Broken.
Prober = Callable[[AccessionRef], Resolution]


class AccessionResolver:
    """Scores and resolves accessions against a catalog, caching per URL.

    ``metrics`` returns a scorable accession's depth metrics, or None when
    the catalog lacks its prefix or term; it asks the catalog once per
    distinct URL (``ref.raw``) and remembers the answer, a miss included.
    ``score`` returns the term's specificity, or 0.0 when it cannot be
    resolved (the annotation still counts). ``resolution`` distinguishes
    Resolved / Broken / NotInCatalog, also cached per URL, so a prober is
    called at most once per URL; Broken requires a prober, otherwise
    anything unresolvable is NotInCatalog.
    """

    def __init__(self, catalog: OntologyCatalog, prober: Prober | None = None):
        self.catalog = catalog
        self.prober = prober
        self._metrics: dict[str, DepthMetrics | None] = {}
        self._resolutions: dict[str, Resolution] = {}

    def metrics(self, ref: AccessionRef) -> DepthMetrics | None:
        try:
            return self._metrics[ref.raw]
        except KeyError:
            found = self._metrics[ref.raw] = self.catalog.lookup(ref.ontology_prefix, ref.curie)
            return found

    def score(self, ref: AccessionRef) -> float:
        found = self.metrics(ref)
        return found.score if found is not None else 0.0

    def resolution(self, ref: AccessionRef) -> Resolution:
        cached = self._resolutions.get(ref.raw)
        if cached is not None:
            return cached
        if self.metrics(ref) is not None:
            outcome = Resolution.RESOLVED
        elif self.prober is not None and self.prober(ref) is Resolution.BROKEN:
            outcome = Resolution.BROKEN
        else:
            outcome = Resolution.NOT_IN_CATALOG
        self._resolutions[ref.raw] = outcome
        return outcome


def load_corpus(corpus_dir: str | Path) -> tuple[list[StudyMetadata], list[str]]:
    """Parse every ``i_*.txt`` under a directory, skipping unparseable files.

    Returns the parsed studies (file order, then block order) and a list of
    per-file failure descriptions. A study id already seen is logged as a
    warning naming both sources; both studies are kept.
    """
    corpus_dir = Path(corpus_dir)
    studies: list[StudyMetadata] = []
    failures: list[str] = []
    for path in _investigation_paths(corpus_dir):
        try:
            studies.extend(load_investigation(path))
        except (MalformedFileError, OSError) as exc:
            log.warning("skipping %s: %s", path, exc)
            failures.append(f"{path}: {exc}")
    first_source: dict[str, str] = {}
    for study in studies:
        if study.study_id in first_source:
            log.warning(
                "study id %s in %s was already read from %s",
                study.study_id,
                study.source_path,
                first_source[study.study_id],
            )
        else:
            first_source[study.study_id] = study.source_path
    return studies, failures


def _investigation_paths(corpus_dir: Path) -> list[Path]:
    """``sorted(corpus_dir.rglob("i_*.txt"))``, from one walk of ``os.scandir`` listings.

    Every entry whose name matches, case-sensitively, at any depth: a file,
    a directory or a symlink. Like ``rglob``, the walk never enters a
    symlinked directory and skips a directory it cannot list.
    """
    found: list[str] = []
    dirs = [os.fspath(corpus_dir)]
    while dirs:
        try:
            with os.scandir(dirs.pop()) as listing:
                entries = list(listing)
        except OSError:
            continue
        for entry in entries:
            if fnmatchcase(entry.name, "i_*.txt"):
                found.append(entry.path)
            if entry.is_dir(follow_symlinks=False):
                dirs.append(entry.path)
    return sorted(map(Path, found))


def process_study(metadata: StudyMetadata, resolver: AccessionResolver) -> EntryScore:
    """Score one study with a shared resolver."""
    return score_entry(metadata, resolver.score)


def annotation_fields(ref: AccessionRef, resolver: AccessionResolver) -> dict:
    """The fields of an annotation record that depend on its accession URL alone.

    Everything but ``label``, in report order: the URL, its term id, the
    term's depth metrics (null when the term is not in the catalog, with
    score 0.0) and the resolution outcome.
    """
    metrics = resolver.metrics(ref)
    return {
        "accession": ref.raw,
        "term": ref.curie,
        "depth": metrics.depth if metrics else None,
        "branch_length": metrics.branch_length if metrics else None,
        "score": metrics.score if metrics else 0.0,
        "resolution": resolver.resolution(ref).value,
    }


def annotation_details(
    study: StudyMetadata, resolver: AccessionResolver
) -> dict[str, list[dict]]:
    """Per-annotation records of ``study``, as ``scores.json`` holds them.

    One record per annotation of each scored type, in slot order: its
    ``label``, then its :func:`annotation_fields`.
    """
    return {
        annotation_type.value: [
            {"label": slot.label, **annotation_fields(ref, resolver)}
            for slot in study.slots.get(annotation_type, ())
            if (ref := annotation_ref(slot.accession)) is not None
        ]
        for annotation_type in SCORED_TYPES
    }
