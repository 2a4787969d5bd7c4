"""annorate rates the quality of ontology annotations in ISA-Tab study metadata.

Each annotated term is scored by its specificity within its ontology (depth
over branch length, in [0, 1]); per-type and per-entry scores aggregate those
values under two weightings (by annotations and by term slots), with a log
transform for entry-level comparison. On top of scoring, the package computes
corpus statistics and distribution data, and audits metadata for structural
irregularities such as broken PURLs, repeated annotations and near-duplicate
entries.

The pieces compose freely: parse with :func:`parse_investigation` or
:func:`load_investigation`, load ontologies with :func:`load_obo` or an
:class:`OntologyCatalog`, then score with :func:`score_entry` through an
:class:`AccessionResolver`. The ``annorate`` command line drives the same
code over whole corpus directories.

Importing the package loads none of its submodules. Each name in
``__all__`` is imported from the submodule that owns it on first access
(PEP 562), as is each of those submodules by name (``annorate.ontology``),
so a process pays only for what it uses: reading ``annorate.OntologyCatalog``
loads ``annorate.ontology`` alone, and only ``fetch`` and ``--probe`` load
the network code in ``annorate.ingest``.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, by the submodule that defines it.
_EXPORTS = {
    "accession": ("AccessionKind", "AccessionRef", "Resolution", "classify_accession"),
    "audit": ("Irregularity", "IrregularityKind", "audit_corpus", "audit_entry"),
    "corpus": (
        "BoxplotStats",
        "CorpusStats",
        "Distribution",
        "EmptyCorpusError",
        "corpus_stats",
        "distribution",
    ),
    "ingest": (
        "CorpusManifest",
        "ManifestEntry",
        "NetworkError",
        "fetch_corpus",
        "list_studies",
        "probe_accession",
    ),
    "isatab": (
        "SCORED_TYPES",
        "AnnotationType",
        "MalformedFileError",
        "StudyMetadata",
        "TermSlot",
        "load_investigation",
        "parse_investigation",
    ),
    "ontology": (
        "CycleDetectedError",
        "DepthMetrics",
        "EmptyOntologyError",
        "OntologyCatalog",
        "OntologyGraph",
        "UnknownTermError",
        "load_obo",
    ),
    "pipeline": ("AccessionResolver", "load_corpus", "process_study"),
    "scoring": (
        "DomainError",
        "EntryScore",
        "TypeScore",
        "log_transform",
        "score_entry",
        "type_tally",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
