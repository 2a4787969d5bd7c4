"""Reference scorer: the oracle for the two reports of ``annorate score``.

It recomputes every ``scores.tsv`` row, and every per-type number and
annotation record of ``scores.json``, from the definitions alone:

* a slot is an annotation when its accession is an OBO Library or a
  BioPortal PURL, and a term when it has a label or is an annotation;
* an annotation scores its term's specificity (depth over branch length),
  or 0 when the catalog lacks its prefix or its term;
* per type, ``by_annotations`` and ``by_terms`` divide the score sum by the
  annotation and the term count (0 when the count is 0);
* an entry's global scores are 100 times the mean of its four scored
  types' values, empty types included, and the log scores are
  ``100 * log2(1 + score / 100)``;
* rows run by descending log term score, then study id.

Files are parsed by :func:`isatab_oracle.oracle_parse_investigation`,
accessions are classified by the two patterns below, and ontologies are
loaded by :func:`obo_oracle.oracle_load_obo`. Nothing is imported from
``annorate.scoring``, ``annorate.accession`` or the pipeline that joins them.

Used by ``tests/test_score_oracle.py`` and by the CI step that scores the
generated workloads (``sys.path`` must include ``tests/``).
"""

import json
import math
import re
import reprlib
from collections.abc import Iterator
from pathlib import Path

from annorate.isatab import AnnotationType, MalformedFileError
from annorate.ontology import OntologyError

from isatab_oracle import oracle_parse_investigation
from obo_oracle import OracleGraph, oracle_load_obo

SCORES_TSV_HEADER = "\t".join((
    "study_id", "total_annotations", "score_terms", "log_score_terms",
    "score_annotations", "log_score_annotations",
))
#: The four scored types, in report order; Person is never scored.
SCORED = tuple(map(AnnotationType, ("Design", "Factor", "Assay", "Protocol")))

_OBO_PURL = re.compile(r"https?://purl\.obolibrary\.org/obo/([A-Za-z0-9]+)_([^/_\s]+)")
_BIOPORTAL_PURL = re.compile(r"https?://purl\.bioontology\.org/ontology/([^/\s]+)/([^/\s]+)")

#: Shortens a mismatch's values, but keeps a whole scores.tsv row.
_brief = reprlib.Repr()
_brief.maxstring = _brief.maxother = 160


def oracle_score(corpus_dir: Path, catalog_path: Path | None) -> list[dict]:
    """The ``scores.json`` records of a corpus, less ``source_path`` and ``warnings``, in row order."""
    graphs = _catalog(catalog_path)
    records = [_record(study, graphs) for study in _studies(corpus_dir)]
    return sorted(records, key=lambda r: (-r["log_terms"], r["study_id"]))


def oracle_mismatches(corpus_dir: Path, catalog_path: Path | None, out_dir: Path) -> list[str]:
    """Each place where the reports under ``out_dir`` differ from the oracle's; [] when none."""
    records = oracle_score(corpus_dir, catalog_path)
    rows = [SCORES_TSV_HEADER] + [_row(record) for record in records]
    written_rows = (out_dir / "scores.tsv").read_text(encoding="utf-8").splitlines()
    problems = list(_differences(written_rows, rows, "scores.tsv"))
    written = json.loads((out_dir / "scores.json").read_text(encoding="utf-8"))
    for record in written if isinstance(written, list) else ():
        if isinstance(record, dict):
            record.pop("source_path", None)
            record.pop("warnings", None)
    return problems + list(_differences(written, records, "scores.json"))


def _studies(corpus_dir: Path):
    """The studies of each investigation file that reads and parses, in path order."""
    for path in sorted(Path(corpus_dir).rglob("i_*.txt")):
        in_own_dir = path.name == "i_Investigation.txt" and path.parent.name
        try:
            data = path.read_bytes()
            try:
                content = data.decode("utf-8-sig")
            except UnicodeDecodeError:
                content = data.decode("utf-8", "replace").lstrip("\ufeff")
            yield from oracle_parse_investigation(content, path.parent.name if in_own_dir else path.stem)
        except (OSError, MalformedFileError):
            continue


def _catalog(catalog_path: Path | None) -> dict[str, OracleGraph]:
    """The graph of each prefix whose OBO file loads; the first line of a prefix counts."""
    graphs, listed = {}, set()
    if catalog_path is None:
        return graphs
    for line in Path(catalog_path).read_text(encoding="utf-8-sig").splitlines():
        prefix, _, obo_ref = line.strip().partition("\t")
        prefix, obo_ref = prefix.strip(), obo_ref.strip()
        if prefix.startswith("#") or not prefix or not obo_ref or "\0" in obo_ref or prefix in listed:
            continue
        listed.add(prefix)
        try:
            obo = (Path(catalog_path).parent / obo_ref).read_text(encoding="utf-8-sig")
            graphs[prefix] = oracle_load_obo(obo, prefix)
        except (OSError, UnicodeDecodeError, OntologyError):
            continue
    return graphs


def _purl_term(accession: str) -> tuple[str, str] | None:
    """(prefix, term id) of a PURL accession; None for any other accession."""
    match = _OBO_PURL.fullmatch(accession) or _BIOPORTAL_PURL.fullmatch(accession)
    return (match[1], f"{match[1]}:{match[2]}") if match else None


def _type_score(slots, graphs: dict[str, OracleGraph]) -> dict:
    annotations, term_count, score_sum = [], 0, 0.0
    for slot in slots:
        purl = _purl_term(slot.accession)
        if slot.label or purl:
            term_count += 1
        if purl is None:
            continue
        prefix, term = purl
        graph = graphs.get(prefix)
        metrics = graph.specificity(term) if graph is not None and term in graph else None
        score = metrics.score if metrics else 0.0
        score_sum += score
        annotations.append({
            "label": slot.label,
            "accession": slot.accession,
            "term": term,
            "depth": metrics.depth if metrics else None,
            "branch_length": metrics.branch_length if metrics else None,
            "score": score,
            "resolution": "Resolved" if metrics else "NotInCatalog",
        })
    count = len(annotations)
    return {
        "annotation_count": count,
        "term_count": term_count,
        "score_sum": score_sum,
        "by_annotations": score_sum / count if count else 0.0,
        "by_terms": score_sum / term_count if term_count else 0.0,
        "annotations": annotations,
    }


def _record(study, graphs: dict[str, OracleGraph]) -> dict:
    types = {t.value: _type_score(study.slots.get(t, []), graphs) for t in SCORED}
    terms_sum = annotations_sum = 0.0
    for ts in types.values():
        terms_sum += ts["by_terms"]
        annotations_sum += ts["by_annotations"]
    global_terms = min(100.0, 100.0 * terms_sum / len(SCORED))
    global_annotations = min(100.0, 100.0 * annotations_sum / len(SCORED))
    return {
        "study_id": study.study_id,
        "total_annotations": sum(ts["annotation_count"] for ts in types.values()),
        "global_terms": global_terms,
        "log_terms": _log(global_terms),
        "global_annotations": global_annotations,
        "log_annotations": _log(global_annotations),
        "types": types,
    }


def _log(score: float) -> float:
    return 100.0 * math.log2(1.0 + score / 100.0)


def _row(record: dict) -> str:
    scores = (record[key] for key in
              ("global_terms", "log_terms", "global_annotations", "log_annotations"))
    return "\t".join([record["study_id"], str(record["total_annotations"]),
                      *(f"{score:.7f}" for score in scores)])


def _differences(got, want, where: str) -> Iterator[str]:
    """Where ``got`` differs from ``want`` in value or JSON kind, down to the smallest part."""
    if type(got) is type(want) is dict and got.keys() == want.keys():
        for key in want:
            yield from _differences(got[key], want[key], f"{where} {key}")
    elif type(got) is type(want) is list and len(got) == len(want):
        for index, (got_item, want_item) in enumerate(zip(got, want)):
            yield from _differences(got_item, want_item, f"{where}[{index}]")
    elif type(got) is not type(want) or got != want:
        yield f"{where}: {_brief.repr(got)}, not {_brief.repr(want)}"
