"""The annorate command line: fetch, score, stats and audit subcommands.

All outputs are deterministic for identical inputs: TSV files use tab
separators, LF line endings, decimal points and 7 decimal places. Exit
codes are script-friendly, and each failure prints one line to stderr:

* 0 ok;
* 2 every fetch failed, or the study listing could not be fetched;
* 3 findings present with --fail-on-findings;
* 64 usage error, including an --out that is an existing file or lies
  under one;
* 65 no input data, or an input that cannot be read or is malformed: a
  --catalog file that cannot be read as UTF-8 text, a --ids file that
  cannot be read, a --scores path that cannot be read (a directory, say),
  a scores.tsv whose line 1 is not its header, or a bad score row or
  record given to stats;
* 73 an output that cannot be written.
"""

import argparse
import json
import logging
import math
import os
import reprlib
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import corpus as corpus_mod
from .audit import DEFAULT_NEAR_DUP_THRESHOLD, audit_corpus, audit_entry
from .isatab import SCORED_TYPES, AnnotationType, StudyMetadata
from .ontology import OntologyCatalog
from .pipeline import AccessionResolver, annotation_fields, load_corpus, process_study
from .scoring import DomainError, EntryScore, TypeScore, log_transform

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ALL_FETCH_FAILED = 2
EXIT_FINDINGS = 3
EXIT_USAGE = 64
EXIT_NO_INPUT = 65
EXIT_CANT_CREATE = 73

SCORES_TSV_COLUMNS = (
    "study_id",
    "total_annotations",
    "score_terms",
    "log_score_terms",
    "score_annotations",
    "log_score_annotations",
)

#: scores.json per-type fields, in output order, each with the JSON kind it must have.
_TYPE_SCORE_FIELDS = (
    ("annotation_count", int),
    ("term_count", int),
    ("score_sum", float),
    ("by_annotations", float),
    ("by_terms", float),
)

ENV_BASE_URL = "ANNORATE_BASE_URL"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _near_dup_threshold(value: str) -> float:
    threshold = float(value)
    if not 0.0 < threshold <= 0.5:
        raise argparse.ArgumentTypeError("must be in (0, 0.5]")
    return threshold


def _concurrency(value: str) -> int:
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="annorate", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fetch = sub.add_parser("fetch", help="download investigation files")
    p_fetch.add_argument("--ids", type=Path, help="local file of study identifiers")
    p_fetch.add_argument("--out", type=Path, required=True, help="corpus directory")
    p_fetch.add_argument("--base-url", default=None, help="repository base URL")
    p_fetch.add_argument(
        "--concurrency", type=_concurrency, default=4, help="parallel downloads (default 4)"
    )
    p_fetch.add_argument("--no-cache", action="store_true", help="re-download existing files")

    corpus_args = argparse.ArgumentParser(add_help=False)
    corpus_args.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    corpus_args.add_argument("--catalog", type=Path, help="prefix<TAB>obo-path catalog file")
    corpus_args.add_argument("--out", type=Path, required=True, help="output directory")
    corpus_args.add_argument(
        "--probe",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="probe unresolved accession URLs over the network",
    )

    sub.add_parser("score", parents=[corpus_args], help="score a corpus directory")

    p_stats = sub.add_parser("stats", help="corpus statistics and figure data")
    p_stats.add_argument("--scores", type=Path, required=True, help="scores.tsv from `annorate score`")
    p_stats.add_argument("--out", type=Path, required=True, help="output directory")
    p_stats.add_argument(
        "--score-column",
        choices=corpus_mod.SCORE_COLUMNS,
        default="log_terms",
        help="column for the histogram",
    )
    p_stats.add_argument(
        "--log-base-check",
        action="store_true",
        help="verify the input's log columns against the log transform",
    )

    p_audit = sub.add_parser("audit", parents=[corpus_args], help="report metadata irregularities")
    p_audit.add_argument(
        "--near-dup-threshold",
        type=_near_dup_threshold,
        default=DEFAULT_NEAR_DUP_THRESHOLD,
        help="share of the larger entry's slots that two near-duplicates may differ in"
        " (default %(default).2f)",
    )
    p_audit.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 3 when any irregularity is found",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    existing = next(path for path in (args.out, *args.out.parents) if path.exists())
    if not existing.is_dir():
        print(f"--out {args.out}: {existing} is a file, not a directory", file=sys.stderr)
        return EXIT_USAGE
    # looked up at call time, so that a rebound cmd_* (a tracer's wrapper, say) is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except OSError as exc:  # every read failure is reported, with exit 65, where it happens
        print(f"cannot write {exc.filename or args.out}: {_reason(exc)}", file=sys.stderr)
        return EXIT_CANT_CREATE


def run() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())


def cmd_fetch(args) -> int:
    from . import ingest

    base_url = args.base_url or os.environ.get(ENV_BASE_URL) or ingest.DEFAULT_BASE_URL
    try:
        ids = ingest.list_studies(base_url, args.ids)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read ids file {args.ids}: {_reason(exc)}", file=sys.stderr)
        return EXIT_NO_INPUT
    except ingest.NetworkError as exc:
        print(f"cannot list studies: {exc}", file=sys.stderr)
        return EXIT_ALL_FETCH_FAILED
    manifest = ingest.fetch_corpus(
        ids,
        args.out,
        base_url=base_url,
        concurrency=args.concurrency,
        cache=not args.no_cache,
    )
    print(f"fetched {manifest.fetched_count}/{len(ids)} studies into {args.out}")
    if ids and manifest.fetched_count == 0:
        return EXIT_ALL_FETCH_FAILED
    return EXIT_OK


def cmd_score(args) -> int:
    loaded = _load_inputs(args)
    if loaded is None:
        return EXIT_NO_INPUT
    studies, resolver = loaded
    scored = [(study, process_study(study, resolver)) for study in studies]
    scored.sort(key=lambda pair: (-pair[1].log_terms, pair[1].study_id))

    args.out.mkdir(parents=True, exist_ok=True)
    _write_tsv(
        args.out / "scores.tsv",
        SCORES_TSV_COLUMNS,
        (
            (s.study_id, str(s.total_annotations), _fmt(s.global_terms), _fmt(s.log_terms),
             _fmt(s.global_annotations), _fmt(s.log_annotations))
            for _, s in scored
        ),
    )
    _write_scores_json(args.out / "scores.json", scored, resolver)
    print(f"scored {len(scored)} studies into {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    try:
        entries = _read_entries(args.scores, args.score_column)
    except OSError as exc:
        print(f"cannot read {exc.filename or args.scores}: {_reason(exc)}", file=sys.stderr)
        return EXIT_NO_INPUT
    except ValueError as exc:
        print(f"bad score row in {args.scores}: {exc}", file=sys.stderr)
        return EXIT_NO_INPUT
    if not entries:
        print(f"no score rows in {args.scores}", file=sys.stderr)
        return EXIT_NO_INPUT
    if args.log_base_check:
        try:
            mismatches = _log_base_mismatches(entries)
        except DomainError as exc:
            print(f"log-base check: {exc}", file=sys.stderr)
            return EXIT_NO_INPUT
        for study_id, column in mismatches:
            print(f"log-base check: {study_id} {column} inconsistent", file=sys.stderr)
        if not mismatches:
            print("log-base check: all log columns consistent with the transform")
    args.out.mkdir(parents=True, exist_ok=True)

    columns = ("log_terms", "log_annotations")
    stats = [corpus_mod.corpus_stats(entries, c) for c in columns]
    _write_tsv(
        args.out / "stats.tsv",
        ("statistic", *columns),
        (
            (name, *(_fmt(getattr(s, name)) for s in stats))
            for name in ("mean", "std_dev", "max", "min_annotated", "pct_above_mean")
        ),
    )

    dist = corpus_mod.distribution(entries, args.score_column)
    _write_tsv(
        args.out / "hist.tsv",
        ("bin_low", "count"),
        ((str(lo), str(count)) for lo, count in dist.histogram),
    )
    boxes = dist.per_type_boxplot
    _write_tsv(
        args.out / "boxplot.tsv",
        ("type", "min", "q1", "median", "q3", "max"),
        (
            (t.value, *map(_fmt, (b.minimum, b.q1, b.median, b.q3, b.maximum)))
            for t in SCORED_TYPES
            if (b := boxes.get(t)) is not None
        ),
    )
    gaps = dist.avg_weighting_gap
    _write_tsv(
        args.out / "gaps.tsv",
        ("type", "avg_gap_pct"),
        ((t.value, _fmt(gaps[t])) for t in SCORED_TYPES if gaps.get(t) is not None),
    )

    print(f"wrote stats for {len(entries)} entries into {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    loaded = _load_inputs(args)
    if loaded is None:
        return EXIT_NO_INPUT
    studies, resolver = loaded
    findings = []
    for study in studies:
        findings.extend(audit_entry(study, resolver.resolution))
    findings.extend(audit_corpus(studies, near_dup_threshold=args.near_dup_threshold))

    args.out.mkdir(parents=True, exist_ok=True)
    _write_json_list(
        args.out / "audit.json",
        ({"study_id": f.study_id, "kind": f.kind.value, "evidence": f.evidence} for f in findings),
    )
    print(f"{len(findings)} findings written to {args.out / 'audit.json'}")
    if findings and args.fail_on_findings:
        return EXIT_FINDINGS
    return EXIT_OK


def _load_inputs(args) -> tuple[list[StudyMetadata], AccessionResolver] | None:
    """The studies under ``--corpus`` and a resolver over ``--catalog``.

    None, after a one-line message, when no file parses or the catalog cannot be read.
    """
    studies, _ = load_corpus(args.corpus)
    if not studies:
        print(f"no parseable investigation files under {args.corpus}", file=sys.stderr)
        return None
    if args.catalog is not None:
        try:
            catalog = OntologyCatalog.from_file(args.catalog)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read catalog {args.catalog}: {_reason(exc)}", file=sys.stderr)
            return None
    else:
        log.warning("no ontology catalog supplied; every term scores 0")
        catalog = OntologyCatalog()
    if not args.probe:
        return studies, AccessionResolver(catalog)
    from . import ingest

    return studies, AccessionResolver(catalog, prober=ingest.probe_accession)


def _reason(exc: Exception) -> str:
    """An OS error's bare reason (no errno, no path); any other error as it prints."""
    return getattr(exc, "strerror", None) or str(exc)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.7f}"


def _write_tsv(path: Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Write ``header`` and then each row as tab-joined UTF-8 lines ending in ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("\t".join(header) + "\n")
        out.writelines("\t".join(row) + "\n" for row in rows)


#: Indent of an annotation record in scores.json: list, record, "types", type, "annotations".
_ANNOTATION_INDENT = "  " * 5
#: An encoded annotation record up to its label's value.
_LABEL_OPENING = "{\n" + _ANNOTATION_INDENT + '  "label": '


class _Encoded(str):
    """A scores.json annotation record laid out for its place; ``_json_indented`` copies it."""


def _write_scores_json(path: Path, scored, resolver) -> None:
    """Write the records of ``scored`` as ``json.dumps(records, indent=2)`` would.

    An annotation record is its ``label`` followed by the fields that
    :func:`annotation_fields` derives from its accession URL alone. Those
    are encoded once per distinct URL, at the records' fixed nesting, and
    the text is spliced in after each annotation's encoded label; the
    annotation dicts of :func:`annotation_details` are never built.
    """
    url_fields: dict[str, str] = {}  # URL -> its encoded fields, after the record's "{"

    def encode_annotation(slot, ref) -> _Encoded:
        fields = url_fields.get(ref.raw)
        if fields is None:
            encoded = _json_indented(annotation_fields(ref, resolver), _ANNOTATION_INDENT)
            fields = url_fields[ref.raw] = encoded[1:]
        return _Encoded(_LABEL_OPENING + encode_basestring_ascii(slot.label) + "," + fields)

    _write_json_list(
        path, (_score_record(study, score, encode_annotation) for study, score in scored)
    )


def _score_record(study, score: EntryScore, encode_annotation) -> dict:
    types = {}
    for annotation_type in SCORED_TYPES:
        ts = score.per_type[annotation_type]
        fields = {key: getattr(ts, key) for key, _ in _TYPE_SCORE_FIELDS}
        fields["annotations"] = [encode_annotation(slot, ref) for slot, ref in ts.annotations]
        types[annotation_type.value] = fields
    return {
        "study_id": score.study_id,
        "source_path": study.source_path,
        "total_annotations": score.total_annotations,
        "global_terms": score.global_terms,
        "log_terms": score.log_terms,
        "global_annotations": score.global_annotations,
        "log_annotations": score.log_annotations,
        "warnings": study.warnings,
        "types": types,
    }


def _write_json_list(path: Path, records) -> None:
    """Write ``json.dump(list(records), out, indent=2)`` and a newline, record by record.

    Both reports go through here. Each record is encoded by
    :func:`_json_indented` and written before the next is asked for, so the
    whole document never sits in memory.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        opening = "[\n  "
        for record in records:
            out.write(opening + _json_indented(record, "  "))
            opening = ",\n  "
        out.write("[]\n" if opening == "[\n  " else "\n]\n")


def _json_indented(value, indent: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` encodes it, nested at ``indent``.

    The pure-Python encoder that ``json`` falls back to whenever ``indent`` is
    set is several times slower. Only the kinds the reports hold are taken:
    str, int, finite float, None, and lists and str-keyed dicts of them, and
    ``_Encoded`` text, which is copied as it is.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is _Encoded:
        return value
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} in a report")
        return float.__repr__(value)
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is list:
        items = [_json_indented(item, inner) for item in value]
        brackets = "[]"
    elif kind is dict:
        items = [
            encode_basestring_ascii(key) + ": " + _json_indented(item, inner)
            for key, item in value.items()
        ]
        brackets = "{}"
    else:
        raise TypeError(f"{value!r} is not a report JSON value")
    if not items:
        return brackets
    separator = ",\n" + inner
    return brackets[0] + "\n" + inner + separator.join(items) + "\n" + indent + brackets[1]


def _log_base_mismatches(entries: list[EntryScore]) -> list[tuple[str, str]]:
    mismatches = []
    for entry in entries:
        pairs = (
            ("log_terms", entry.global_terms, entry.log_terms),
            ("log_annotations", entry.global_annotations, entry.log_annotations),
        )
        for column, score, logged in pairs:
            try:
                expected = log_transform(score)
            except DomainError as exc:
                raise DomainError(f"{entry.study_id} {column}: {exc}") from exc
            if abs(expected - logged) > 1e-6:
                mismatches.append((entry.study_id, column))
    return mismatches


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite score {cell!r}")
    return value


def _read_entries(scores_path: Path, histogram_column: str) -> list[EntryScore]:
    """Rebuild entry scores from scores.tsv (plus scores.json when present).

    Rows and records that share a study id are paired in file order: the
    k-th row of an id takes the per-type scores of the k-th record of that
    id. Raises ``ValueError`` when line 1 is not the ``SCORES_TSV_COLUMNS``
    header, naming the row on a wrong number of cells, a non-numeric or
    non-finite cell or a ``histogram_column`` value outside [0, 100], and
    naming the record on a malformed scores.json record (see
    :func:`_read_per_type`). Raises ``OSError`` when a file cannot be read.
    """
    lines = scores_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "\t".join(SCORES_TSV_COLUMNS):
        header = ", ".join(SCORES_TSV_COLUMNS)
        raise ValueError(f"line 1 is not the scores.tsv header ({header})")
    json_path = scores_path.with_name("scores.json")
    per_type_by_study = _read_per_type(json_path) if json_path.exists() else {}

    entries = []
    for line_number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        study_id = cells[0]
        per_type = per_type_by_study.get(study_id)
        try:
            if len(cells) != len(SCORES_TSV_COLUMNS):
                raise ValueError(f"{len(cells)} cells, not {len(SCORES_TSV_COLUMNS)}")
            entry = EntryScore(
                study_id=study_id,
                per_type=per_type.pop(0) if per_type else {},
                global_terms=_finite(cells[2]),
                log_terms=_finite(cells[3]),
                global_annotations=_finite(cells[4]),
                log_annotations=_finite(cells[5]),
                total_annotations=int(cells[1]),
            )
            value = getattr(entry, histogram_column)
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{histogram_column} {value} outside [0, 100]")
        except ValueError as exc:
            raise ValueError(f"line {line_number} ({study_id}): {exc}") from exc
        entries.append(entry)
    return entries


_KIND_NAMES = {dict: "an object", str: "a string", int: "an integer", float: "a finite number"}


def _read_per_type(json_path: Path) -> dict[str, list[dict[AnnotationType, TypeScore]]]:
    """Per-type scores by study id, one per record in file order, read from scores.json.

    Raises ``ValueError`` naming the record (its study id, or its position
    when it has none) and the key when the record is not an object, lacks a
    key, names an unknown type, or holds a value of the wrong JSON kind;
    naming the file when it is nested too deeply to decode; and as ``json``
    does when it is not JSON.
    """
    try:
        records = json.loads(json_path.read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{json_path.name}: nested too deeply to read") from None
    if not isinstance(records, list):
        raise ValueError(f"{json_path.name}: not a list of records")
    per_type_by_study: dict[str, list[dict[AnnotationType, TypeScore]]] = {}
    for position, record in enumerate(records, start=1):
        label = record.get("study_id") if isinstance(record, dict) else None
        where = f"{json_path.name} record {label if isinstance(label, str) else position}"
        try:
            _expect(record, dict, "record")
            study_id = _expect(record["study_id"], str, "study_id")
            types = {}
            for type_name, ts in _expect(record.get("types", {}), dict, "types").items():
                # before the keys, so an unknown type is reported as such
                annotation_type = AnnotationType(type_name)
                _expect(ts, dict, type_name)
                types[annotation_type] = TypeScore(
                    **{
                        key: _expect(ts[key], kind, f"{type_name} {key}")
                        for key, kind in _TYPE_SCORE_FIELDS
                    }
                )
            per_type_by_study.setdefault(study_id, []).append(types)
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return per_type_by_study


def _expect(value, kind: type, what: str):
    """``value`` when it has the JSON ``kind``; else a ``ValueError`` naming ``what``."""
    if isinstance(value, bool):  # JSON true/false: bool subclasses int
        ok = False
    elif kind is float:
        ok = isinstance(value, (int, float)) and math.isfinite(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{what} is {reprlib.repr(value)}, not {_KIND_NAMES[kind]}")
    return value
