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
* 73 an output that cannot be written, standard output included: argparse
  output such as ``--help`` to a standard output that cannot be written
  exits 73 with one line.

A standard error that cannot be written never changes the exit code.

Each output is written beside its target and renamed into place by
:func:`annorate._files.replacing`, so a failed or killed run leaves the
previous file whole, never a truncated one. ``score`` renames neither of
its two reports until both are written.
"""

import argparse
import gc
import json
import logging
import math
import os
import reprlib
import sys
from collections.abc import Iterable
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TextIO

from . import corpus as corpus_mod
from ._files import replacing
from .audit import DEFAULT_NEAR_DUP_THRESHOLD, Irregularity, audit_corpus, audit_entry
from .isatab import SCORED_TYPES, AnnotationType, StudyMetadata, TermSlot
from .ontology import OntologyCatalog
from .pipeline import AccessionResolver, annotation_fields, load_corpus, process_study
from .scoring import EntryScore, TypeScore, annotation_ref, log_transform

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

#: scores.json per-type fields, in the order ``_score_record`` writes them, each with the
#: JSON kind and the bounds that ``_read_per_type`` requires.
_TYPE_SCORE_FIELDS = (
    ("annotation_count", int, 0, math.inf),
    ("term_count", int, 0, math.inf),
    ("score_sum", float, 0, math.inf),
    ("by_annotations", float, 0, 1),
    ("by_terms", float, 0, 1),
)

ENV_BASE_URL = "ANNORATE_BASE_URL"


class _Failure(Exception):
    """A failed command's exit code and the one line that :func:`main` writes to stderr."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        if message:
            _console(file or sys.stderr, message)


# each validator raises ArgumentTypeError itself: argparse's message for a ValueError names it
def _near_dup_threshold(value: str) -> float:
    try:
        threshold = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number") from None
    if not 0.0 < threshold <= 0.5:
        raise argparse.ArgumentTypeError("must be in (0, 0.5]")
    return threshold


def _concurrency(value: str) -> int:
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None
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
    try:
        args = build_parser().parse_args(argv)
        existing = next(path for path in (args.out, *args.out.parents) if path.exists())
        if not existing.is_dir():
            raise _Failure(EXIT_USAGE, f"--out {args.out}: {existing} is a file, not a directory")
        # looked up at call time, so that a rebound cmd_* (a tracer's wrapper, say) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except OSError as exc:  # every read failure is reported, with exit 65, where it happens
        code, line = EXIT_CANT_CREATE, f"cannot write {exc.filename or args.out}: {_reason(exc)}"
    except _Failure as failure:
        code, line = failure.args
    _console(sys.stderr, line + "\n")
    return code


def run() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    code = main()
    _console(sys.stderr, "")  # a log line still buffered must not fail the flush at exit
    # the run is over: the garbage collections at interpreter exit skip a frozen heap
    gc.freeze()
    sys.exit(code)


def cmd_fetch(args) -> int:
    from . import ingest

    base_url = args.base_url or os.environ.get(ENV_BASE_URL) or ingest.DEFAULT_BASE_URL
    try:
        ids = ingest.list_studies(base_url, args.ids)
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(EXIT_NO_INPUT, f"cannot read ids file {args.ids}: {_reason(exc)}")
    except ingest.NetworkError as exc:
        raise _Failure(EXIT_ALL_FETCH_FAILED, f"cannot list studies: {exc}")
    manifest = ingest.fetch_corpus(
        ids,
        args.out,
        base_url=base_url,
        concurrency=args.concurrency,
        cache=not args.no_cache,
    )
    _console(sys.stdout, f"fetched {manifest.fetched_count}/{len(ids)} studies into {args.out}\n")
    if ids and manifest.fetched_count == 0:
        return EXIT_ALL_FETCH_FAILED
    return EXIT_OK


def cmd_score(args) -> int:
    studies, resolver = _load_inputs(args)
    scored = [(study, process_study(study, resolver)) for study in studies]
    scored.sort(key=lambda pair: (-pair[1].log_terms, pair[1].study_id))

    args.out.mkdir(parents=True, exist_ok=True)
    # neither report replaces the previous one until both are written, so when
    # either write fails, stats still finds the previous pair
    with _report(args.out / "scores.json") as json_out:
        _write_scores_json(json_out, scored, resolver)
        with _report(args.out / "scores.tsv") as tsv_out:
            _write_tsv(
                tsv_out,
                SCORES_TSV_COLUMNS,
                (
                    (s.study_id, str(s.total_annotations), _fmt(s.global_terms),
                     _fmt(s.log_terms), _fmt(s.global_annotations), _fmt(s.log_annotations))
                    for _, s in scored
                ),
            )
    _console(sys.stdout, f"scored {len(scored)} studies into {args.out}\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    try:
        entries = _read_entries(args.scores)
    except OSError as exc:
        raise _Failure(EXIT_NO_INPUT, f"cannot read {exc.filename or args.scores}: {_reason(exc)}")
    except ValueError as exc:
        raise _Failure(EXIT_NO_INPUT, f"bad score row in {args.scores}: {exc}")
    if not entries:
        raise _Failure(EXIT_NO_INPUT, f"no score rows in {args.scores}")
    said = ""  # standard output's lines, written after the reports
    if args.log_base_check:
        mismatches = _log_base_mismatches(entries)
        _console(sys.stderr, "".join(f"log-base check: {study_id} {column} inconsistent\n"
                                     for study_id, column in mismatches))
        if not mismatches:
            said = "log-base check: all log columns consistent with the transform\n"
    args.out.mkdir(parents=True, exist_ok=True)

    columns = ("log_terms", "log_annotations")
    stats = [corpus_mod.corpus_stats(entries, c) for c in columns]
    dist = corpus_mod.distribution(entries, args.score_column)
    boxes, gaps = dist.per_type_boxplot, dist.avg_weighting_gap
    tables = {  # each report's header and rows
        "stats.tsv": (
            ("statistic", *columns),
            ((name, *(_fmt(getattr(s, name)) for s in stats))
             for name in ("mean", "std_dev", "max", "min_annotated", "pct_above_mean")),
        ),
        "hist.tsv": (("bin_low", "count"), ((str(lo), str(n)) for lo, n in dist.histogram)),
        "boxplot.tsv": (
            ("type", "min", "q1", "median", "q3", "max"),
            ((t.value, *map(_fmt, (b.minimum, b.q1, b.median, b.q3, b.maximum)))
             for t in SCORED_TYPES if (b := boxes.get(t)) is not None),
        ),
        "gaps.tsv": (
            ("type", "avg_gap_pct"),
            ((t.value, _fmt(gaps[t])) for t in SCORED_TYPES if gaps.get(t) is not None),
        ),
    }
    for name, (header, rows) in tables.items():
        with _report(args.out / name) as out:
            _write_tsv(out, header, rows)
    _console(sys.stdout, f"{said}wrote stats for {len(entries)} entries into {args.out}\n")
    return EXIT_OK


def cmd_audit(args) -> int:
    studies, resolver = _load_inputs(args)
    findings = []
    for study in studies:
        findings.extend(audit_entry(study, resolver.resolution))
    findings.extend(audit_corpus(studies, near_dup_threshold=args.near_dup_threshold))

    args.out.mkdir(parents=True, exist_ok=True)
    with _report(args.out / "audit.json") as out:
        _write_json_list(out, map(_finding_record, findings))
    _console(sys.stdout, f"{len(findings)} findings written to {args.out / 'audit.json'}\n")
    if findings and args.fail_on_findings:
        return EXIT_FINDINGS
    return EXIT_OK


def _load_inputs(args) -> tuple[list[StudyMetadata], AccessionResolver]:
    """The studies under ``--corpus`` and a resolver over ``--catalog``.

    Raises ``_Failure`` with exit 65 when no file parses or the catalog cannot be read.
    """
    studies, _ = load_corpus(args.corpus)
    if not studies:
        raise _Failure(EXIT_NO_INPUT, f"no parseable investigation files under {args.corpus}")
    if args.catalog is not None:
        try:
            catalog = OntologyCatalog.from_file(args.catalog)
        except (OSError, UnicodeDecodeError) as exc:
            raise _Failure(EXIT_NO_INPUT, f"cannot read catalog {args.catalog}: {_reason(exc)}")
    else:
        log.warning("no ontology catalog supplied; every term scores 0")
        catalog = OntologyCatalog()
    if not args.probe:
        return studies, AccessionResolver(catalog)
    from . import ingest

    return studies, AccessionResolver(catalog, prober=ingest.probe_accession)


def _console(stream: TextIO, text: str) -> None:
    """Write ``text`` to ``stream``, standard output or standard error, and flush it.

    Every console line goes through here, argparse's included. A stream that
    cannot be written is pointed at the null device, so the flush at exit
    cannot fail again. Then a failed standard output raises ``_Failure`` with
    exit 73, and a failed standard error is dropped: it never changes the exit code.
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        if stream is sys.stdout:
            raise _Failure(EXIT_CANT_CREATE, f"cannot write standard output: {_reason(exc)}")


def _reason(exc: Exception) -> str:
    """An OS error's bare reason (no errno, no path); any other error as it prints."""
    return getattr(exc, "strerror", None) or str(exc)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.7f}"


def _report(path: Path):
    """A report file for a ``with`` block, written beside ``path`` and renamed onto it at the end."""
    return replacing(path, "w", encoding="utf-8", newline="\n")


def _write_tsv(out: TextIO, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """Write ``header`` and then each row to ``out``, as tab-joined lines ending in ``\\n``."""
    out.writelines("\t".join(row) + "\n" for row in chain([header], rows))


def _write_scores_json(out: TextIO, scored, resolver) -> None:
    """Write the records of ``scored`` to ``out`` as ``json.dumps(records, indent=2)`` would.

    Each record's text is built from a fixed template: its study fields, then
    one block per scored type, every value encoded by :func:`_json_scalar`
    and both lists (``warnings``, a type's annotations) laid out by
    :func:`_json_list`. A type's annotations are the study's own slots of
    that type in which :func:`annotation_ref` finds one, in slot order. An
    annotation record is its ``label`` followed by the fields that
    :func:`annotation_fields` derives from its accession URL alone. Those
    fields are encoded once per distinct URL, and a whole annotation record
    once per distinct slot (equal slots are one object, see
    :mod:`annorate.isatab`), then copied wherever it repeats; the
    annotation dicts of :func:`annotation_details` are never built.
    """
    url_fields: dict[str, str] = {}  # URL -> its encoded fields, after the label
    annotation_texts: dict[TermSlot, str] = {}  # slot -> its encoded annotation record

    def annotation_text(slot: TermSlot, ref) -> str:
        text = annotation_texts.get(slot)
        if text is None:
            fields = url_fields.get(ref.raw)
            if fields is None:
                fields = url_fields[ref.raw] = "".join(
                    f',\n            "{key}": {_json_scalar(value)}'
                    for key, value in annotation_fields(ref, resolver).items()
                )
            text = annotation_texts[slot] = f"""{{
            "label": {_json_scalar(slot.label)}{fields}
          }}"""
        return text

    _write_json_list(
        out, (_score_record(study, score, annotation_text) for study, score in scored)
    )


def _score_record(study: StudyMetadata, score: EntryScore, annotation_text) -> str:
    """The scores.json record of ``score``, laid out at its place in the list."""
    blocks = []
    for annotation_type in SCORED_TYPES:
        ts = score.per_type[annotation_type]
        annotations = [
            annotation_text(slot, ref)
            for slot in study.slots.get(annotation_type, ())
            if (ref := annotation_ref(slot.accession)) is not None
        ]
        blocks.append(f"""\
"{annotation_type.value}": {{
        "annotation_count": {_json_scalar(ts.annotation_count)},
        "term_count": {_json_scalar(ts.term_count)},
        "score_sum": {_json_scalar(ts.score_sum)},
        "by_annotations": {_json_scalar(ts.by_annotations)},
        "by_terms": {_json_scalar(ts.by_terms)},
        "annotations": {_json_list(annotations, "        ")}
      }}""")
    types = ",\n      ".join(blocks)
    return f"""{{
    "study_id": {_json_scalar(score.study_id)},
    "source_path": {_json_scalar(study.source_path)},
    "total_annotations": {_json_scalar(score.total_annotations)},
    "global_terms": {_json_scalar(score.global_terms)},
    "log_terms": {_json_scalar(score.log_terms)},
    "global_annotations": {_json_scalar(score.global_annotations)},
    "log_annotations": {_json_scalar(score.log_annotations)},
    "warnings": {_json_list([_json_scalar(w) for w in study.warnings], "    ")},
    "types": {{
      {types}
    }}
  }}"""


def _finding_record(finding: Irregularity) -> str:
    """The audit.json record of ``finding``, laid out at its place in the list."""
    return f"""{{
    "study_id": {_json_scalar(finding.study_id)},
    "kind": {_json_scalar(finding.kind.value)},
    "evidence": {_json_scalar(finding.evidence)}
  }}"""


def _write_json_list(out: TextIO, texts) -> None:
    """Write the record texts ``texts`` to ``out`` as ``json.dump(..., indent=2)`` lays out a list.

    Both reports go through here. Each text is a record already laid out at
    its place in the list, and is written before the next is asked for, so
    the whole document never sits in memory.
    """
    opening = "[\n  "
    for text in texts:
        out.write(opening + text)
        opening = ",\n  "
    out.write("[]\n" if opening == "[\n  " else "\n]\n")


def _json_list(texts: list[str], indent: str) -> str:
    """The encoded values ``texts`` as ``json.dumps(indent=2)`` lays out a list at ``indent``."""
    if not texts:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(texts) + "\n" + indent + "]"


def _json_scalar(value) -> str:
    """``value``, a str, int, finite float or None, as ``json.dumps`` encodes it.

    The pure-Python encoder that ``json`` falls back to whenever ``indent`` is
    set is several times slower, so the reports' templates lay out their own
    objects and lists and encode each value here. Any other kind, a bool or a
    non-finite float included, raises.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r} in a report")
        return float.__repr__(value)
    if value is None:
        return "null"
    raise TypeError(f"{value!r} is not a report JSON scalar")


def _log_base_mismatches(entries: list[EntryScore]) -> list[tuple[str, str]]:
    mismatches = []
    for entry in entries:
        pairs = (
            ("log_terms", entry.global_terms, entry.log_terms),
            ("log_annotations", entry.global_annotations, entry.log_annotations),
        )
        for column, score, logged in pairs:
            if abs(log_transform(score) - logged) > 1e-6:
                mismatches.append((entry.study_id, column))
    return mismatches


def _read_entries(scores_path: Path) -> list[EntryScore]:
    """Rebuild entry scores from scores.tsv (plus scores.json when present).

    Rows and records that share a study id are paired in file order: the
    k-th row of an id takes the per-type scores of the k-th record of that
    id. Raises ``ValueError`` when line 1 is not the ``SCORES_TSV_COLUMNS``
    header, naming the row on a wrong number of cells, a non-numeric cell,
    a negative ``total_annotations`` or a score outside [0, 100] (a NaN or
    an infinity included), and naming
    the record on a malformed scores.json record (see
    :func:`_read_per_type`). Raises ``OSError`` when a file cannot be read.
    A byte order mark opening either file is dropped.
    """
    lines = scores_path.read_text(encoding="utf-8-sig").splitlines()
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
                global_terms=float(cells[2]),
                log_terms=float(cells[3]),
                global_annotations=float(cells[4]),
                log_annotations=float(cells[5]),
                total_annotations=int(cells[1]),
            )
            if entry.total_annotations < 0:
                raise ValueError(f"total_annotations {entry.total_annotations} outside [0, inf]")
            for column in corpus_mod.SCORE_COLUMNS:
                value = getattr(entry, column)
                if not 0.0 <= value <= 100.0:
                    raise ValueError(f"{column} {value} outside [0, 100]")
        except ValueError as exc:
            raise ValueError(f"line {line_number} ({study_id}): {exc}") from exc
        entries.append(entry)
    return entries


_KIND_NAMES = {dict: "an object", str: "a string", int: "an integer", float: "a finite number"}


def _read_per_type(json_path: Path) -> dict[str, list[dict[AnnotationType, TypeScore]]]:
    """Per-type scores by study id, one per record in file order, read from scores.json.

    Raises ``ValueError`` naming the record (its study id, or its position
    when it has none) and the key when the record is not an object, lacks a
    key, names an unknown type, or holds a value of the wrong JSON kind or
    outside its bounds in ``_TYPE_SCORE_FIELDS`` (a negative count or score
    sum, a ``by_annotations`` or ``by_terms`` outside [0, 1]); and
    naming the file when it is nested too deeply to decode, or is not UTF-8
    or not JSON (then with the codec's or ``json``'s own message).
    """
    try:
        records = json.loads(json_path.read_text(encoding="utf-8-sig"))
    except RecursionError:
        raise ValueError(f"{json_path.name}: nested too deeply to read") from None
    except ValueError as exc:  # UnicodeDecodeError or json.JSONDecodeError
        raise ValueError(f"{json_path.name}: {exc}") from None
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
                for key, kind, low, high in _TYPE_SCORE_FIELDS:
                    value = _expect(ts[key], kind, f"{type_name} {key}")
                    if not low <= value <= high:
                        raise ValueError(f"{type_name} {key} {value} outside [{low}, {high}]")
                types[annotation_type] = TypeScore(**{key: ts[key] for key in TypeScore._fields})
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
