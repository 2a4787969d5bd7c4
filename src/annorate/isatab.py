"""ISA-Tab investigation file parsing.

Investigation files (``i_*.txt``) are tab-delimited with one field per row:
``FieldName<TAB>"value 1"<TAB>"value 2"...``. The five annotation-type field
rows (study design, factor, assay measurement, protocol, person role) carry
the free-text term labels; their parallel ``... Term Accession Number`` rows
carry positionally aligned accession URLs. Cell *i* of a type row pairs with
cell *i* of its accession row; when the accession row is shorter, the
unmatched trailing labels become unannotated terms.

Files may contain several ``STUDY`` blocks; each block parses into its own
:class:`StudyMetadata`. A ``STUDY`` row with no other non-empty cell opens a
block. Rows before the first such header belong to no study; a file
without one is a single block.

Each file is read in one pass over its lines. A line's first cell is
cleaned (whitespace and one pair of enclosing quotes stripped) and looked
up in one set of recognized field row names. Those rows keep their cells
raw, and a study cleans only the ones it reads: its labels, accessions and
identifier. Every other row but ``STUDY`` headers is skipped. Parsing is a
pure function of its input and safe to call concurrently.

A corpus repeats its cells and slots heavily, so the parse does each
distinct one once per process. Cleaning is memoized, so a distinct cell is
cleaned once. Each slot comes from one memoized constructor, so equal
(label, accession) pairs anywhere in the input, within a study, across
types or across files, are one shared immutable :class:`TermSlot`, with
one label and one accession string. Like those of ``classify_accession``,
both memos grow with the distinct cells seen, which for a batch run is
bounded by its input.
"""

import re
from enum import Enum
from functools import cache
from itertools import starmap, zip_longest
from pathlib import Path
from typing import NamedTuple


class AnnotationType(Enum):
    DESIGN = "Design"
    FACTOR = "Factor"
    ASSAY = "Assay"
    PROTOCOL = "Protocol"
    PERSON = "Person"


#: Types that participate in global scoring; Person is parsed but never scored.
SCORED_TYPES: tuple[AnnotationType, ...] = (
    AnnotationType.DESIGN,
    AnnotationType.FACTOR,
    AnnotationType.ASSAY,
    AnnotationType.PROTOCOL,
)

TYPE_FIELDS: dict[AnnotationType, str] = {
    AnnotationType.DESIGN: "Study Design Type",
    AnnotationType.FACTOR: "Study Factor Type",
    AnnotationType.ASSAY: "Study Assay Measurement Type",
    AnnotationType.PROTOCOL: "Study Protocol Type",
    AnnotationType.PERSON: "Study Person Roles",
}

ACCESSION_SUFFIX = " Term Accession Number"
SOURCE_REF_SUFFIX = " Term Source REF"
IDENTIFIER_FIELD = "Study Identifier"

#: Each recognized field row name: the study identifier and, per annotation
#: type, its label, accession and Term Source REF rows.
_FIELDS = frozenset(
    [IDENTIFIER_FIELD]
    + [base + s for base in TYPE_FIELDS.values() for s in ("", ACCESSION_SUFFIX, SOURCE_REF_SUFFIX)]
)

#: What a study id cannot carry into ``scores.tsv``: a tab, anything
#: ``str.splitlines`` breaks on, and a lone surrogate (an undecodable byte of
#: a path name, as ``os.fsdecode`` gives it). A pattern string, compiled on
#: first use, so that a process that parses no file does not compile it.
_UNSAFE_ID_CHARS = "[\t\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029\ud800-\udfff]"


class MalformedFileError(Exception):
    """Content has no recognizable investigation field rows."""


class TermSlot(NamedTuple):
    """One term listing: free-text label plus optional accession URL."""

    label: str
    accession: str = ""


class StudyMetadata:
    """Per-study term slots keyed by annotation type.

    Every :class:`AnnotationType` key is always present, possibly with an
    empty list. ``warnings`` records non-fatal parse issues (duplicate field
    rows, encoding repairs). The fields stay assignable: a loader sets
    ``source_path`` and ``warnings`` after the parse.
    """

    __slots__ = ("study_id", "slots", "source_path", "warnings")

    def __init__(
        self, study_id: str, slots: dict, source_path: str = "", warnings: list[str] | None = None
    ):
        self.study_id = study_id
        self.slots = slots
        self.source_path = source_path
        self.warnings = [] if warnings is None else warnings

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


def parse_investigation(content: str, source_name: str = "") -> list[StudyMetadata]:
    """Parse investigation content into one StudyMetadata per STUDY block.

    ``study_id`` comes from each block's ``Study Identifier`` field, falling
    back to ``source_name`` (suffixed with the block number past the first).
    A duplicated field row within a block is ignored in favour of the first
    occurrence and recorded as a warning.

    Raises ``MalformedFileError`` when no block holds a recognizable field
    row.
    """
    # (field row cells by name, warnings) per block; until the first STUDY
    # header, the whole content is one block
    blocks: list[tuple[dict[str, list[str]], list[str]]] = [({}, [])]
    in_study = False
    for line in content.splitlines():
        cells = line.split("\t")
        name = _clean_cell(cells[0])
        if name in _FIELDS:
            fields, warnings = blocks[-1]
            if name in fields:
                warnings.append(f"duplicate field row {name!r} ignored (kept first)")
            else:
                fields[name] = cells[1:]
        elif name == "STUDY" and not any(map(_clean_cell, cells[1:])):
            if not in_study:  # rows before the first STUDY header belong to no study
                blocks.clear()
                in_study = True
            blocks.append(({}, []))
    if not any(fields for fields, _ in blocks):
        raise MalformedFileError(
            f"no recognizable investigation field rows in {source_name or 'content'}"
        )
    studies = []
    for index, (fields, warnings) in enumerate(blocks):
        study_id = _clean_cell((fields.get(IDENTIFIER_FIELD) or [""])[0])
        fallback = source_name if index == 0 else f"{source_name}_study{index + 1}"
        slots = {
            t: _pair_slots(fields.get(base, []), fields.get(base + ACCESSION_SUFFIX, []))
            for t, base in TYPE_FIELDS.items()
        }
        studies.append(StudyMetadata(study_id or fallback, slots, source_name, warnings))
    return studies


def load_investigation(path: str | Path) -> list[StudyMetadata]:
    """Read and parse an investigation file from disk.

    Decoding is UTF-8 first (BOM tolerated); invalid byte sequences are
    replaced and recorded as a warning on every parsed study. The fallback
    study id is the containing directory for the conventional
    ``i_Investigation.txt`` layout, otherwise the file stem. Each character
    of that name that ``scores.tsv`` cannot carry (a tab, a line break, an
    undecodable byte) is replaced with U+FFFD, and a warning is recorded on
    every parsed study. Each lone surrogate of the path (an undecodable byte
    of a directory name) becomes U+FFFD in ``source_path``, without a warning.
    """
    path = Path(path)
    data = path.read_bytes()
    warnings = []
    try:
        content = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        content = data.decode("utf-8", errors="replace").lstrip("﻿")
        warnings.append("invalid UTF-8 byte sequences replaced during decoding")
    if path.name == "i_Investigation.txt" and path.parent.name:
        source_name = path.parent.name
    else:
        source_name = path.stem
    safe_name = re.sub(_UNSAFE_ID_CHARS, "\ufffd", source_name)
    if safe_name != source_name:
        warnings.append(f"unsafe characters of the path name {source_name!r} replaced")
    studies = parse_investigation(content, safe_name)
    source_path = re.sub("[\ud800-\udfff]", "\ufffd", str(path))
    for study in studies:
        study.source_path = source_path
        study.warnings = warnings + study.warnings
    return studies


@cache
def _clean_cell(cell: str) -> str:
    cell = cell.strip()
    if len(cell) >= 2 and cell.startswith('"') and cell.endswith('"'):
        cell = cell[1:-1].strip()
    return cell


#: The one ``TermSlot`` of each distinct (label, accession) pair.
_slot = cache(TermSlot)


def _pair_slots(labels: list[str], accessions: list[str]) -> list[TermSlot]:
    """Pair raw label and accession cells by position, cleaning each; skip empty pairs."""
    pairs = zip_longest(map(_clean_cell, labels), map(_clean_cell, accessions), fillvalue="")
    return list(starmap(_slot, filter(any, pairs)))
