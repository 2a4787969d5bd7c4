"""ISA-Tab investigation file parsing.

Investigation files (``i_*.txt``) are tab-delimited with one field per row:
``FieldName<TAB>"value 1"<TAB>"value 2"...``. The five annotation-type field
rows (study design, factor, assay measurement, protocol, person role) carry
the free-text term labels; their parallel ``... Term Accession Number`` and
``... Term Source REF`` rows carry positionally aligned accession URLs and
source names. Cell *i* of a type row pairs with cell *i* of its accession
row; when the accession row is shorter, the unmatched trailing labels become
unannotated terms.

Files may contain several ``STUDY`` blocks; each block parses into its own
:class:`StudyMetadata`. Parsing is a pure function of its input and safe to
call concurrently.
"""

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path


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


class MalformedFileError(Exception):
    """Content has no recognizable investigation field rows."""


@dataclass(frozen=True)
class TermSlot:
    """One term listing: free-text label plus optional accession URL."""

    label: str
    accession: str = ""
    source_ref: str = ""


@dataclass
class StudyMetadata:
    """Per-study term slots keyed by annotation type.

    Every :class:`AnnotationType` key is always present, possibly with an
    empty list. ``warnings`` records non-fatal parse issues (duplicate field
    rows, encoding repairs).
    """

    study_id: str
    slots: dict[AnnotationType, list[TermSlot]]
    source_path: str = ""
    warnings: list[str] = field(default_factory=list)


def parse_investigation(content: str, source_name: str = "") -> list[StudyMetadata]:
    """Parse investigation content into one StudyMetadata per STUDY block.

    ``study_id`` comes from each block's ``Study Identifier`` field, falling
    back to ``source_name`` (suffixed with the block number past the first).
    A duplicated field row within a block is ignored in favour of the first
    occurrence and recorded as a warning.

    Raises ``MalformedFileError`` when no recognizable field row appears
    anywhere in the content.
    """
    rows = [_split_row(line) for line in content.splitlines()]
    rows = [r for r in rows if any(cell for cell in r)]
    blocks = _study_blocks(rows)
    if not any(_is_recognized_field(r[0]) for block in blocks for r in block):
        raise MalformedFileError(
            f"no recognizable investigation field rows in {source_name or 'content'}"
        )
    studies = []
    for index, block in enumerate(blocks):
        fallback = source_name if index == 0 else f"{source_name}_study{index + 1}"
        studies.append(_parse_block(block, fallback, source_name))
    return studies


def load_investigation(path: str | Path) -> list[StudyMetadata]:
    """Read and parse an investigation file from disk.

    Decoding is UTF-8 first (BOM tolerated); invalid byte sequences are
    replaced and recorded as a warning on every parsed study. The fallback
    study id is the containing directory for the conventional
    ``i_Investigation.txt`` layout, otherwise the file stem.
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
    studies = parse_investigation(content, source_name)
    for study in studies:
        study.source_path = str(path)
        study.warnings = warnings + study.warnings
    return studies


def _split_row(line: str) -> list[str]:
    return [_clean_cell(c) for c in line.rstrip("\r\n").split("\t")]


def _clean_cell(cell: str) -> str:
    cell = cell.strip()
    if len(cell) >= 2 and cell.startswith('"') and cell.endswith('"'):
        cell = cell[1:-1].strip()
    return cell


def _is_recognized_field(name: str) -> bool:
    if name == IDENTIFIER_FIELD:
        return True
    for base in TYPE_FIELDS.values():
        if name in (base, base + ACCESSION_SUFFIX, base + SOURCE_REF_SUFFIX):
            return True
    return False


def _study_blocks(rows: list[list[str]]) -> list[list[list[str]]]:
    """Split rows into STUDY blocks; without STUDY headers the file is one block."""
    starts = [
        i
        for i, row in enumerate(rows)
        if row[0] == "STUDY" and not any(cell for cell in row[1:])
    ]
    if not starts:
        return [rows]
    return [rows[start:end] for start, end in zip(starts, starts[1:] + [len(rows)])]


def _parse_block(
    block: list[list[str]], fallback_id: str, source_name: str
) -> StudyMetadata:
    fields: dict[str, list[str]] = {}
    warnings: list[str] = []
    for row in block:
        name = row[0]
        if not _is_recognized_field(name):
            continue
        if name in fields:
            warnings.append(f"duplicate field row {name!r} ignored (kept first)")
            continue
        fields[name] = row[1:]

    slots: dict[AnnotationType, list[TermSlot]] = {}
    for annotation_type, base in TYPE_FIELDS.items():
        labels = fields.get(base, [])
        accessions = fields.get(base + ACCESSION_SUFFIX, [])
        sources = fields.get(base + SOURCE_REF_SUFFIX, [])
        slots[annotation_type] = _pair_slots(labels, accessions, sources)

    identifier_cells = fields.get(IDENTIFIER_FIELD, [])
    study_id = identifier_cells[0] if identifier_cells and identifier_cells[0] else fallback_id
    return StudyMetadata(
        study_id=study_id, slots=slots, source_path=source_name, warnings=warnings
    )


def _pair_slots(
    labels: list[str], accessions: list[str], sources: list[str]
) -> list[TermSlot]:
    slots = []
    for i in range(max(len(labels), len(accessions))):
        label = labels[i] if i < len(labels) else ""
        accession = accessions[i] if i < len(accessions) else ""
        source = sources[i] if i < len(sources) else ""
        if label or accession:
            slots.append(TermSlot(label=label, accession=accession, source_ref=source))
    return slots
