"""Reference investigation parser: the oracle for ``annorate.isatab``.

This is the parser as it was before it read each file in one pass: every
line is split and every cell cleaned, empty rows are dropped, the rows are
cut into ``STUDY`` blocks, and each block is scanned for recognized field
rows. It shares the metadata and error types with the package, so a test
can compare results and raised exceptions directly.

Used by ``tests/test_isatab.py`` and by the CI step that parses the
generated workloads (``sys.path`` must include ``tests/``).
"""

from annorate.isatab import (
    ACCESSION_SUFFIX,
    IDENTIFIER_FIELD,
    SOURCE_REF_SUFFIX,
    TYPE_FIELDS,
    AnnotationType,
    MalformedFileError,
    StudyMetadata,
    TermSlot,
)


def oracle_parse_investigation(content: str, source_name: str = "") -> list[StudyMetadata]:
    """Parse investigation content into one StudyMetadata per STUDY block."""
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
        slots[annotation_type] = _pair_slots(labels, accessions)

    identifier_cells = fields.get(IDENTIFIER_FIELD, [])
    study_id = identifier_cells[0] if identifier_cells and identifier_cells[0] else fallback_id
    return StudyMetadata(
        study_id=study_id, slots=slots, source_path=source_name, warnings=warnings
    )


def _pair_slots(labels: list[str], accessions: list[str]) -> list[TermSlot]:
    slots = []
    for i in range(max(len(labels), len(accessions))):
        label = labels[i] if i < len(labels) else ""
        accession = accessions[i] if i < len(accessions) else ""
        if label or accession:
            slots.append(TermSlot(label=label, accession=accession))
    return slots
