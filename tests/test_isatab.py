"""Investigation file parsing."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annorate.isatab import (
    ACCESSION_SUFFIX,
    IDENTIFIER_FIELD,
    SCORED_TYPES,
    SOURCE_REF_SUFFIX,
    TYPE_FIELDS,
    AnnotationType,
    MalformedFileError,
    TermSlot,
    load_investigation,
    parse_investigation,
)

from conftest import (
    MTBLS95_DESIGN_ACCESSIONS,
    MTBLS95_DESIGN_LABELS,
    investigation_text,
    mtbls95_investigation,
)
from isatab_oracle import oracle_parse_investigation

# exclude tabs, quotes and every character str.splitlines treats as a break
_LABEL_BLACKLIST = '\t"\r\n\v\f\x1c\x1d\x1e\x85  '

labels_strategy = st.lists(
    st.text(
        alphabet=st.characters(
            blacklist_characters=_LABEL_BLACKLIST, blacklist_categories=("Cs",)
        ),
        min_size=1,
        max_size=20,
    )
    .map(str.strip)
    .filter(bool),
    min_size=1,
    max_size=6,
)


def n_slots(study, annotation_type):
    return len(study.slots[annotation_type])


def n_accessions(study, annotation_type):
    return sum(1 for slot in study.slots[annotation_type] if slot.accession)


def parse_single(content, source_name="test"):
    studies = parse_investigation(content, source_name)
    assert len(studies) == 1
    return studies[0]


class TestParse:
    def test_reference_study_counts(self):
        study = parse_single(mtbls95_investigation())
        assert study.study_id == "MTBLS95"
        assert n_slots(study, AnnotationType.DESIGN) == 7
        assert n_accessions(study, AnnotationType.DESIGN) == 6
        assert n_slots(study, AnnotationType.FACTOR) == 2
        assert n_accessions(study, AnnotationType.FACTOR) == 0
        assert n_slots(study, AnnotationType.ASSAY) == 2
        assert n_accessions(study, AnnotationType.ASSAY) == 2
        assert n_slots(study, AnnotationType.PROTOCOL) == 6
        assert n_accessions(study, AnnotationType.PROTOCOL) == 0

    def test_positional_pairing(self):
        study = parse_single(mtbls95_investigation())
        design = study.slots[AnnotationType.DESIGN]
        assert [s.label for s in design] == MTBLS95_DESIGN_LABELS
        assert [s.accession for s in design[:6]] == MTBLS95_DESIGN_ACCESSIONS
        # the trailing seventh label has no accession cell under it
        assert design[6].accession == ""

    def test_all_value_cells_empty(self):
        content = (
            'Study Identifier\t""\n'
            'Study Design Type\t""\t""\n'
            'Study Design Type Term Accession Number\t""\n'
            'Study Factor Type\t""\n'
            'Study Assay Measurement Type\t""\n'
            'Study Protocol Type\t""\n'
        )
        study = parse_single(content)
        for annotation_type in SCORED_TYPES:
            assert study.slots[annotation_type] == []
            assert n_slots(study, annotation_type) == 0
            assert n_accessions(study, annotation_type) == 0

    def test_malformed_file(self):
        with pytest.raises(MalformedFileError):
            parse_investigation("just some\trandom\tcells\nanother line\n", "x")

    def test_duplicate_field_row_keeps_first(self):
        content = investigation_text(
            study_id="S1", sections={AnnotationType.FACTOR: (["first"], [])}
        )
        content += 'Study Factor Type\t"second"\n'
        study = parse_single(content)
        assert [s.label for s in study.slots[AnnotationType.FACTOR]] == ["first"]
        assert any("duplicate field row" in w for w in study.warnings)

    def test_fallback_study_id(self):
        content = investigation_text(sections={AnnotationType.DESIGN: (["x"], [])})
        study = parse_single(content, source_name="MTBLS123")
        assert study.study_id == "MTBLS123"

    def test_quote_stripping(self):
        study = parse_single('Study Design Type\t"outer "inner" kept"\n')
        label = study.slots[AnnotationType.DESIGN][0].label
        assert label == 'outer "inner" kept'

    def test_unquoted_cells(self):
        study = parse_single("Study Design Type\tplain label\n")
        assert study.slots[AnnotationType.DESIGN][0].label == "plain label"

    def test_crlf_line_endings(self):
        content = mtbls95_investigation().replace("\n", "\r\n")
        study = parse_single(content)
        assert n_slots(study, AnnotationType.DESIGN) == 7

    def test_empty_label_with_accession_kept(self):
        content = investigation_text(
            sections={
                AnnotationType.DESIGN: (
                    ["", "named"],
                    ["http://purl.obolibrary.org/obo/GO_0000001", ""],
                )
            }
        )
        study = parse_single(content, "s")
        slots = study.slots[AnnotationType.DESIGN]
        assert slots[0] == TermSlot(
            label="", accession="http://purl.obolibrary.org/obo/GO_0000001"
        )
        assert n_accessions(study, AnnotationType.DESIGN) == 1

    def test_repeated_source_ref_row_warns(self):
        content = investigation_text(
            sections={AnnotationType.ASSAY: (["profiling"], ["http://x.org/1"], ["OBI"])}
        )
        content += TYPE_FIELDS[AnnotationType.ASSAY] + SOURCE_REF_SUFFIX + '\t"CHMO"\n'
        study = parse_single(content, "s")
        assert study.slots[AnnotationType.ASSAY] == [TermSlot("profiling", "http://x.org/1")]
        assert study.warnings == [
            f"duplicate field row {TYPE_FIELDS[AnnotationType.ASSAY] + SOURCE_REF_SUFFIX!r}"
            " ignored (kept first)"
        ]

    def test_source_ref_rows_alone_are_a_study_without_slots(self):
        content = "".join(
            f'{base}{SOURCE_REF_SUFFIX}\t"OBI"\n' for base in TYPE_FIELDS.values()
        )
        study = parse_single(content, "MTBLS9")
        assert study.study_id == "MTBLS9"
        assert all(slots == [] for slots in study.slots.values())

    def test_multi_study_file(self):
        block1 = investigation_text(
            study_id="MTBLS1",
            sections={AnnotationType.DESIGN: (["a"], [])},
            include_study_header=True,
        )
        block2 = investigation_text(
            study_id="MTBLS2",
            sections={AnnotationType.FACTOR: (["b"], [])},
            include_study_header=True,
        )
        studies = parse_investigation("ONTOLOGY SOURCE REFERENCE\n" + block1 + block2, "f")
        assert [s.study_id for s in studies] == ["MTBLS1", "MTBLS2"]
        assert n_slots(studies[0], AnnotationType.DESIGN) == 1
        assert n_slots(studies[1], AnnotationType.FACTOR) == 1

    def test_person_slots_parsed(self):
        content = investigation_text(
            sections={AnnotationType.PERSON: (["investigator", "curator"], [])}
        )
        study = parse_single(content, "s")
        assert n_slots(study, AnnotationType.PERSON) == 2


class TestLoadInvestigation:
    def test_load_utf8_file(self, tmp_path):
        study_dir = tmp_path / "MTBLS95"
        study_dir.mkdir()
        path = study_dir / "i_Investigation.txt"
        path.write_text(mtbls95_investigation(), encoding="utf-8")
        (study,) = load_investigation(path)
        assert study.study_id == "MTBLS95"
        assert study.source_path == str(path)
        assert study.warnings == []

    def test_invalid_bytes_replaced_with_warning(self, tmp_path):
        path = tmp_path / "i_bad.txt"
        path.write_bytes(b'Study Design Type\t"caf\xe9 label"\n')
        (study,) = load_investigation(path)
        assert "caf" in study.slots[AnnotationType.DESIGN][0].label
        assert any("UTF-8" in w for w in study.warnings)

    def test_fallback_id_from_directory(self, tmp_path):
        study_dir = tmp_path / "MTBLS77"
        study_dir.mkdir()
        path = study_dir / "i_Investigation.txt"
        path.write_text("Study Design Type\t\"x\"\n", encoding="utf-8")
        (study,) = load_investigation(path)
        assert study.study_id == "MTBLS77"

    @pytest.mark.parametrize("name, expected", [
        pytest.param(b"MTBLS\xff7", "MTBLS\ufffd7", id="non-utf-8"),
        pytest.param(b"MTBLS\t7", "MTBLS\ufffd7", id="tab"),
        pytest.param(b"MTBLS\r\n7", "MTBLS\ufffd\ufffd7", id="crlf"),
        pytest.param("MTBLS\u20287".encode(), "MTBLS\ufffd7", id="line-separator"),
    ])
    def test_unsafe_characters_of_a_fallback_id_are_replaced(self, tmp_path, name, expected):
        study_dir = os.path.join(os.fsencode(tmp_path), name)
        os.mkdir(study_dir)
        with open(os.path.join(study_dir, b"i_Investigation.txt"), "w", encoding="utf-8") as f:
            f.write('Study Design Type\t"x"\n')
        (study,) = load_investigation(os.fsdecode(os.path.join(study_dir, b"i_Investigation.txt")))
        assert study.study_id == expected
        assert len(study.warnings) == 1 and "path name" in study.warnings[0]

    def test_study_identifier_under_an_unsafe_path_name_is_kept(self, tmp_path):
        study_dir = tmp_path / "MTBLS\t95"
        study_dir.mkdir()
        (study_dir / "i_Investigation.txt").write_text(mtbls95_investigation(), encoding="utf-8")
        (study,) = load_investigation(study_dir / "i_Investigation.txt")
        assert study.study_id == "MTBLS95"

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "i_x.txt"
        path.write_bytes("﻿Study Design Type\t\"x\"\n".encode("utf-8"))
        (study,) = load_investigation(path)
        assert study.slots[AnnotationType.DESIGN][0].label == "x"


class TestProperties:
    @given(labels_strategy, st.data())
    def test_round_trip_label_count(self, labels, data):
        n_acc = data.draw(st.integers(min_value=0, max_value=len(labels)))
        accessions = [f"http://example.org/a{i}" for i in range(n_acc)]
        content = investigation_text(
            study_id="S", sections={AnnotationType.DESIGN: (labels, accessions)}
        )
        study = parse_single(content, "S")
        total_terms = sum(n_slots(study, t) for t in AnnotationType)
        assert total_terms == len(labels)
        assert n_accessions(study, AnnotationType.DESIGN) == n_acc

    @given(labels_strategy, st.data())
    def test_permutation_moves_slots_together(self, labels, data):
        accessions = [f"http://example.org/a{i}" for i in range(len(labels))]
        i = data.draw(st.integers(min_value=0, max_value=len(labels) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(labels) - 1))
        base = parse_single(
            investigation_text(sections={AnnotationType.DESIGN: (labels, accessions)}), "S"
        )
        labels2, accessions2 = list(labels), list(accessions)
        labels2[i], labels2[j] = labels2[j], labels2[i]
        accessions2[i], accessions2[j] = accessions2[j], accessions2[i]
        permuted = parse_single(
            investigation_text(sections={AnnotationType.DESIGN: (labels2, accessions2)}), "S"
        )
        expected = list(base.slots[AnnotationType.DESIGN])
        expected[i], expected[j] = expected[j], expected[i]
        assert permuted.slots[AnnotationType.DESIGN] == expected

    @given(labels_strategy, st.data())
    def test_annotations_never_exceed_terms(self, labels, data):
        n_acc = data.draw(st.integers(min_value=0, max_value=len(labels)))
        accessions = [f"http://example.org/a{i}" for i in range(n_acc)]
        study = parse_single(
            investigation_text(sections={AnnotationType.FACTOR: (labels, accessions)}), "S"
        )
        for annotation_type in AnnotationType:
            assert n_accessions(study, annotation_type) <= n_slots(study, annotation_type)


#: Field names the parser recognizes, plus block headers and near misses.
_FIELD_NAMES = [IDENTIFIER_FIELD, "STUDY", "INVESTIGATION", "Study Identifier "] + [
    base + suffix
    for base in TYPE_FIELDS.values()
    for suffix in ("", ACCESSION_SUFFIX, SOURCE_REF_SUFFIX)
]

#: Lines that are either arbitrary text or a field name with arbitrary,
#: sometimes quoted, cells.
_investigation_lines = st.one_of(
    st.text(),
    st.builds(
        lambda name, cells: "\t".join([name, *cells]),
        st.sampled_from(_FIELD_NAMES) | st.text(),
        st.lists(st.text() | st.text().map(lambda c: f'"{c}"'), max_size=4),
    ),
)


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_investigation_lines, max_size=12).map("\n".join), st.text())
    def test_arbitrary_text_raises_only_malformed_file_error(self, content, source_name):
        try:
            studies = parse_investigation(content, source_name)
        except MalformedFileError:
            return
        for study in studies:
            assert set(study.slots) == set(AnnotationType)


#: Every line boundary ``str.splitlines`` recognizes.
_LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

#: Recognized names, near misses and unknown section rows.
_ROW_NAMES = _FIELD_NAMES + [
    "Study Title", "Study Publication DOI", "ONTOLOGY SOURCE REFERENCE", ""
]

#: How a row name may appear: bare, quoted, padded with whitespace, or both.
_NAME_FORMS = ["{}", '"{}"', " {} ", "\t{}", '"{} "', ' "{}"']

#: Cells, empty-looking ones (blank, padded, a quoted blank) included.
_cell = st.sampled_from(
    ["", " ", '""', '" "', "x", '"x"', " y ", '"a "b" c"', '"',
     "http://purl.obolibrary.org/obo/GO_0000001"]
) | st.text(max_size=6)


def _row(names, cells):
    return st.builds(
        lambda name, form, cells: "\t".join([form.format(name), *cells]),
        names,
        st.sampled_from(_NAME_FORMS),
        st.lists(cells, max_size=4),
    )


#: A STUDY header (its trailing cells empty-looking or not), a field or
#: section row, or any text.
_investigation_row = st.one_of(
    _row(st.just("STUDY"), st.sampled_from(["", " ", '""', '" "', "x"])),
    _row(st.sampled_from(_ROW_NAMES) | st.text(max_size=8), _cell),
    st.text(max_size=12),
)


def parse_outcome(parse, content, source_name):
    try:
        return parse(content, source_name)
    except MalformedFileError as exc:
        return MalformedFileError, str(exc)


class TestOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.tuples(_investigation_row, st.sampled_from(_LINE_BREAKS)), max_size=14).map(
            lambda rows: "".join(row + line_break for row, line_break in rows)
        ),
        st.sampled_from(["", "MTBLS1", "i_x"]),
    )
    def test_equals_the_reference_parser(self, content, source_name):
        assert parse_outcome(parse_investigation, content, source_name) == parse_outcome(
            oracle_parse_investigation, content, source_name
        )

    @pytest.mark.parametrize("line_break", _LINE_BREAKS)
    def test_every_line_break_ends_a_row(self, line_break):
        content = line_break.join(
            ["STUDY", 'Study Identifier\t"S1"', 'Study Design Type\t"a"\t" b "', ""]
        )
        (study,) = parse_investigation(content, "f")
        assert study.study_id == "S1"
        assert [s.label for s in study.slots[AnnotationType.DESIGN]] == ["a", "b"]
        assert parse_investigation(content, "f") == oracle_parse_investigation(content, "f")

    def test_rows_before_the_first_study_header_belong_to_no_study(self):
        content = (
            'Study Design Type\t"before"\n'
            'STUDY\t""\t \n'
            'Study Identifier\t"S1"\n'
            'STUDY\t"not a header"\n'
            'Study Factor Type\t"f"\n'
            "STUDY\n"
            'Study Factor Type\t"g"\n'
        )
        first, second = parse_investigation(content, "f")
        assert first.study_id == "S1" and first.slots[AnnotationType.DESIGN] == []
        assert [s.label for s in first.slots[AnnotationType.FACTOR]] == ["f"]
        assert second.study_id == "f_study2"
        assert [s.label for s in second.slots[AnnotationType.FACTOR]] == ["g"]

    def test_field_rows_only_before_the_first_study_header_are_malformed(self):
        with pytest.raises(MalformedFileError):
            parse_investigation('Study Design Type\t"x"\nSTUDY\nStudy Title\t"t"\n', "f")
