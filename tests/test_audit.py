"""Irregularity detection: per-entry findings and corpus near-duplicates."""

import math

import pytest
from audit_oracle import oracle_audit_entry, oracle_slot_multiset
from hypothesis import given, settings
from hypothesis import strategies as st

from annorate.accession import Resolution
from annorate.audit import (
    Irregularity,
    IrregularityKind,
    audit_corpus,
    audit_entry,
)
from annorate.isatab import AnnotationType, StudyMetadata, TermSlot


def make_metadata(study_id="S", **slots_by_name):
    slots = {t: [] for t in AnnotationType}
    for name, slot_list in slots_by_name.items():
        slots[AnnotationType[name.upper()]] = slot_list
    return StudyMetadata(study_id=study_id, slots=slots)


def kinds(findings):
    return [f.kind for f in findings]


LIPID_ACC = "http://purl.obolibrary.org/obo/GO_0005811"
NMR_ACC = "http://purl.obolibrary.org/obo/CHMO_0000591"


def _near_dup_oracle(entries, near_dup_threshold):
    """The all-pairs near-duplicate scan: one multiset intersection per pair."""
    findings = []
    multisets = [(oracle_slot_multiset(e), e.study_id) for e in entries]
    for i in range(len(multisets)):
        for j in range(i + 1, len(multisets)):
            (ms_a, id_a), (ms_b, id_b) = multisets[i], multisets[j]
            size = max(sum(ms_a.values()), sum(ms_b.values()))
            shared = sum((ms_a & ms_b).values())
            differ = size - shared
            if differ <= near_dup_threshold * size:
                first, second = sorted((id_a, id_b))
                findings.append(
                    Irregularity(
                        first,
                        IrregularityKind.NEAR_DUPLICATE_ENTRY,
                        f"matches {second} ({differ} of {size} slots differ)",
                    )
                )
    return findings


#: (type, label, accession) of one slot, from a vocabulary small enough that
#: entries share slots and repeat them; the label variants normalize alike.
ORACLE_SLOT = st.tuples(
    st.sampled_from(list(AnnotationType)),
    st.sampled_from(["alpha", "Alpha", "beta  gamma", "beta gamma", "delta", ""]),
    st.sampled_from(["", LIPID_ACC, NMR_ACC]),
)


@st.composite
def oracle_corpora(draw):
    """0-40 entries of 0-30 slots, some repeated up to 8 times in a row;
    about half of the entries are shuffled near-copies of an earlier one."""
    slot_lists = []
    for _ in range(draw(st.integers(0, 40))):
        if slot_lists and draw(st.booleans()):
            slots = list(draw(st.sampled_from(slot_lists)))
            for _ in range(draw(st.integers(0, min(3, len(slots))))):
                slots.pop(draw(st.integers(0, len(slots) - 1)))
            slots += draw(st.lists(ORACLE_SLOT, max_size=min(3, 30 - len(slots))))
            slots = draw(st.permutations(slots))
        else:
            runs = draw(st.lists(st.tuples(ORACLE_SLOT, st.integers(1, 8)), max_size=30))
            slots = [slot for slot, count in runs for _ in range(count)][:30]
        slot_lists.append(slots)
    entries = []
    for slots in slot_lists:
        metadata = make_metadata(f"S{draw(st.integers(0, 99))}")
        for annotation_type, label, accession in slots:
            metadata.slots[annotation_type].append(TermSlot(label, accession))
        entries.append(metadata)
    return entries


#: Accessions of every kind: OBO and BioPortal PURLs (scorable), non-PURL
#: links and malformed strings.
SCORABLE_ACCESSIONS = [
    LIPID_ACC,
    NMR_ACC,
    "https://purl.obolibrary.org/obo/NCBITaxon_9606",
    "http://purl.bioontology.org/ontology/MSH/C081695",
]
ENTRY_ACCESSIONS = SCORABLE_ACCESSIONS + [
    "",
    "http://example.org/term",
    "http://purl.obolibrary.org/obo/GO_0005811/extra",
    "not a url",
    "GO:0005811",
]
#: Label variants that normalize alike, plus empty and whitespace-only labels.
ENTRY_LABELS = ["alpha", "Alpha", " ALPHA ", "beta  gamma", "Beta\tGamma", "delta", "", " "]


@st.composite
def audited_studies(draw):
    """A study of 0-30 slots from a small vocabulary, so that pairs repeat and
    labels recur under several types; and a resolver over its scorable
    accessions, or None."""
    metadata = make_metadata(draw(st.sampled_from(["S", "MTBLS1"])))
    for _ in range(draw(st.integers(0, 30))):
        annotation_type = draw(st.sampled_from(list(AnnotationType)))
        label = draw(st.sampled_from(ENTRY_LABELS))
        accession = draw(st.sampled_from(ENTRY_ACCESSIONS))
        metadata.slots[annotation_type].append(TermSlot(label, accession))
    if draw(st.booleans()):
        return metadata, None
    outcomes = draw(
        st.fixed_dictionaries(
            {acc: st.sampled_from(list(Resolution)) for acc in SCORABLE_ACCESSIONS}
        )
    )
    return metadata, lambda ref: outcomes[ref.raw]


class TestAuditEntry:
    @settings(max_examples=300, deadline=None)
    @given(audited_studies())
    def test_findings_equal_the_oracle(self, study):
        metadata, resolution = study
        assert audit_entry(metadata, resolution) == oracle_audit_entry(metadata, resolution)

    def test_resolution_asked_once_per_distinct_accession(self):
        metadata = make_metadata(
            "R",
            design=[TermSlot("a", LIPID_ACC), TermSlot("b", LIPID_ACC)],
            assay=[TermSlot("c", LIPID_ACC), TermSlot("d", NMR_ACC)],
        )
        asked = []

        def resolution(ref):
            asked.append(ref.raw)
            return Resolution.BROKEN

        findings = audit_entry(metadata, resolution)
        assert sorted(asked) == sorted([LIPID_ACC, NMR_ACC])
        assert kinds(findings) == [IrregularityKind.BROKEN_ACCESSION] * 4

    def test_repeated_and_cross_type(self):
        # "lipid droplets" twice under factor with the same accession, and
        # once under design without one
        metadata = make_metadata(
            "MTBLS81",
            factor=[
                TermSlot("lipid droplets", LIPID_ACC),
                TermSlot("lipid droplets", LIPID_ACC),
            ],
            design=[TermSlot("lipid droplets")],
        )
        findings = audit_entry(metadata)
        assert kinds(findings) == [
            IrregularityKind.REPEATED_ANNOTATION,
            IrregularityKind.CROSS_TYPE_UNANNOTATED_DUPLICATE,
        ]
        repeated, cross = findings
        assert "lipid droplets" in repeated.evidence
        assert "2 times" in repeated.evidence
        assert "Factor" in cross.evidence and "Design" in cross.evidence

    def test_cross_type_unannotated_duplicate(self):
        metadata = make_metadata(
            "MTBLS147",
            assay=[TermSlot("NMR spectroscopy", NMR_ACC)],
            protocol=[TermSlot("NMR spectroscopy")],
        )
        findings = audit_entry(metadata)
        assert kinds(findings) == [IrregularityKind.CROSS_TYPE_UNANNOTATED_DUPLICATE]
        assert "Assay" in findings[0].evidence
        assert "Protocol" in findings[0].evidence

    def test_clean_entry(self):
        metadata = make_metadata(
            "CLEAN",
            design=[TermSlot("a", "http://purl.obolibrary.org/obo/GO_0000001")],
            assay=[TermSlot("b", "http://purl.obolibrary.org/obo/GO_0000002")],
        )
        assert audit_entry(metadata) == []

    def test_duplicated_link(self):
        metadata = make_metadata(
            "DUP",
            assay=[
                TermSlot("metabolite profiling", "http://purl.obolibrary.org/obo/OBI_0000366"),
                TermSlot("metabolite profiling", "http://purl.obolibrary.org/obo/OBI_0000366"),
            ],
        )
        findings = audit_entry(metadata)
        assert kinds(findings) == [IrregularityKind.REPEATED_ANNOTATION]

    def test_label_comparison_case_insensitive(self):
        metadata = make_metadata(
            "CASE",
            assay=[TermSlot("NMR Spectroscopy", NMR_ACC)],
            protocol=[TermSlot("nmr  spectroscopy")],
        )
        assert kinds(audit_entry(metadata)) == [
            IrregularityKind.CROSS_TYPE_UNANNOTATED_DUPLICATE
        ]

    def test_accession_comparison_exact(self):
        # same label with two different accessions: not a repeated pair
        metadata = make_metadata(
            "ACC",
            design=[
                TermSlot("thing", "http://purl.obolibrary.org/obo/GO_0000001"),
                TermSlot("thing", "http://purl.obolibrary.org/obo/GO_0000002"),
            ],
        )
        assert audit_entry(metadata) == []

    def test_annotated_under_both_types_is_fine(self):
        metadata = make_metadata(
            "BOTH",
            assay=[TermSlot("shared", NMR_ACC)],
            protocol=[TermSlot("shared", LIPID_ACC)],
        )
        assert audit_entry(metadata) == []

    def test_broken_accession(self):
        metadata = make_metadata("B", design=[TermSlot("x", LIPID_ACC)])
        findings = audit_entry(metadata, lambda ref: Resolution.BROKEN)
        assert kinds(findings) == [IrregularityKind.BROKEN_ACCESSION]
        assert LIPID_ACC in findings[0].evidence

    def test_ontology_unavailable(self):
        metadata = make_metadata("U", design=[TermSlot("x", LIPID_ACC)])
        findings = audit_entry(metadata, lambda ref: Resolution.NOT_IN_CATALOG)
        assert kinds(findings) == [IrregularityKind.ONTOLOGY_UNAVAILABLE]

    def test_non_purl_accession(self):
        metadata = make_metadata("N", factor=[TermSlot("x", "http://example.org/term")])
        findings = audit_entry(metadata)
        assert kinds(findings) == [IrregularityKind.NON_PURL_ACCESSION]

    def test_empty_label_annotation(self):
        metadata = make_metadata("E", design=[TermSlot("", LIPID_ACC)])
        findings = audit_entry(metadata)
        assert kinds(findings) == [IrregularityKind.EMPTY_LABEL_ANNOTATION]

    def test_no_accessions_distinct_labels_clean(self):
        metadata = make_metadata(
            "F",
            design=[TermSlot("one"), TermSlot("two")],
            protocol=[TermSlot("three")],
        )
        assert audit_entry(metadata) == []

    def test_findings_independent_of_slot_order(self):
        slots = [
            TermSlot("alpha", LIPID_ACC),
            TermSlot("alpha", LIPID_ACC),
            TermSlot("beta"),
        ]
        forward = audit_entry(make_metadata("O", factor=slots))
        backward = audit_entry(make_metadata("O", factor=list(reversed(slots))))
        assert set(kinds(forward)) == set(kinds(backward))
        assert len(forward) == len(backward)


class TestAuditCorpus:
    def make_quintet(self):
        shared = dict(
            design=[TermSlot("phytohormone profiling", LIPID_ACC)],
            assay=[TermSlot("mass spectrometry", NMR_ACC)],
            protocol=[TermSlot("Extraction"), TermSlot("Chromatography")],
        )
        return [make_metadata(f"MTBLS{107 + i}", **shared) for i in range(5)]

    def test_identical_quintet_yields_ten_pairs(self):
        findings = audit_corpus(self.make_quintet())
        assert len(findings) == 10
        assert set(kinds(findings)) == {IrregularityKind.NEAR_DUPLICATE_ENTRY}

    def test_pairs_reported_once(self):
        findings = audit_corpus(self.make_quintet())
        seen = {(f.study_id, f.evidence) for f in findings}
        assert len(seen) == 10

    def test_disjoint_entries_no_findings(self):
        a = make_metadata("A", design=[TermSlot("one")])
        b = make_metadata("B", design=[TermSlot("two")])
        assert audit_corpus([a, b]) == []

    def test_boundary_one_in_ten(self):
        def entry(study_id, last_label):
            slots = [TermSlot(f"slot {i}") for i in range(9)] + [TermSlot(last_label)]
            return make_metadata(study_id, protocol=slots)

        a, b = entry("A", "same"), entry("B", "different")
        assert len(audit_corpus([a, b], near_dup_threshold=0.10)) == 1
        assert audit_corpus([a, b], near_dup_threshold=0.05) == []

    def test_single_entry_corpus(self):
        assert audit_corpus([make_metadata("ONLY")]) == []

    def test_different_sizes_use_larger_count(self):
        small = make_metadata("S", protocol=[TermSlot(f"p{i}") for i in range(10)])
        big = make_metadata(
            "B", protocol=[TermSlot(f"p{i}") for i in range(12)]
        )
        # 2 of 12 slots differ: 16.7%, above the default threshold
        assert audit_corpus([small, big]) == []
        assert len(audit_corpus([small, big], near_dup_threshold=0.2)) == 1

    @pytest.mark.parametrize("count", [2, 3])
    def test_empty_entries_match_each_other(self, count):
        findings = audit_corpus([make_metadata(f"E{i}") for i in range(count)])
        assert [(f.study_id, f.evidence) for f in findings] == [
            (f"E{i}", f"matches E{j} (0 of 0 slots differ)")
            for i in range(count)
            for j in range(i + 1, count)
        ]

    def test_empty_entry_never_matches_a_non_empty_one(self):
        empty = make_metadata("E")
        single = make_metadata("A", design=[TermSlot("one")])
        for threshold in (0.0, 0.5, 0.99):
            assert audit_corpus([empty, single], near_dup_threshold=threshold) == []

    @pytest.mark.parametrize("threshold", [1.0, -0.1, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError):
            audit_corpus(self.make_quintet(), near_dup_threshold=threshold)

    @pytest.mark.parametrize("size", [10, 20, 40])
    @pytest.mark.parametrize("threshold", [0.1, 0.25, 0.5])
    def test_size_gap_on_the_length_bound(self, threshold, size):
        # The smaller entry is a subset of the larger, so the size gap alone
        # decides: the largest gap within threshold * size is flagged (it
        # equals threshold * size wherever that is a whole number), one more
        # slot is not. Both orders, so the larger entry is indexed first once.
        gap = math.floor(threshold * size)
        slots = [TermSlot(f"p{i}") for i in range(size)]
        big = make_metadata("B", protocol=slots)
        for missing, flagged in ((gap, True), (gap + 1, False)):
            small = make_metadata("A", protocol=slots[missing:])
            for entries in ([big, small], [small, big]):
                findings = audit_corpus(entries, near_dup_threshold=threshold)
                assert findings == _near_dup_oracle(entries, threshold)
                expected = [f"matches B ({missing} of {size} slots differ)"] if flagged else []
                assert [f.evidence for f in findings] == expected

    def test_descending_sizes_keep_the_input_order(self):
        # Entries are given largest first, so the join, which indexes them
        # smallest first, meets every pair in the reverse of the findings'
        # order; the ids run backwards, so each finding sits on the later entry.
        slots = [TermSlot(f"p{i}") for i in range(12)]
        entries = [
            make_metadata("D", protocol=slots),
            make_metadata("C", protocol=slots[1:]),
            make_metadata("B", protocol=slots[2:]),
            make_metadata("A", protocol=slots[2:]),
        ]
        findings = audit_corpus(entries, near_dup_threshold=0.2)
        assert findings == _near_dup_oracle(entries, 0.2)
        assert [(f.study_id, f.evidence) for f in findings] == [
            ("C", "matches D (1 of 12 slots differ)"),
            ("B", "matches D (2 of 12 slots differ)"),
            ("A", "matches D (2 of 12 slots differ)"),
            ("B", "matches C (1 of 11 slots differ)"),
            ("A", "matches C (1 of 11 slots differ)"),
            ("A", "matches B (0 of 10 slots differ)"),
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        oracle_corpora(),
        st.one_of(
            st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.5]),
            st.floats(min_value=0.0, max_value=0.99),
        ),
    )
    def test_join_equals_all_pairs_oracle(self, entries, threshold):
        assert audit_corpus(entries, threshold) == _near_dup_oracle(entries, threshold)


class TestIrregularityShape:
    def test_evidence_always_present(self):
        metadata = make_metadata(
            "X",
            factor=[TermSlot("dup", LIPID_ACC), TermSlot("dup", LIPID_ACC)],
            design=[TermSlot("", "http://example.org/x")],
        )
        for finding in audit_entry(metadata):
            assert isinstance(finding, Irregularity)
            assert finding.evidence
            assert finding.study_id == "X"
