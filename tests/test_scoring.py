"""Score aggregation: type tallies, entry scores, log transform."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from annorate.accession import classify_accession
from annorate.isatab import SCORED_TYPES, AnnotationType, StudyMetadata, TermSlot
from annorate.scoring import DomainError, log_transform, score_entry, type_tally

from conftest import read_reference_scores


def obo_url(prefix, local):
    return f"http://purl.obolibrary.org/obo/{prefix}_{local}"


def make_metadata(study_id="S", **slots_by_name):
    slots = {t: [] for t in AnnotationType}
    for name, slot_list in slots_by_name.items():
        slots[AnnotationType[name.upper()]] = slot_list
    return StudyMetadata(study_id=study_id, slots=slots)


def fixed_scorer(mapping):
    return lambda ref: mapping[ref.raw]


class TestLogTransform:
    def test_known_value(self):
        assert log_transform(75) == pytest.approx(80.73549221, abs=1e-6)

    def test_another_known_value(self):
        assert log_transform(21.875) == pytest.approx(28.54022189, abs=1e-6)

    def test_fixed_points(self):
        assert log_transform(0) == 0.0
        assert log_transform(100) == pytest.approx(100.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.001, 100.001, -5, 1e9])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            log_transform(bad)

    @given(st.floats(min_value=0, max_value=100))
    def test_stays_in_range_and_dominates(self, score):
        out = log_transform(score)
        assert 0.0 <= out <= 100.0 + 1e-9
        assert out >= score - 1e-9

    @given(
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_strictly_increasing(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert log_transform(lo) <= log_transform(hi)
        if not math.isclose(lo, hi, rel_tol=1e-12, abs_tol=1e-12):
            assert log_transform(lo) < log_transform(hi)

    def test_matches_reference_table(self):
        for _, _, st_, lt, sa, la in read_reference_scores():
            if st_ > 0:
                assert log_transform(st_) == pytest.approx(lt, abs=1e-6)
            if sa > 0:
                assert log_transform(sa) == pytest.approx(la, abs=1e-6)


class TestTypeTally:
    def test_two_leaf_annotations(self):
        url_a, url_b = obo_url("T", "1"), obo_url("T", "2")
        slots = [TermSlot("a", url_a), TermSlot("b", url_b)]
        tally = type_tally(slots, fixed_scorer({url_a: 1.0, url_b: 1.0}))
        assert tally.annotation_count == 2
        assert tally.term_count == 2
        assert tally.by_annotations == 1.0
        assert tally.by_terms == 1.0

    def test_unannotated_strings_dilute_by_terms(self):
        url_a, url_b = obo_url("T", "1"), obo_url("T", "2")
        slots = [
            TermSlot("a", url_a),
            TermSlot("b", url_b),
            TermSlot("free text one"),
            TermSlot("free text two"),
        ]
        tally = type_tally(slots, fixed_scorer({url_a: 0.5, url_b: 1.0}))
        assert tally.score_sum == pytest.approx(1.5)
        assert tally.by_annotations == pytest.approx(0.75)
        assert tally.by_terms == pytest.approx(0.375)

    def test_reference_assay_row(self):
        url_a, url_b = obo_url("T", "1"), obo_url("T", "2")
        slots = [TermSlot("a", url_a), TermSlot("b", url_b)]
        tally = type_tally(slots, fixed_scorer({url_a: 0.75, url_b: 1.0}))
        assert tally.score_sum == pytest.approx(1.75)
        assert tally.by_annotations == pytest.approx(0.875)
        assert tally.by_terms == pytest.approx(0.875)

    def test_non_purl_accession_is_unannotated_term(self):
        slots = [TermSlot("named", "http://example.org/not-a-purl")]
        tally = type_tally(slots, fixed_scorer({}))
        assert tally.annotation_count == 0
        assert tally.term_count == 1

    def test_labelless_annotation_counts_as_term(self):
        url = obo_url("T", "1")
        tally = type_tally([TermSlot("", url)], fixed_scorer({url: 1.0}))
        assert tally.annotation_count == 1
        assert tally.term_count == 1

    def test_empty_slots(self):
        tally = type_tally([], fixed_scorer({}))
        assert tally == type_tally([], fixed_scorer({}))
        assert tally.annotation_count == tally.term_count == 0
        assert tally.by_annotations == tally.by_terms == 0.0

    def test_scorer_out_of_range_rejected(self):
        url = obo_url("T", "1")
        with pytest.raises(ValueError):
            type_tally([TermSlot("x", url)], fixed_scorer({url: 1.5}))


class TestScoreEntry:
    def test_reference_entry(self):
        design_urls = [obo_url("D", str(i)) for i in range(6)]
        design_scores = dict(zip(design_urls, [1.0, 1.0, 0.78, 1.0, 0.75, 1.0]))
        assay_urls = [obo_url("A", "1"), obo_url("A", "2")]
        assay_scores = dict(zip(assay_urls, [0.75, 1.0]))
        metadata = make_metadata(
            design=[TermSlot(f"d{i}", u) for i, u in enumerate(design_urls)]
            + [TermSlot("d6")],
            factor=[TermSlot("f1"), TermSlot("f2")],
            assay=[TermSlot(f"a{i}", u) for i, u in enumerate(assay_urls)],
            protocol=[TermSlot(f"p{i}") for i in range(6)],
        )
        entry = score_entry(metadata, fixed_scorer({**design_scores, **assay_scores}))
        design = entry.per_type[AnnotationType.DESIGN]
        assert design.score_sum == pytest.approx(5.53)
        assert design.by_annotations == pytest.approx(0.9216667, abs=1e-6)
        assert design.by_terms == pytest.approx(0.79, abs=1e-6)
        assay = entry.per_type[AnnotationType.ASSAY]
        assert assay.by_annotations == assay.by_terms == pytest.approx(0.875)
        assert entry.global_terms == pytest.approx(41.625, abs=1e-6)
        assert entry.global_annotations == pytest.approx(44.9166667, abs=1e-6)
        assert entry.log_terms == pytest.approx(50.2075956, abs=1e-6)
        assert entry.log_annotations == pytest.approx(53.5223527, abs=1e-6)
        assert entry.total_annotations == 8

    def test_zero_annotations_everywhere(self):
        metadata = make_metadata(
            design=[TermSlot("x")], factor=[], assay=[TermSlot("y")], protocol=[]
        )
        entry = score_entry(metadata, fixed_scorer({}))
        assert entry.global_terms == entry.global_annotations == 0.0
        assert entry.log_terms == entry.log_annotations == 0.0
        assert entry.total_annotations == 0

    def test_all_leaves_saturate(self):
        urls = {t: obo_url(t.value, "1") for t in SCORED_TYPES}
        metadata = make_metadata(
            **{t.value.lower(): [TermSlot("x", urls[t])] for t in SCORED_TYPES}
        )
        entry = score_entry(metadata, lambda ref: 1.0)
        assert entry.global_terms == entry.global_annotations == 100.0
        assert entry.log_terms == entry.log_annotations == pytest.approx(100.0)

    def test_person_slots_ignored(self):
        url = obo_url("P", "1")
        metadata = make_metadata(person=[TermSlot("someone", url)])
        entry = score_entry(metadata, fixed_scorer({url: 1.0}))
        assert entry.total_annotations == 0
        assert AnnotationType.PERSON not in entry.per_type
        assert entry.global_terms == 0.0

    def test_fixed_denominator_of_four(self):
        # one type annotated at 1.0, the rest empty: the mean divides by 4
        url = obo_url("T", "1")
        metadata = make_metadata(assay=[TermSlot("x", url)])
        entry = score_entry(metadata, fixed_scorer({url: 1.0}))
        assert entry.global_terms == pytest.approx(25.0)

    def test_global_scores_add_types_left_to_right(self):
        # a compensated sum (builtin sum from Python 3.12 on) gives 15.0 here
        scores = dict(zip(SCORED_TYPES, [0.1, 0.2, 0.3, 0.0]))
        urls = {t: obo_url(t.value, "1") for t in SCORED_TYPES}
        metadata = make_metadata(
            **{t.value.lower(): [TermSlot("x", urls[t])] for t in SCORED_TYPES}
        )
        entry = score_entry(metadata, fixed_scorer({urls[t]: scores[t] for t in SCORED_TYPES}))
        expected = 100.0 * (((0.1 + 0.2) + 0.3) + 0.0) / 4
        assert expected != 15.0
        assert entry.global_terms == entry.global_annotations == expected

    def test_unresolvable_scores_zero_but_counts(self):
        url = obo_url("GONE", "1")
        metadata = make_metadata(design=[TermSlot("x", url)])
        entry = score_entry(metadata, lambda ref: 0.0)
        assert entry.total_annotations == 1
        assert entry.global_terms == 0.0


@st.composite
def random_entries(draw, force_positive_scores=True):
    slots_by_type = {}
    for annotation_type in SCORED_TYPES:
        n_unann = draw(st.integers(min_value=0, max_value=3))
        min_ann = 1 if n_unann else 0
        n_ann = draw(st.integers(min_value=min_ann, max_value=4))
        slots = []
        for i in range(n_ann):
            url = obo_url("T", f"{annotation_type.value}{i}")
            slots.append(TermSlot(f"term {i}", url))
        slots.extend(TermSlot(f"free {i}") for i in range(n_unann))
        slots_by_type[annotation_type.value.lower()] = slots
    min_score = 0.01 if force_positive_scores else 0.0
    scores = draw(
        st.dictionaries(
            st.sampled_from(
                [s.accession for slots in slots_by_type.values() for s in slots if s.accession]
                or ["unused"]
            ),
            st.floats(min_value=min_score, max_value=1.0),
        )
    )
    return make_metadata(**slots_by_type), scores


class TestWeightingInequality:
    @given(random_entries())
    def test_by_terms_never_exceeds_by_annotations(self, case):
        metadata, scores = case
        entry = score_entry(metadata, lambda ref: scores.get(ref.raw, 0.5))
        for annotation_type, tally in entry.per_type.items():
            assert tally.by_terms <= tally.by_annotations + 1e-12
        assert entry.global_terms <= entry.global_annotations + 1e-9

    @given(random_entries())
    def test_adding_unannotated_term_dilutes_terms_only(self, case):
        metadata, scores = case
        scorer = lambda ref: scores.get(ref.raw, 0.5)
        before = score_entry(metadata, scorer)
        metadata.slots[AnnotationType.DESIGN].append(TermSlot("extra free text"))
        after = score_entry(metadata, scorer)
        d_before = before.per_type[AnnotationType.DESIGN]
        d_after = after.per_type[AnnotationType.DESIGN]
        assert d_after.by_annotations == d_before.by_annotations
        if d_before.score_sum > 0:
            assert d_after.by_terms < d_before.by_terms
        assert after.global_annotations == pytest.approx(before.global_annotations)
