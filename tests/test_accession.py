"""Accession URL classification."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from annorate.accession import AccessionKind, classify_accession


class TestClassify:
    def test_obo_purl(self):
        ref = classify_accession("http://purl.obolibrary.org/obo/GO_0030257")
        assert ref.kind is AccessionKind.OBO_PURL
        assert ref.ontology_prefix == "GO"
        assert ref.local_id == "0030257"
        assert ref.curie == "GO:0030257"
        assert ref.is_scorable

    def test_obo_purl_mixed_case_prefix(self):
        ref = classify_accession("http://purl.obolibrary.org/obo/NCBITaxon_223283")
        assert ref.kind is AccessionKind.OBO_PURL
        assert ref.ontology_prefix == "NCBITaxon"
        assert ref.local_id == "223283"

    def test_https_equivalent(self):
        ref = classify_accession("https://purl.obolibrary.org/obo/CHMO_0000497")
        assert ref.kind is AccessionKind.OBO_PURL
        assert ref.curie == "CHMO:0000497"

    def test_bioportal_purl(self):
        ref = classify_accession("http://purl.bioontology.org/ontology/MSH/C081695")
        assert ref.kind is AccessionKind.BIOPORTAL_PURL
        assert ref.ontology_prefix == "MSH"
        assert ref.local_id == "C081695"
        assert ref.curie == "MSH:C081695"

    def test_empty_string_is_malformed(self):
        ref = classify_accession("")
        assert ref.kind is AccessionKind.MALFORMED
        assert not ref.is_scorable
        assert ref.curie is None

    def test_other_url_is_non_purl(self):
        ref = classify_accession("http://example.org/myterm")
        assert ref.kind is AccessionKind.NON_PURL
        assert not ref.is_scorable

    @pytest.mark.parametrize(
        "raw",
        [
            "not a url",
            "example.org/myterm",
            "http://",
            "GO_0030257",
            # urlparse raises ValueError on an unclosed IPv6 host
            "http://[::1",
        ],
    )
    def test_non_urls_are_malformed(self, raw):
        assert classify_accession(raw).kind is AccessionKind.MALFORMED

    @pytest.mark.parametrize(
        "raw",
        [
            # underscore in the would-be prefix: not OBO Foundry form
            "http://purl.obolibrary.org/obo/FOO_BAR_123",
            # no local id
            "http://purl.obolibrary.org/obo/GO_",
            # extra path segment
            "http://purl.bioontology.org/ontology/MSH/C081695/extra",
        ],
    )
    def test_near_miss_purls_are_non_purl(self, raw):
        assert classify_accession(raw).kind is AccessionKind.NON_PURL


class TestProperties:
    @given(st.text(max_size=80))
    def test_total_and_deterministic(self, raw):
        first = classify_accession(raw)
        second = classify_accession(raw)
        assert first == second
        assert first.kind in AccessionKind

    @given(
        st.from_regex(r"[A-Za-z0-9]{1,10}", fullmatch=True),
        st.from_regex(r"[A-Za-z0-9.\-]{1,10}", fullmatch=True),
    )
    def test_obo_recomposition_round_trip(self, prefix, local):
        raw = f"http://purl.obolibrary.org/obo/{prefix}_{local}"
        ref = classify_accession(raw)
        assert ref.kind is AccessionKind.OBO_PURL
        recomposed = f"http://purl.obolibrary.org/obo/{ref.ontology_prefix}_{ref.local_id}"
        assert recomposed == raw
