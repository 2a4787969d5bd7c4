"""Catalog-backed resolution and the offline scoring pipeline."""

import os
from collections import Counter
from pathlib import Path

import pytest

from annorate import cli, ingest, pipeline
from annorate.accession import Resolution, classify_accession
from annorate.isatab import AnnotationType, TermSlot
from annorate.ontology import OntologyCatalog
from annorate.pipeline import (
    AccessionResolver,
    annotation_details,
    load_corpus,
    process_study,
)

from conftest import (
    investigation_text,
    mtbls95_investigation,
    mtbls95_obo_files,
    write_catalog,
)


@pytest.fixture
def resolver(tmp_path):
    catalog_path = write_catalog(tmp_path / "ont", mtbls95_obo_files())
    return AccessionResolver(OntologyCatalog.from_file(catalog_path))


GO_LEAF = classify_accession("http://purl.obolibrary.org/obo/GO_0030257")
GO_MID = classify_accession("http://purl.obolibrary.org/obo/GO_0045208")
UNKNOWN_TERM = classify_accession("http://purl.obolibrary.org/obo/GO_9999999")
UNKNOWN_PREFIX = classify_accession("http://purl.obolibrary.org/obo/ZZZ_1")


class TestAccessionResolver:
    def test_scores_from_catalog(self, resolver):
        assert resolver.score(GO_LEAF) == 1.0
        assert resolver.score(GO_MID) == 0.75

    def test_unknown_term_scores_zero(self, resolver):
        assert resolver.score(UNKNOWN_TERM) == 0.0
        assert resolver.score(UNKNOWN_PREFIX) == 0.0

    def test_resolution_without_prober(self, resolver):
        assert resolver.resolution(GO_LEAF) is Resolution.RESOLVED
        assert resolver.resolution(UNKNOWN_TERM) is Resolution.NOT_IN_CATALOG
        assert resolver.resolution(UNKNOWN_PREFIX) is Resolution.NOT_IN_CATALOG

    def test_prober_refines_unresolved_only(self, tmp_path):
        catalog = OntologyCatalog.from_file(
            write_catalog(tmp_path / "ont", mtbls95_obo_files())
        )
        probed = []

        def prober(ref):
            probed.append(ref.raw)
            return Resolution.BROKEN

        resolver = AccessionResolver(catalog, prober=prober)
        assert resolver.resolution(GO_LEAF) is Resolution.RESOLVED
        assert probed == []
        assert resolver.resolution(UNKNOWN_TERM) is Resolution.BROKEN
        assert probed == [UNKNOWN_TERM.raw]

    def test_resolution_cached_per_url(self, tmp_path):
        catalog = OntologyCatalog()
        calls = []

        def prober(ref):
            calls.append(ref.raw)
            return Resolution.BROKEN

        resolver = AccessionResolver(catalog, prober=prober)
        resolver.resolution(UNKNOWN_TERM)
        resolver.resolution(UNKNOWN_TERM)
        assert len(calls) == 1

    def test_probing_never_changes_scores(self, tmp_path):
        catalog = OntologyCatalog.from_file(
            write_catalog(tmp_path / "ont", mtbls95_obo_files())
        )
        plain = AccessionResolver(catalog)
        probing = AccessionResolver(catalog, prober=lambda ref: Resolution.BROKEN)
        for ref in (GO_LEAF, GO_MID, UNKNOWN_TERM, UNKNOWN_PREFIX):
            assert plain.score(ref) == probing.score(ref)


def write_study(path, study_id):
    """An investigation file at ``path`` whose one study is ``study_id``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        investigation_text(study_id=study_id, sections={AnnotationType.DESIGN: (["x"], [])}),
        encoding="utf-8",
    )


def listed(corpus):
    """The investigation files ``load_corpus`` reads under ``corpus``, checked against ``rglob``."""
    paths = pipeline._investigation_paths(corpus)
    assert paths == sorted(corpus.rglob("i_*.txt"))
    return paths


class TestLoadCorpus:
    def test_loads_nested_files(self, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "MTBLS95").mkdir(parents=True)
        (corpus / "MTBLS95" / "i_Investigation.txt").write_text(
            mtbls95_investigation(), encoding="utf-8"
        )
        studies, failures = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["MTBLS95"]
        assert failures == []

    def test_skips_unparseable_files(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "i_good.txt").write_text(
            investigation_text(study_id="OK", sections={AnnotationType.DESIGN: (["x"], [])}),
            encoding="utf-8",
        )
        (corpus / "i_bad.txt").write_text("nothing\trecognizable\n", encoding="utf-8")
        studies, failures = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["OK"]
        assert len(failures) == 1
        assert "i_bad.txt" in failures[0]

    def test_colliding_study_ids_warn_with_both_sources(self, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        content = investigation_text(
            study_id="MTBLS1", sections={AnnotationType.DESIGN: (["x"], [])}
        )
        for name in ("A", "B"):
            (corpus / name).mkdir(parents=True)
            (corpus / name / "i_Investigation.txt").write_text(content, encoding="utf-8")
        with caplog.at_level("WARNING", logger="annorate.pipeline"):
            studies, failures = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["MTBLS1", "MTBLS1"]
        assert failures == []
        (record,) = caplog.records
        message = record.getMessage()
        assert "MTBLS1" in message
        assert str(corpus / "A" / "i_Investigation.txt") in message
        assert str(corpus / "B" / "i_Investigation.txt") in message

    def test_distinct_study_ids_do_not_warn(self, tmp_path, caplog):
        corpus = tmp_path / "corpus"
        for sid in ("MTBLS1", "MTBLS2"):
            (corpus / sid).mkdir(parents=True)
            (corpus / sid / "i_Investigation.txt").write_text(
                investigation_text(study_id=sid, sections={AnnotationType.DESIGN: (["x"], [])}),
                encoding="utf-8",
            )
        with caplog.at_level("WARNING", logger="annorate.pipeline"):
            load_corpus(corpus)
        assert caplog.records == []

    def test_equal_slots_are_one_object(self, tmp_path):
        """An equal (label, accession) pair anywhere in the corpus is one slot, with one label."""
        corpus = tmp_path / "corpus"
        sections_by_study = {
            "S1": {AnnotationType.DESIGN: (["leaf"], [GO_LEAF.raw])},
            # the same pair under two other types, once with padding that cleaning strips
            "S2": {AnnotationType.FACTOR: (["dose", "leaf"], ["", GO_LEAF.raw]),
                   AnnotationType.ASSAY: ([" leaf "], [GO_LEAF.raw])},
        }
        for study_id, sections in sections_by_study.items():
            (corpus / study_id).mkdir(parents=True)
            (corpus / study_id / "i_Investigation.txt").write_text(
                investigation_text(study_id=study_id, sections=sections), encoding="utf-8"
            )
        (first, second), _ = load_corpus(corpus)
        (design,) = first.slots[AnnotationType.DESIGN]
        factor = second.slots[AnnotationType.FACTOR][1]
        (assay,) = second.slots[AnnotationType.ASSAY]
        assert design == TermSlot("leaf", GO_LEAF.raw)
        assert design is factor is assay
        assert design.label is factor.label is assay.label

    def test_ignores_other_files(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "s_samples.txt").write_text("Sample Name\tx\n", encoding="utf-8")
        studies, failures = load_corpus(corpus)
        assert studies == [] and failures == []

    def test_symlinked_directory_is_not_entered(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_study(corpus / "real" / "i_Investigation.txt", "REAL")
        write_study(tmp_path / "outside" / "i_Investigation.txt", "OUTSIDE")
        (corpus / "inside_link").symlink_to(corpus / "real", target_is_directory=True)
        (corpus / "outside_link").symlink_to(tmp_path / "outside", target_is_directory=True)
        assert listed(corpus) == [corpus / "real" / "i_Investigation.txt"]
        studies, failures = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["REAL"] and failures == []

    def test_every_kind_of_entry_with_the_name_is_listed(self, tmp_path, caplog):
        """A directory or a dangling symlink named ``i_*.txt`` is listed, then skipped."""
        corpus = tmp_path / "corpus"
        write_study(corpus / "i_x.txt" / "i_Investigation.txt", "NESTED")
        write_study(tmp_path / "elsewhere.txt", "LINKED")
        (corpus / "i_link.txt").symlink_to(tmp_path / "elsewhere.txt")
        (corpus / "i_dangling.txt").symlink_to(tmp_path / "missing.txt")
        write_study(corpus / "I_upper.txt", "UPPER")  # the match is case-sensitive
        write_study(corpus / "i_lower.TXT", "LOWER")
        assert listed(corpus) == [
            corpus / "i_dangling.txt",
            corpus / "i_link.txt",
            corpus / "i_x.txt",
            corpus / "i_x.txt" / "i_Investigation.txt",
        ]
        with caplog.at_level("WARNING", logger="annorate.pipeline"):
            studies, failures = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["LINKED", "NESTED"]
        skipped = [corpus / "i_dangling.txt", corpus / "i_x.txt"]
        assert [f.split(": ", 1)[0] for f in failures] == list(map(str, skipped))
        assert [r.getMessage().split(": ", 1)[0] for r in caplog.records] == [
            f"skipping {path}" for path in skipped
        ]
        assert "Is a directory" in failures[1]

    def test_relative_and_absolute_corpus_paths(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        write_study(corpus / "MTBLS1" / "i_Investigation.txt", "MTBLS1")
        monkeypatch.chdir(corpus)
        (study,), _ = load_corpus(".")
        assert study.source_path == "MTBLS1/i_Investigation.txt"
        assert listed(Path(".")) == [Path("MTBLS1", "i_Investigation.txt")]
        monkeypatch.chdir(tmp_path)
        (study,), _ = load_corpus("corpus")
        assert study.source_path == "corpus/MTBLS1/i_Investigation.txt"
        (study,), _ = load_corpus(corpus)
        assert study.source_path == str(corpus / "MTBLS1" / "i_Investigation.txt")
        assert listed(corpus) == [corpus / "MTBLS1" / "i_Investigation.txt"]

    def test_sibling_directories_sort_as_paths(self, tmp_path):
        """``a/`` sorts before ``a-b/`` and ``a.b/``, although "/" sorts after "-" and "."."""
        corpus = tmp_path / "corpus"
        for name in ("a.b", "a-b", "a"):
            write_study(corpus / name / "i_Investigation.txt", name)
        write_study(corpus / "a" / "i_a.txt", "a too")
        assert listed(corpus) == [
            corpus / "a" / "i_Investigation.txt",
            corpus / "a" / "i_a.txt",
            corpus / "a-b" / "i_Investigation.txt",
            corpus / "a.b" / "i_Investigation.txt",
        ]
        studies, _ = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["a", "a too", "a-b", "a.b"]

    def test_unlistable_directory_is_skipped_silently(self, tmp_path, monkeypatch, caplog):
        corpus = tmp_path / "corpus"
        write_study(corpus / "open" / "i_Investigation.txt", "OPEN")
        write_study(corpus / "locked" / "i_Investigation.txt", "LOCKED")
        scandir = os.scandir

        def refuse_locked(path="."):
            if os.path.basename(os.fspath(path)) == "locked":
                raise PermissionError(13, "Permission denied", os.fspath(path))
            return scandir(path)

        # some Python versions bind os.scandir into pathlib at import, so rglob is not compared
        monkeypatch.setattr(os, "scandir", refuse_locked)
        assert pipeline._investigation_paths(corpus) == [corpus / "open" / "i_Investigation.txt"]
        with caplog.at_level("WARNING", logger="annorate.pipeline"):
            studies, failures = load_corpus(corpus)
        assert [s.study_id for s in studies] == ["OPEN"]
        assert failures == [] and caplog.records == []


class TestProcessStudy:
    def test_reference_study_end_to_end(self, resolver, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "MTBLS95").mkdir(parents=True)
        (corpus / "MTBLS95" / "i_Investigation.txt").write_text(
            mtbls95_investigation(), encoding="utf-8"
        )
        (study,), _ = load_corpus(corpus)
        score = process_study(study, resolver)
        assert score.global_terms == pytest.approx(41.625, abs=1e-6)

    def test_annotation_details(self, resolver, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "MTBLS95").mkdir(parents=True)
        (corpus / "MTBLS95" / "i_Investigation.txt").write_text(
            mtbls95_investigation(), encoding="utf-8"
        )
        (study,), _ = load_corpus(corpus)
        details = annotation_details(process_study(study, resolver), resolver)
        design = details["Design"]
        assert len(design) == 6
        assert design[0]["score"] == 1.0
        assert design[2]["term"] == "NCBITaxon:3701"
        assert design[2]["depth"] == 39
        assert design[2]["branch_length"] == 50
        assert design[2]["score"] == pytest.approx(0.78)
        assert all(d["resolution"] == "Resolved" for d in design)
        assert details["Factor"] == []


class TestOneLookupPerUrl:
    """A run asks the catalog, and the prober, at most once per accession URL."""

    #: Scorable URLs, each repeated within and across types and studies;
    #: GO_LEAF's https form is a distinct URL for the same term.
    URLS = [GO_LEAF.raw, GO_MID.raw, UNKNOWN_TERM.raw, UNKNOWN_PREFIX.raw,
            GO_LEAF.raw.replace("http:", "https:")]
    UNRESOLVED = {UNKNOWN_TERM.raw, UNKNOWN_PREFIX.raw}

    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        for number, urls in enumerate((self.URLS * 2, self.URLS[::-1]), start=1):
            sections = {
                AnnotationType.DESIGN: (["term"] * len(urls), urls),
                AnnotationType.ASSAY: (["term", "text"], [self.URLS[0], "http://example.org/1"]),
            }
            (corpus / f"S{number}").mkdir(parents=True)
            (corpus / f"S{number}" / "i_Investigation.txt").write_text(
                investigation_text(study_id=f"S{number}", sections=sections), encoding="utf-8"
            )
        return corpus

    @pytest.mark.parametrize("command", ["score", "audit"])
    def test_each_scorable_url_looked_up_once(
        self, corpus, mtbls95_catalog, tmp_path, monkeypatch, command
    ):
        looked_up = []
        lookup = OntologyCatalog.lookup

        def counting(catalog, prefix, term_id):
            looked_up.append(term_id)
            return lookup(catalog, prefix, term_id)

        monkeypatch.setattr(OntologyCatalog, "lookup", counting)
        argv = [command, "--corpus", str(corpus), "--catalog", str(mtbls95_catalog),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_OK
        assert Counter(looked_up) == Counter(classify_accession(u).curie for u in self.URLS)

    @pytest.mark.parametrize("command", ["score", "audit"])
    def test_each_unresolved_url_probed_once(
        self, corpus, mtbls95_catalog, tmp_path, monkeypatch, command
    ):
        probed = []

        def prober(ref):
            probed.append(ref.raw)
            return Resolution.BROKEN

        monkeypatch.setattr(ingest, "probe_accession", prober)
        argv = [command, "--corpus", str(corpus), "--catalog", str(mtbls95_catalog),
                "--out", str(tmp_path / "out"), "--probe"]
        assert cli.main(argv) == cli.EXIT_OK
        assert sorted(probed) == sorted(self.UNRESOLVED)
