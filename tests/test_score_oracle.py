"""Every report of a corpus against its oracle in tests/: score, stats and audit."""

import ast
import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annorate import cli
from annorate.corpus import SCORE_COLUMNS
from annorate.isatab import AnnotationType

from conftest import investigation_text

import score_oracle
import stats_oracle
from audit_oracle import oracle_audit_records
from score_oracle import oracle_mismatches
from stats_oracle import oracle_stats_mismatches

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def score(corpus: Path, catalog: Path | None, out: Path) -> None:
    catalog_args = ["--catalog", str(catalog)] if catalog else []
    assert cli.main(["score", "--corpus", str(corpus), *catalog_args, "--out", str(out)]) == 0


@pytest.mark.parametrize("catalog", [DEMO_DATA / "ontologies" / "catalog.tsv", None],
                         ids=["catalog", "no-catalog"])
def test_demo_corpus_scores_as_the_oracle_scores_it(catalog, tmp_path):
    score(DEMO_DATA / "corpus", catalog, tmp_path)
    assert oracle_mismatches(DEMO_DATA / "corpus", catalog, tmp_path) == []


def test_generated_corpus_scores_as_the_oracle_scores_it(tmp_path, monkeypatch):
    """A small corpus-heavy workload: repeats, cross-type labels and label-less annotations."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import generate

    small = dataclasses.replace(
        generate.WORKLOADS["corpus-heavy"],
        ontologies=(("NCBITaxon", "taxonomy", 600), ("GO", "dag", 500), ("CHMO", "dag", 120),
                    ("OBI", "dag", 120), ("MSH", "taxonomy", 100)),
        studies=120,
        vocabulary=200,
        near_dup_clusters=4,
        empty_label_share=0.05,
    )
    monkeypatch.setitem(generate.WORKLOADS, "small", small)
    generate.generate("small", 1, tmp_path / "inputs")
    corpus, catalog = tmp_path / "inputs" / "corpus", tmp_path / "inputs" / "ontologies" / "catalog.tsv"
    score(corpus, catalog, tmp_path / "out")
    assert oracle_mismatches(corpus, catalog, tmp_path / "out") == []


#: Labels drawn for slots: case and whitespace variants of a few terms, and none.
LABELS = ("", "mass spectrometry", "Mass  Spectrometry", " mass spectrometry", "plasma", "PLASMA")
#: Prefixes a drawn catalog may load; MISSING is listed but its file is never written.
LOADED, MISSING, UNCATALOGUED = ("GO", "CHMO"), "CHEBI", "EFO"
#: Study ids drawn for blocks, so that some blocks share one; "" falls back to the file's name.
STUDY_IDS = ("", "MTBLS1", "MTBLS2", "MTBLS3")


@st.composite
def ontology(draw, prefix: str) -> tuple[str, list[str], list[str]]:
    """A random-DAG OBO document of ``prefix``, with its live and its obsolete local ids."""
    local_ids = [f"{number:07d}" for number in range(draw(st.integers(1, 10)))]
    obsolete = draw(st.lists(st.sampled_from(local_ids), unique=True, max_size=2))
    stanzas = []
    for index, local_id in enumerate(local_ids):
        lines = ["[Term]", f"id: {prefix}:{local_id}"]
        parents = draw(st.lists(st.sampled_from(local_ids[:index]), max_size=3)) if index else []
        lines += [f"is_a: {prefix}:{parent}" for parent in parents]
        lines += ["is_obsolete: true"] if local_id in obsolete else []
        stanzas.append("\n".join(lines))
    live = [local_id for local_id in local_ids if local_id not in obsolete]
    return "\n\n".join(stanzas) + "\n", live, obsolete


@st.composite
def drawn_inputs(draw) -> dict[str, str]:
    """A corpus and a catalog, as the text of each file by its path under one directory."""
    prefixes = draw(st.lists(st.sampled_from(LOADED), min_size=1, max_size=2, unique=True))
    files = {"ontologies/catalog.tsv": "".join(f"{p}\t{p.lower()}.obo\n" for p in prefixes)
             + f"{MISSING}\t{MISSING.lower()}.obo\n"}
    accessions = ["", "http://example.org/term/1", "not a url", "GO:0000001",
                  f"http://purl.obolibrary.org/obo/{UNCATALOGUED}_0000001",
                  f"http://purl.obolibrary.org/obo/{MISSING}_0000001"]
    for prefix in prefixes:
        text, live, obsolete = draw(ontology(prefix))
        files[f"ontologies/{prefix.lower()}.obo"] = text
        accessions += [f"http://purl.obolibrary.org/obo/{prefix}_9999999"]
        accessions += [f"http://purl.obolibrary.org/obo/{prefix}_{local}" for local in obsolete]
        for local in live:
            accessions += [f"http://purl.obolibrary.org/obo/{prefix}_{local}",
                           f"https://purl.obolibrary.org/obo/{prefix}_{local}",
                           f"http://purl.bioontology.org/ontology/{prefix}/{local}"]
    slot = st.tuples(st.sampled_from(LABELS), st.sampled_from(accessions))
    typed_slots = st.dictionaries(st.sampled_from(list(AnnotationType)), st.lists(slot, max_size=5))
    for number in range(draw(st.integers(1, 6))):
        # the first block names its study, so that at least one file parses
        study_ids = st.sampled_from(STUDY_IDS[1:] if number == 0 else STUDY_IDS)
        blocks = [(draw(study_ids), draw(typed_slots))]
        blocks += draw(st.lists(st.tuples(st.sampled_from(STUDY_IDS), typed_slots), max_size=1))
        text = ""
        for study_id, types in blocks:
            sections = {}
            for annotation_type, slots in types.items():
                labels = [label for label, _ in slots]
                cells = [accession for _, accession in slots]
                sections[annotation_type] = (labels, cells[: draw(st.integers(0, len(cells)))]
                                             if draw(st.booleans()) else cells)
            text += investigation_text(study_id, sections, include_study_header=len(blocks) > 1)
        files[f"corpus/S{number}/i_Investigation.txt"] = text
    return files


@settings(max_examples=150, derandomize=True, deadline=None)
@given(drawn_inputs(), st.sampled_from([0.1, 0.25, 0.5]), st.sampled_from(SCORE_COLUMNS))
def test_drawn_corpus_reports_equal_the_oracles(inputs, threshold, column):
    """Drawn catalogs and corpora: ``score``, ``stats`` and ``audit`` run once, each report
    against its oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in inputs.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="utf-8")
        corpus, catalog, out = root / "corpus", root / "ontologies" / "catalog.tsv", root / "out"
        score(corpus, catalog, out)
        assert cli.main(["stats", "--scores", str(out / "scores.tsv"), "--score-column", column,
                         "--out", str(out)]) == 0
        assert cli.main(["audit", "--corpus", str(corpus), "--catalog", str(catalog),
                         "--near-dup-threshold", str(threshold), "--out", str(out)]) == 0
        assert oracle_mismatches(corpus, catalog, out) == [], "scores.tsv or scores.json"
        assert oracle_stats_mismatches(out / "scores.tsv", column, out) == [], "stats tables"
        written = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        assert written == oracle_audit_records(corpus, catalog, threshold), "audit.json"


def _imports(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return imported | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                       for alias in node.names}


def test_oracle_shares_no_scoring_code():
    assert not _imports(score_oracle) & {"annorate.scoring", "annorate.accession",
                                         "annorate.pipeline", "annorate.cli"}


def test_stats_oracle_shares_no_statistics_code():
    assert not {name for name in _imports(stats_oracle) if name.startswith("annorate")}
