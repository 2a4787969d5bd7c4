"""Every score of a corpus against the reference scorer in tests/score_oracle.py."""

import ast
import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annorate import cli
from annorate.isatab import AnnotationType

from conftest import investigation_text

import score_oracle
from score_oracle import oracle_mismatches

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
@given(drawn_inputs())
def test_drawn_corpus_scores_as_the_oracle_scores_it(inputs):
    """Drawn catalogs and corpora, scored by ``annorate score`` and by the oracle, agree."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in inputs.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="utf-8")
        catalog = root / "ontologies" / "catalog.tsv"
        score(root / "corpus", catalog, root / "out")
        assert oracle_mismatches(root / "corpus", catalog, root / "out") == []


def test_oracle_shares_no_scoring_code():
    tree = ast.parse(Path(score_oracle.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {"annorate.scoring", "annorate.accession", "annorate.pipeline", "annorate.cli"}
