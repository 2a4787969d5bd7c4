"""Every score of a corpus against the reference scorer in tests/score_oracle.py."""

import ast
import dataclasses
from pathlib import Path

import pytest

from annorate import cli

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


def test_oracle_shares_no_scoring_code():
    tree = ast.parse(Path(score_oracle.__file__).read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {"annorate.scoring", "annorate.accession", "annorate.pipeline", "annorate.cli"}
