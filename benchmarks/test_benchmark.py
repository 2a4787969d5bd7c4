"""Tests of the benchmark's own parts: generator, output check and tracer.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import generate
import run
import traced
from check import check_outputs, digests

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

TINY = generate.Workload(
    ontologies=(
        ("NCBITaxon", "taxonomy", 300),
        ("GO", "dag", 300),
        ("CHMO", "dag", 100),
        ("OBI", "dag", 100),
        ("MSH", "taxonomy", 100),
    ),
    studies=40,
    slots=(1, 8),
    vocabulary=60,
    annotated_share=0.7,
    near_dup_clusters=3,
    repeat_share=0.1,
    cross_type_share=0.1,
    empty_label_share=0.05,
)


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_same_seed_gives_identical_bytes_and_another_seed_does_not(workload, tmp_path):
    generate.generate(workload, 5, tmp_path / "a")
    generate.generate(workload, 5, tmp_path / "b")
    generate.generate(workload, 6, tmp_path / "c")
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() != c.keys() or any(a[k] != c[k] for k in a)


def _slot_counts(corpus: Path) -> dict[str, list[int]]:
    """Sorted slot counts per annotation field, over every STUDY block."""
    fields = {f"{name}\t" for name in generate.TYPE_FIELDS.values()}
    counts: dict[str, list[int]] = {}
    for path in corpus.rglob("i_Investigation.txt"):
        for line in path.read_bytes().decode("utf-8", "replace").splitlines():
            name, _, cells = line.partition("\t")
            if f"{name}\t" in fields:
                counts.setdefault(name, []).append(len(cells.split("\t")))
    return {name: sorted(values) for name, values in counts.items()}


def test_another_seed_changes_content_but_not_layout(tmp_path):
    generate.WORKLOADS["tiny"] = TINY
    try:
        a = generate.generate("tiny", 5, tmp_path / "a")
        c = generate.generate("tiny", 6, tmp_path / "c")
    finally:
        del generate.WORKLOADS["tiny"]
    assert a["study_ids"] != c["study_ids"]
    assert _slot_counts(tmp_path / "a" / "corpus") == _slot_counts(tmp_path / "c" / "corpus")
    assert len(a["near_dup_pairs"]) == len(c["near_dup_pairs"])


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """Generated tiny inputs plus the real CLI's outputs for them."""
    work = tmp_path_factory.mktemp("tiny")
    generate.WORKLOADS["tiny"] = TINY
    try:
        truth = generate.generate("tiny", 3, work)
    finally:
        del generate.WORKLOADS["tiny"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    catalog = ["--catalog", "ontologies/catalog.tsv"]
    for args in (
        ["score", "--corpus", "corpus", *catalog, "--out", "out"],
        ["stats", "--scores", "out/scores.tsv", "--out", "out"],
        ["audit", "--corpus", "corpus", *catalog, "--out", "out"],
    ):
        subprocess.run([sys.executable, "-m", "annorate", *args], cwd=work, env=env, check=True,
                       capture_output=True, timeout=120)
    return work, truth


def test_planted_inputs_are_recorded(tiny_outputs):
    work, truth = tiny_outputs
    assert len(truth["malformed_files"]) == 3
    assert truth["near_dup_pairs"] and truth["non_purls"]
    assert truth["files"] == truth["studies"] - 2 + 3  # one file holds three studies
    assert b"\xe9" in (work / "corpus" / truth["non_utf8_file"]).read_bytes()
    assert (work / "ontologies" / "catalog.tsv").read_text().count("chebi.obo") == 1
    assert not (work / "ontologies" / "chebi.obo").exists()


def test_check_passes_on_untouched_outputs(tiny_outputs):
    work, truth = tiny_outputs
    assert check_outputs(work / "out", truth) == []


def _tamper_score(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    cells = first.split("\t")
    cells[3] = f"{float(cells[3]) + 0.01:.7f}"
    return "".join([header, "\t".join(cells), *rest])


def _break_first_row(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    return "".join([header, first.replace("\t", " ", 2), *rest])


def _drop_near_dup(text: str) -> str:
    findings = json.loads(text)
    first = next(i for i, f in enumerate(findings) if f["kind"] == "NearDuplicateEntry")
    return json.dumps(findings[:first] + findings[first + 1:])


def _drop_non_purl(text: str) -> str:
    findings = json.loads(text)
    return json.dumps([f for f in findings if f["kind"] != "NonPurlAccession"])


@pytest.mark.parametrize(
    "name, tamper",
    [
        ("scores.tsv", _tamper_score),
        ("scores.tsv", lambda text: text.rsplit("\n", 2)[0] + "\n"),  # drop the last row
        ("scores.tsv", _break_first_row),
        ("stats.tsv", lambda text: text.replace("mean\t", "mean\t1", 1)),
        ("audit.json", _drop_near_dup),
        ("audit.json", _drop_non_purl),
    ],
)
def test_tampered_output_fails_the_check(tiny_outputs, tmp_path, name, tamper):
    work, truth = tiny_outputs
    out = tmp_path / "out"
    out.mkdir()
    for f in (work / "out").iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    (out / name).write_text(tamper((out / name).read_text(encoding="utf-8")), encoding="utf-8")
    assert check_outputs(out, truth)
    assert digests(out) != digests(work / "out")


def test_missing_output_fails_the_check(tiny_outputs, tmp_path):
    _, truth = tiny_outputs
    assert check_outputs(tmp_path, truth)


def test_tracer_wraps_every_module_binding():
    import annorate
    from annorate import accession, audit, pipeline, scoring

    original = accession.classify_accession
    traced.install(traced.Tracer())
    try:
        wrapped = scoring.classify_accession
        assert wrapped is not original
        for module in (accession, audit, pipeline, annorate):
            assert module.classify_accession is wrapped
    finally:
        for module in list(sys.modules):
            if module == "annorate" or module.startswith("annorate."):
                del sys.modules[module]


def test_tracer_fails_loudly_on_a_missing_target(monkeypatch):
    monkeypatch.setattr(
        traced, "TARGETS", traced.TARGETS + (("annorate.scoring", "no_such_fn", "hot"),)
    )
    with pytest.raises(traced.MissingTarget, match="no_such_fn"):
        traced.install(traced.Tracer())
    for module in list(sys.modules):
        if module == "annorate" or module.startswith("annorate."):
            del sys.modules[module]


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "corpus-heavy"]) != 0
    assert capsys.readouterr().out == ""
