"""Command-line pipeline: subcommands, outputs, exit codes."""

import argparse
import codecs
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from annorate import accession, audit, cli, pipeline, scoring
from annorate.accession import Resolution, classify_accession
from annorate.audit import Irregularity, IrregularityKind
from annorate.corpus import BoxplotStats, CorpusStats
from annorate.ingest import ManifestEntry
from annorate.ontology import DepthMetrics, OntologyCatalog
from annorate.scoring import EntryScore, TypeScore
from annorate.pipeline import (
    AccessionResolver, annotation_details, annotation_fields, load_corpus, process_study
)

from conftest import investigation_text, mtbls95_investigation
from annorate.isatab import (
    SCORED_TYPES, AnnotationType, StudyMetadata, TermSlot, load_investigation
)

MTBLS95_ROW = "MTBLS95\t8\t41.6250000\t50.2075956\t44.9166667\t53.5223527"

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"
#: The corpus arguments of score and audit on the bundled demo corpus.
DEMO_CORPUS_ARGS = ["--corpus", str(DEMO_DATA / "corpus"),
                    "--catalog", str(DEMO_DATA / "ontologies" / "catalog.tsv")]

#: A well-formed per-type value of a scores.json record.
GOOD_TYPE_SCORE = {
    "annotation_count": 1,
    "term_count": 2,
    "score_sum": 0.5,
    "by_annotations": 0.5,
    "by_terms": 0.25,
}


#: One slot of each accession kind, an empty-label annotation, and a Person
#: accession that scoring must not look at.
MIXED_SLOTS = {
    AnnotationType.DESIGN: (
        ["metabolomics", "", "free text"],
        ["http://purl.obolibrary.org/obo/GO_0000001",
         "http://purl.bioontology.org/ontology/MSH/C081695", ""],
    ),
    AnnotationType.FACTOR: (["dose"], ["http://example.org/dose"]),
    AnnotationType.PROTOCOL: (["Extraction"], ["not a url"]),
    AnnotationType.PERSON: (["curator"], ["http://purl.obolibrary.org/obo/OBI_0000001"]),
}

#: (label, accession) cells of one slot; at least one of them is non-empty,
#: since the parser drops slots with neither.
SLOT = st.tuples(
    st.sampled_from(["", "alpha", "beta gamma", "delta"]),
    st.sampled_from([
        "",
        "http://purl.obolibrary.org/obo/GO_0000001",
        "https://purl.obolibrary.org/obo/CHMO_0000591",
        "http://purl.bioontology.org/ontology/MSH/C081695",
        "http://example.org/term/1",
        "not-a-url",
    ]),
).filter(lambda slot: slot != ("", ""))


def run_cli(argv):
    return cli.main(argv)


def write_study(corpus_dir, study_id, content):
    study_dir = corpus_dir / study_id
    study_dir.mkdir(parents=True, exist_ok=True)
    (study_dir / "i_Investigation.txt").write_text(content, encoding="utf-8")


class TestUsageErrors:
    def test_missing_out_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["fetch", "--ids", str(tmp_path / "ids.txt")])
        assert err.value.code == cli.EXIT_USAGE

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate"])
        assert err.value.code == cli.EXIT_USAGE

    def test_bad_stats_column(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(
                ["stats", "--scores", "x.tsv", "--out", str(tmp_path),
                 "--score-column", "nope"]
            )
        assert err.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("bad", ["0", "0.51", "-0.1", "2", "abc"])
    def test_near_dup_threshold_range(self, tmp_path, capsys, bad):
        with pytest.raises(SystemExit) as err:
            run_cli(["audit", "--corpus", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--near-dup-threshold", bad])
        assert err.value.code == cli.EXIT_USAGE
        reason = "must be a number" if bad == "abc" else "must be in (0, 0.5]"
        assert capsys.readouterr().err.endswith(
            f"annorate audit: error: argument --near-dup-threshold: {reason}\n"
        )

    def test_concurrency_must_be_positive(self, tmp_path, capsys):
        for bad, reason in [("0", "must be at least 1"), ("x", "must be an integer")]:
            with pytest.raises(SystemExit) as err:
                run_cli(["fetch", "--ids", str(tmp_path / "ids.txt"), "--out", str(tmp_path / "o"),
                         "--concurrency", bad])
            assert err.value.code == cli.EXIT_USAGE
            assert capsys.readouterr().err.endswith(
                f"annorate fetch: error: argument --concurrency: {reason}\n"
            )

    def test_every_option_has_help(self):
        (subparsers,) = [action for action in cli.build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {"fetch", "score", "stats", "audit"}
        for name, parser in subparsers.choices.items():
            for action in parser._actions:
                if not isinstance(action, argparse._HelpAction):
                    assert action.help, f"{name} {action.option_strings} has no help"

    @pytest.mark.parametrize(
        "command, input_option",
        [("fetch", "--ids"), ("score", "--corpus"), ("stats", "--scores"), ("audit", "--corpus")],
    )
    @pytest.mark.parametrize("below", ["", "sub/dir"])
    def test_out_that_is_or_lies_under_a_file_exits_before_any_work(
        self, tmp_path, capsys, command, input_option, below
    ):
        # the missing input alone would exit 65; the --out check comes first
        file = tmp_path / "out"
        file.write_text("kept\n", encoding="utf-8")
        out = file / below if below else file
        code = run_cli([command, input_option, str(tmp_path / "missing"), "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"--out {out}: {file} is a file, not a directory\n"
        assert file.read_text(encoding="utf-8") == "kept\n"


class TestFetch:
    def test_fetch_two_studies(self, stub_server, tmp_path, monkeypatch):
        body = 'Study Identifier\t"{sid}"\nStudy Design Type\t"x"\n'
        server = stub_server(
            {
                "/MTBLS1/i_Investigation.txt": (200, body.format(sid="MTBLS1")),
                "/MTBLS2/i_Investigation.txt": (200, body.format(sid="MTBLS2")),
            }
        )
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("MTBLS1\nMTBLS2\n", encoding="utf-8")
        monkeypatch.setenv(cli.ENV_BASE_URL, server.base_url)
        out = tmp_path / "corpus"
        assert run_cli(["fetch", "--ids", str(ids_file), "--out", str(out)]) == cli.EXIT_OK
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert len(manifest) == 3

    def test_all_failed_exit_code(self, stub_server, tmp_path, monkeypatch):
        server = stub_server({})
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("MTBLS1\n", encoding="utf-8")
        monkeypatch.setenv(cli.ENV_BASE_URL, server.base_url)
        code = run_cli(["fetch", "--ids", str(ids_file), "--out", str(tmp_path / "c")])
        assert code == cli.EXIT_ALL_FETCH_FAILED

    def test_missing_ids_file_exits_with_message(self, tmp_path, capsys):
        ids_file = tmp_path / "ids.txt"
        code = run_cli(["fetch", "--ids", str(ids_file), "--out", str(tmp_path / "c")])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == (
            f"cannot read ids file {ids_file}: No such file or directory\n"
        )
        assert not (tmp_path / "c").exists()

    def test_failed_study_listing_exits_as_nothing_fetched(self, stub_server, tmp_path, capsys):
        server = stub_server({"/": (404, "no listing here")})
        code = run_cli(["fetch", "--base-url", server.base_url, "--out", str(tmp_path / "c")])
        assert code == cli.EXIT_ALL_FETCH_FAILED
        err = capsys.readouterr().err
        assert err.startswith("cannot list studies: HTTP 404") and err.count("\n") == 1
        assert server.request_log == ["/"]  # a 404 is not retried
        assert not (tmp_path / "c").exists()

    def test_blocked_study_paths_fail_alone(self, stub_server, tmp_path, monkeypatch, caplog):
        body = 'Study Identifier\t"{sid}"\nStudy Design Type\t"x"\n'
        server = stub_server(
            {f"/{sid}/i_Investigation.txt": (200, body.format(sid=sid))
             for sid in ("MTBLS1", "MTBLS2", "MTBLS3")}
        )
        out = tmp_path / "corpus"
        # a directory where MTBLS1's cached file would be, a file where MTBLS2's directory goes
        (out / "MTBLS1" / "i_Investigation.txt").mkdir(parents=True)
        (out / "MTBLS2").write_text("in the way\n", encoding="utf-8")
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("MTBLS1\nMTBLS2\nMTBLS3\n", encoding="utf-8")
        monkeypatch.setenv(cli.ENV_BASE_URL, server.base_url)
        assert run_cli(["fetch", "--ids", str(ids_file), "--out", str(out)]) == cli.EXIT_OK
        rows = [line.split("\t") for line in (out / "manifest.tsv").read_text().splitlines()[1:]]
        assert [(row[0], row[-1]) for row in rows] == [
            ("MTBLS1", "fetch_failed"), ("MTBLS2", "fetch_failed"), ("MTBLS3", "ok"),
        ]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 2
        for blocked in (out / "MTBLS1" / "i_Investigation.txt", out / "MTBLS2"):
            assert sum(str(blocked) in warning for warning in warnings) == 1


class TestScore:
    def test_reference_row(self, mtbls95_corpus, mtbls95_catalog, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["score", "--corpus", str(mtbls95_corpus), "--catalog", str(mtbls95_catalog),
             "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        lines = (out / "scores.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t") == list(cli.SCORES_TSV_COLUMNS)
        assert lines[1] == MTBLS95_ROW

    def test_scores_json_detail(self, mtbls95_corpus, mtbls95_catalog, tmp_path):
        out = tmp_path / "out"
        run_cli(
            ["score", "--corpus", str(mtbls95_corpus), "--catalog", str(mtbls95_catalog),
             "--out", str(out)]
        )
        payload = json.loads((out / "scores.json").read_text(encoding="utf-8"))
        (record,) = payload
        assert record["study_id"] == "MTBLS95"
        design = record["types"]["Design"]
        assert design["annotation_count"] == 6
        assert design["term_count"] == 7
        assert len(design["annotations"]) == 6
        assert design["annotations"][2]["depth"] == 39

    def test_no_input_exit_code(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run_cli(["score", "--corpus", str(empty), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT

    def test_zero_annotation_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_study(
            corpus, "MTBLS0",
            investigation_text(study_id="MTBLS0",
                               sections={AnnotationType.DESIGN: (["free text"], [])}),
        )
        out = tmp_path / "out"
        assert run_cli(["score", "--corpus", str(corpus), "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "scores.tsv").read_text().splitlines()
        assert lines[1] == "MTBLS0\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000"

    @pytest.mark.parametrize("name", [
        pytest.param(b"MTBLS\xff1", id="non-utf-8"),
        pytest.param(b"MTBLS\t1", id="tab"),
        pytest.param(b"MTBLS\n1", id="line-feed"),
        pytest.param("MTBLS\u00851".encode(), id="next-line"),
        pytest.param("MTBLS\u20281".encode(), id="line-separator"),
    ])
    def test_study_id_from_a_path_name_keeps_scores_tsv_readable(self, tmp_path, name):
        """score writes, and stats reads back, a row of six cells for any directory name."""
        corpus = os.path.join(os.fsencode(tmp_path), b"corpus")
        os.makedirs(os.path.join(corpus, name))
        with open(os.path.join(corpus, name, b"i_Investigation.txt"), "w", encoding="utf-8") as f:
            f.write(investigation_text(sections={AnnotationType.DESIGN: (["free text"], [])}))
        out = tmp_path / "out"
        assert run_cli(["score", "--corpus", os.fsdecode(corpus), "--out", str(out)]) == cli.EXIT_OK
        rows = (out / "scores.tsv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 2 and all(len(row.split("\t")) == 6 for row in rows)
        stats_argv = ["stats", "--scores", str(out / "scores.tsv"), "--out", str(out)]
        assert run_cli(stats_argv) == cli.EXIT_OK

    @pytest.mark.parametrize("parts", [
        pytest.param((b"bad\xffname",), id="study-directory"),
        pytest.param((b"par\xfeent", b"MTBLS1"), id="parent-directory"),
    ])
    def test_source_path_under_a_non_utf_8_directory_is_utf_8_text(self, tmp_path, parts):
        """Each undecodable byte of the path becomes U+FFFD in scores.json's source_path."""
        study_dir = os.path.join(os.fsencode(tmp_path), b"corpus", *parts)
        os.makedirs(study_dir)
        with open(os.path.join(study_dir, b"i_Investigation.txt"), "w", encoding="utf-8") as f:
            f.write(investigation_text(sections={AnnotationType.DESIGN: (["free text"], [])}))
        out = tmp_path / "out"
        corpus = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"corpus"))
        assert run_cli(["score", "--corpus", corpus, "--out", str(out)]) == cli.EXIT_OK
        [record] = json.loads((out / "scores.json").read_bytes())
        source_path = record["source_path"]
        assert source_path.encode("utf-8")
        assert source_path.endswith("/i_Investigation.txt") and "\ufffd" in source_path
        if len(parts) == 2:  # the study id is the clean MTBLS1, so nothing is warned
            assert record["warnings"] == []

    def test_reruns_are_byte_identical(self, mtbls95_corpus, mtbls95_catalog, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        args = ["score", "--corpus", str(mtbls95_corpus), "--catalog", str(mtbls95_catalog)]
        run_cli(args + ["--out", str(out1)])
        run_cli(args + ["--out", str(out2)])
        assert (out1 / "scores.tsv").read_bytes() == (out2 / "scores.tsv").read_bytes()
        assert (out1 / "scores.json").read_bytes() == (out2 / "scores.json").read_bytes()

    def test_sorted_by_log_terms_desc_then_id(self, mtbls95_corpus, mtbls95_catalog, tmp_path):
        write_study(
            mtbls95_corpus, "MTBLS0",
            investigation_text(study_id="MTBLS0",
                               sections={AnnotationType.DESIGN: (["free"], [])}),
        )
        out = tmp_path / "out"
        run_cli(["score", "--corpus", str(mtbls95_corpus),
                 "--catalog", str(mtbls95_catalog), "--out", str(out)])
        ids = [line.split("\t")[0]
               for line in (out / "scores.tsv").read_text().splitlines()[1:]]
        assert ids == ["MTBLS95", "MTBLS0"]

    def test_classifies_each_distinct_accession_once_across_score_and_audit(
        self, tmp_path, monkeypatch
    ):
        corpus = tmp_path / "corpus"
        write_study(corpus, "MTBLS1", investigation_text(study_id="MTBLS1", sections=MIXED_SLOTS))
        write_study(corpus, "MTBLS2", mtbls95_investigation())
        write_study(corpus, "MTBLS3", mtbls95_investigation().replace("MTBLS95", "MTBLS3"))
        calls = []

        def counting(raw):
            calls.append(raw)
            return classify_accession(raw)

        for module in (accession, audit, pipeline, scoring):
            monkeypatch.setattr(module, "classify_accession", counting)
        scoring.annotation_ref.cache_clear()
        args = ["--corpus", str(corpus), "--out", str(tmp_path / "o")]
        assert run_cli(["score", *args]) == 0
        studies, _ = load_corpus(corpus)

        def accessions(types):  # every slot's accession string, the empty one included
            return {slot.accession for study in studies for t in types
                    for slot in study.slots.get(t, ())}

        # every scored type's string, "" included, and no Person accession
        assert sorted(calls) == sorted(accessions(SCORED_TYPES))
        assert run_cli(["audit", *args]) == 0
        # the audit classifies only the non-empty Person strings, which score never read
        person = accessions([AnnotationType.PERSON]) - accessions(SCORED_TYPES) - {""}
        assert person and sorted(calls) == sorted(accessions(SCORED_TYPES) | person)

    def test_never_audits(self, mtbls95_corpus, tmp_path, monkeypatch):
        calls = []
        for module in (audit, cli):
            monkeypatch.setattr(module, "audit_entry", lambda *a, **k: calls.append(a) or [])
        assert run_cli(["score", "--corpus", str(mtbls95_corpus),
                        "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        assert calls == []

    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.sampled_from(SCORED_TYPES), st.lists(SLOT, min_size=1, max_size=6)))
    def test_json_annotations_are_the_tallied_slots(self, sections):
        sections = {t: ([label for label, _ in slots], [acc for _, acc in slots])
                    for t, slots in sections.items()}
        with tempfile.TemporaryDirectory() as tmp:
            corpus, out = Path(tmp) / "corpus", Path(tmp) / "out"
            write_study(corpus, "S1", investigation_text(study_id="S1", sections=sections))
            assert run_cli(["score", "--corpus", str(corpus), "--out", str(out)]) == 0
            (record,) = json.loads((out / "scores.json").read_text(encoding="utf-8"))
        for t in SCORED_TYPES:
            labels, accessions = sections.get(t, ([], []))
            tally = record["types"][t.value]
            kept = [(a["label"], a["accession"]) for a in tally["annotations"]]
            assert len(kept) == tally["annotation_count"]
            assert kept == [
                (label, acc)
                for label, acc in zip(labels, accessions)
                if classify_accession(acc).is_scorable
            ]


class TestStats:
    @pytest.fixture
    def scores_dir(self, mtbls95_corpus, mtbls95_catalog, tmp_path):
        out = tmp_path / "scores_out"
        run_cli(["score", "--corpus", str(mtbls95_corpus),
                 "--catalog", str(mtbls95_catalog), "--out", str(out)])
        return out

    def test_stats_outputs(self, scores_dir, tmp_path):
        out = tmp_path / "stats_out"
        code = run_cli(["stats", "--scores", str(scores_dir / "scores.tsv"),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        for name in ("stats.tsv", "hist.tsv", "boxplot.tsv", "gaps.tsv"):
            assert (out / name).exists(), name
        stats_lines = (out / "stats.tsv").read_text().splitlines()
        assert stats_lines[0] == "statistic\tlog_terms\tlog_annotations"
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in stats_lines[1:]}
        assert rows["mean"] == ["50.2075956", "53.5223527"]
        assert rows["min_annotated"] == ["50.2075956", "53.5223527"]

    def test_reference_table_stats(self, tmp_path):
        from conftest import REFERENCE_SCORES

        out = tmp_path / "out"
        code = run_cli(["stats", "--scores", str(REFERENCE_SCORES), "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = (out / "stats.tsv").read_text().splitlines()
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
        assert rows["max"] == ["80.7354922", "80.7354922"]
        assert rows["min_annotated"] == ["28.5402219", "28.5402219"]
        hist = (out / "hist.tsv").read_text().splitlines()
        assert hist[1] == "0\t30"

    def test_boxplot_and_gaps_from_json(self, scores_dir, tmp_path):
        out = tmp_path / "out"
        run_cli(["stats", "--scores", str(scores_dir / "scores.tsv"), "--out", str(out)])
        box_lines = (out / "boxplot.tsv").read_text().splitlines()
        types = [line.split("\t")[0] for line in box_lines[1:]]
        assert types == ["Design", "Assay"]
        gap_lines = (out / "gaps.tsv").read_text().splitlines()
        gaps = {line.split("\t")[0]: float(line.split("\t")[1]) for line in gap_lines[1:]}
        # design: 5.53/6 - 5.53/7 ; assay fully annotated -> 0
        assert gaps["Design"] == pytest.approx(100 * (5.53 / 6 - 5.53 / 7), abs=1e-6)
        assert gaps["Assay"] == pytest.approx(0.0, abs=1e-9)

    def test_missing_input(self, tmp_path):
        code = run_cli(["stats", "--scores", str(tmp_path / "nope.tsv"),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT

    def test_headerless_input_exits_naming_the_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "MTBLS1\t4\t75.0000000\t80.7354922\t75.0000000\t80.7354922\n"
            "MTBLS2\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        code = run_cli(["stats", "--scores", str(scores), "--out", str(out)])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(scores) in err and "line 1 is not the scores.tsv header" in err
        assert not out.exists()

    def test_scores_path_that_is_a_directory_exits(self, tmp_path, capsys):
        code = run_cli(["stats", "--scores", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == f"cannot read {tmp_path}: Is a directory\n"

    def test_header_only_input_exits_with_no_score_rows(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text("\t".join(cli.SCORES_TSV_COLUMNS) + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code = run_cli(["stats", "--scores", str(scores), "--out", str(out)])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == f"no score rows in {scores}\n"
        assert not out.exists()

    def test_blank_lines_are_skipped(self, tmp_path):
        rows = [
            "\t".join(cli.SCORES_TSV_COLUMNS),
            "MTBLS1\t4\t75.0000000\t80.7354922\t75.0000000\t80.7354922",
            "MTBLS2\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000",
        ]
        outputs = []
        for name, lines in (("plain", rows), ("blank", rows[:2] + ["", " \t "] + rows[2:])):
            scores = tmp_path / name / "scores.tsv"
            scores.parent.mkdir()
            scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out = tmp_path / name / "out"
            assert run_cli(["stats", "--scores", str(scores), "--out", str(out)]) == cli.EXIT_OK
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 4

    def test_single_row_input(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000\n",
            encoding="utf-8",
        )
        assert run_cli(["stats", "--scores", str(scores),
                        "--out", str(tmp_path / "o")]) == cli.EXIT_OK

    def test_log_base_check_consistent(self, scores_dir, tmp_path, capsys):
        code = run_cli(["stats", "--scores", str(scores_dir / "scores.tsv"),
                        "--out", str(tmp_path / "o"), "--log-base-check"])
        assert code == cli.EXIT_OK
        assert "consistent" in capsys.readouterr().out

    def test_log_base_check_flags_mismatch(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t4\t75.0000000\t99.0000000\t75.0000000\t80.7354922\n",
            encoding="utf-8",
        )
        run_cli(["stats", "--scores", str(scores), "--out", str(tmp_path / "o"),
                 "--log-base-check"])
        err = capsys.readouterr().err
        assert "MTBLS1 log_terms inconsistent" in err

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", ""])
    def test_non_numeric_cell_exits_with_row(self, tmp_path, capsys, cell):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t4\t75.0000000\t80.7354922\t75.0000000\t80.7354922\n"
            f"MTBLS2\t4\t75.0000000\t{cell}\t75.0000000\t80.7354922\n",
            encoding="utf-8",
        )
        code = run_cli(["stats", "--scores", str(scores), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "line 3" in err and "MTBLS2" in err

    def test_row_with_wrong_cell_count_exits_with_row(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        row = "\t4\t75.0000000\t80.7354922\t75.0000000\t80.7354922\n"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1" + row + "MTBLS2\t4\t75.0000000\t80.7354922\t75.0000000\n" + "MTBLS3" + row,
            encoding="utf-8",
        )
        out = tmp_path / "o"
        code = run_cli(["stats", "--scores", str(scores), "--out", str(out)])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == (
            f"bad score row in {scores}: line 3 (MTBLS2): 5 cells, not 6\n"
        )
        assert not out.exists()

    def test_log_base_check_out_of_range_exits_with_row(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t4\t150.0000000\t99.0000000\t75.0000000\t80.7354922\n",
            encoding="utf-8",
        )
        code = run_cli(["stats", "--scores", str(scores), "--out", str(tmp_path / "o"),
                        "--log-base-check"])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "MTBLS1" in err and "outside [0, 100]" in err


    @pytest.mark.parametrize("log_base_check", [False, True])
    @pytest.mark.parametrize(
        "column, cell",
        [
            # an id names the column unless it is log_terms, the default histogram column
            pytest.param(column, cell, id=cell if column == "log_terms" else f"{column}-{cell}")
            for column in ("global_terms", "log_terms", "global_annotations", "log_annotations")
            for cell in ("-5.0000000", "100.5000000", "1e308")
        ],
    )
    def test_histogram_value_out_of_range_exits_with_row(
        self, tmp_path, capsys, column, cell, log_base_check
    ):
        row = {"global_terms": "75.0000000", "log_terms": "80.7354922",
               "global_annotations": "75.0000000", "log_annotations": "80.7354922"}
        good = "\t".join(row.values())
        row[column] = cell
        bad = "\t".join(row.values())
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + f"\nMTBLS1\t4\t{good}\nMTBLS2\t4\t{bad}\n",
            encoding="utf-8",
        )
        argv = ["stats", "--scores", str(scores), "--out", str(tmp_path / "o")]
        code = run_cli(argv + ["--log-base-check"] * log_base_check)
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert f"line 3 (MTBLS2): {column} {float(cell)} outside [0, 100]" in err
        assert not (tmp_path / "o").exists()

    def test_negative_total_annotations_exits_with_row(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t-4\t75.0000000\t80.7354922\t75.0000000\t80.7354922\n",
            encoding="utf-8",
        )
        code = run_cli(["stats", "--scores", str(scores), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == (
            f"bad score row in {scores}: line 2 (MTBLS1): total_annotations -4 outside [0, inf]\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("MTBLS1\t4\t75.0000000\tabc\t75.0000000\t80.7354922",
             "log_terms is 'abc', not a finite number"),
            ("MTBLS1\t4.0\t75.0000000\t80.7354922\t75.0000000\t80.7354922",
             "total_annotations is '4.0', not an integer"),
            # the count's range error is named, not the conversion error to its right
            ("MTBLS1\t-4\t75.0000000\tabc\t75.0000000\t80.7354922",
             "total_annotations -4 outside [0, inf]"),
        ],
        ids=["float", "int", "leftmost-of-two"],
    )
    def test_bad_cell_names_its_column(self, tmp_path, capsys, row, message):
        scores = tmp_path / "scores.tsv"
        scores.write_text("\t".join(cli.SCORES_TSV_COLUMNS) + f"\n{row}\n", encoding="utf-8")
        code = run_cli(["stats", "--scores", str(scores), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == f"bad score row in {scores}: line 2 (MTBLS1): {message}\n"
        assert not (tmp_path / "o").exists()

    def test_score_of_100_lands_in_last_bin(self, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t4\t100.0000000\t100.0000000\t100.0000000\t100.0000000\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert run_cli(["stats", "--scores", str(scores), "--out", str(out)]) == cli.EXIT_OK
        assert (out / "hist.tsv").read_text().splitlines()[-1] == "90\t1"

    @pytest.mark.parametrize(
        "types, message",
        [
            ({"Design": {}}, "missing key 'annotation_count'"),
            ({"Methods": {}}, "'Methods' is not a valid AnnotationType"),
            ("Design", "types is 'Design', not an object"),
            ({"Design": [1, 2]}, "Design is [1, 2], not an object"),
            (
                {"Design": dict(GOOD_TYPE_SCORE, by_annotations="x")},
                "Design by_annotations is 'x', not a finite number",
            ),
            (
                {"Design": dict(GOOD_TYPE_SCORE, annotation_count=1.5)},
                "Design annotation_count is 1.5, not an integer",
            ),
            (
                {"Design": dict(GOOD_TYPE_SCORE, by_terms=True)},
                "Design by_terms is True, not a finite number",
            ),
            (
                {"Design": dict(GOOD_TYPE_SCORE, by_annotations=1e308)},
                "Design by_annotations 1e+308 outside [0, 1]",
            ),
            (
                {"Design": dict(GOOD_TYPE_SCORE, by_terms=-0.5)},
                "Design by_terms -0.5 outside [0, 1]",
            ),
            (
                {"Design": dict(GOOD_TYPE_SCORE, annotation_count=-7)},
                "Design annotation_count -7 outside [0, inf]",
            ),
            (
                {"Assay": dict(GOOD_TYPE_SCORE, term_count=-2)},
                "Assay term_count -2 outside [0, inf]",
            ),
            (
                {"Design": dict(GOOD_TYPE_SCORE, score_sum=-0.5)},
                "Design score_sum -0.5 outside [0, inf]",
            ),
        ],
    )
    def test_bad_scores_json_record_exits_with_study(self, tmp_path, capsys, types, message):
        (tmp_path / "scores.tsv").write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000\n",
            encoding="utf-8",
        )
        (tmp_path / "scores.json").write_text(
            json.dumps([{"study_id": "MTBLS1", "types": types}]), encoding="utf-8"
        )
        code = run_cli(["stats", "--scores", str(tmp_path / "scores.tsv"),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "MTBLS1" in err and message in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([["MTBLS1"]], "scores.json record 1: record is ['MTBLS1'], not an object"),
            ([{"study_id": "MTBLS1", "types": {}}, 7], "record 2: record is 7, not an object"),
            ([{"types": {}}], "scores.json record 1: missing key 'study_id'"),
            ([{"study_id": ["MTBLS1"]}], "record 1: study_id is ['MTBLS1'], not a string"),
            ({"MTBLS1": {}}, "scores.json: not a list of records"),
        ],
    )
    def test_scores_json_of_wrong_shape_exits_with_record(
        self, tmp_path, capsys, payload, message
    ):
        (tmp_path / "scores.tsv").write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000\n",
            encoding="utf-8",
        )
        (tmp_path / "scores.json").write_text(json.dumps(payload), encoding="utf-8")
        code = run_cli(["stats", "--scores", str(tmp_path / "scores.tsv"),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert message in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000, "[" * 100_000 + "]" * 100_000, '{"a": ' * 100_000],
        ids=["open-lists", "closed-lists", "open-objects"],
    )
    def test_deeply_nested_scores_json_exits_with_one_line(self, tmp_path, capsys, text):
        (tmp_path / "scores.tsv").write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000\n",
            encoding="utf-8",
        )
        (tmp_path / "scores.json").write_text(text, encoding="utf-8")
        code = run_cli(["stats", "--scores", str(tmp_path / "scores.tsv"),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err.strip()
        assert err == (
            f"bad score row in {tmp_path / 'scores.tsv'}: scores.json: nested too deeply to read"
        )

    @pytest.mark.parametrize("name", ["scores.tsv", "scores.json"])
    def test_byte_order_mark_opening_a_scores_file_is_dropped(self, scores_dir, tmp_path, name):
        expected, marked = tmp_path / "expected", tmp_path / "marked"
        assert run_cli(["stats", "--scores", str(scores_dir / "scores.tsv"),
                        "--out", str(expected)]) == cli.EXIT_OK
        path = scores_dir / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert run_cli(["stats", "--scores", str(scores_dir / "scores.tsv"),
                        "--out", str(marked)]) == cli.EXIT_OK
        for output in ("stats.tsv", "hist.tsv", "boxplot.tsv", "gaps.tsv"):
            assert (marked / output).read_bytes() == (expected / output).read_bytes(), output

    @pytest.mark.parametrize(
        "content, message",
        [
            (
                b'[{"study_id": "caf\xe9"}]',
                "scores.json: 'utf-8' codec can't decode byte 0xe9 in position 18:"
                " invalid continuation byte",
            ),
            (b"MTBLS1\t0\n", "scores.json: Expecting value: line 1 column 1 (char 0)"),
            (b"[]\n[]\n", "scores.json: Extra data: line 2 column 1 (char 3)"),
        ],
        ids=["not-utf-8", "not-json", "data-after-the-list"],
    )
    def test_unreadable_scores_json_exits_naming_it(self, tmp_path, capsys, content, message):
        (tmp_path / "scores.tsv").write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t0\t0.0000000\t0.0000000\t0.0000000\t0.0000000\n",
            encoding="utf-8",
        )
        (tmp_path / "scores.json").write_bytes(content)
        code = run_cli(["stats", "--scores", str(tmp_path / "scores.tsv"),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err
        assert err == f"bad score row in {tmp_path / 'scores.tsv'}: {message}\n"

    def test_studies_sharing_an_id_keep_their_own_type_scores(
        self, mtbls95_corpus, mtbls95_catalog, tmp_path
    ):
        write_study(
            mtbls95_corpus, "copy",
            investigation_text(study_id="MTBLS95",
                               sections={AnnotationType.DESIGN: (["free text"], [])}),
        )
        out = tmp_path / "out"
        assert run_cli(["score", "--corpus", str(mtbls95_corpus),
                        "--catalog", str(mtbls95_catalog), "--out", str(out)]) == cli.EXIT_OK
        assert run_cli(["stats", "--scores", str(out / "scores.tsv"),
                        "--out", str(out)]) == cli.EXIT_OK
        box_lines = (out / "boxplot.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in box_lines[1:]] == ["Design", "Assay"]
        gap_lines = (out / "gaps.tsv").read_text().splitlines()
        gaps = {line.split("\t")[0]: float(line.split("\t")[1]) for line in gap_lines[1:]}
        assert gaps["Design"] == pytest.approx(100 * (5.53 / 6 - 5.53 / 7), abs=1e-6)


class TestAudit:
    def make_problem_corpus(self, corpus):
        lipid = "http://purl.obolibrary.org/obo/GO_0005811"
        write_study(
            corpus, "MTBLS81",
            investigation_text(
                study_id="MTBLS81",
                sections={
                    AnnotationType.FACTOR: (
                        ["lipid droplets", "lipid droplets"], [lipid, lipid]
                    ),
                    AnnotationType.DESIGN: (["lipid droplets"], []),
                },
            ),
        )
        nmr = "http://purl.obolibrary.org/obo/CHMO_0000591"
        write_study(
            corpus, "MTBLS147",
            investigation_text(
                study_id="MTBLS147",
                sections={
                    AnnotationType.ASSAY: (["NMR spectroscopy"], [nmr]),
                    AnnotationType.PROTOCOL: (["NMR spectroscopy"], []),
                },
            ),
        )

    def test_findings_as_json(self, tmp_path):
        corpus = tmp_path / "corpus"
        self.make_problem_corpus(corpus)
        out = tmp_path / "out"
        code = run_cli(["audit", "--corpus", str(corpus), "--out", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        by_kind = {}
        for finding in report:
            by_kind.setdefault(finding["kind"], []).append(finding)
        # the catalog is empty, so both annotations are also OntologyUnavailable
        assert len(by_kind["RepeatedAnnotation"]) == 1
        assert len(by_kind["CrossTypeUnannotatedDuplicate"]) == 2
        assert {f["study_id"] for f in by_kind["RepeatedAnnotation"]} == {"MTBLS81"}

    def test_clean_corpus_empty_report(self, mtbls95_corpus, mtbls95_catalog, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["audit", "--corpus", str(mtbls95_corpus),
                        "--catalog", str(mtbls95_catalog), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert json.loads((out / "audit.json").read_text()) == []

    def test_fail_on_findings(self, tmp_path):
        corpus = tmp_path / "corpus"
        self.make_problem_corpus(corpus)
        out = tmp_path / "out"
        code = run_cli(["audit", "--corpus", str(corpus), "--out", str(out),
                        "--fail-on-findings"])
        assert code == cli.EXIT_FINDINGS

    def test_near_duplicate_quintet(self, tmp_path):
        corpus = tmp_path / "corpus"
        content_template = investigation_text(
            sections={
                AnnotationType.DESIGN: (["phytohormones"], []),
                AnnotationType.PROTOCOL: (["Extraction", "Chromatography"], []),
            }
        )
        for i in range(5):
            sid = f"MTBLS{107 + i}"
            write_study(corpus, sid, f'Study Identifier\t"{sid}"\n' + content_template)
        out = tmp_path / "out"
        run_cli(["audit", "--corpus", str(corpus), "--out", str(out)])
        report = json.loads((out / "audit.json").read_text())
        near_dups = [f for f in report if f["kind"] == "NearDuplicateEntry"]
        assert len(near_dups) == 10

    def test_unusual_text_is_encoded_as_json_dumps_would(self, tmp_path):
        text = 'q"\\\x00\x1f\u00e9\U0001f600z'  # none of these is a line break to splitlines
        accession_url = f"http://example.org/{text}"
        corpus = tmp_path / "corpus"
        write_study(
            corpus, "MTBLS1",
            investigation_text(
                study_id="MTBLS1",
                sections={
                    AnnotationType.DESIGN: ([text, text], [accession_url] * 2),
                    AnnotationType.FACTOR: ([text], []),
                },
            ),
        )
        out = tmp_path / "out"
        assert run_cli(["audit", "--corpus", str(corpus), "--out", str(out)]) == cli.EXIT_OK
        data = (out / "audit.json").read_bytes()
        report = json.loads(data)
        assert data == (json.dumps(report, indent=2) + "\n").encode()
        evidence = {f["kind"]: f["evidence"] for f in report}
        assert evidence["NonPurlAccession"] == f"Design: {accession_url}"
        assert repr(text) in evidence["RepeatedAnnotation"]
        assert repr(text) in evidence["CrossTypeUnannotatedDuplicate"]

    def test_no_input(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run_cli(["audit", "--corpus", str(empty), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NO_INPUT


class TestReporting:
    """Each problem ends in one stderr line."""

    @pytest.mark.parametrize("command", ["score", "audit"])
    def test_each_skipped_file_is_named_once(self, command, mtbls95_corpus, tmp_path):
        bad = mtbls95_corpus / "MTBLS0" / "i_Investigation.txt"
        bad.parent.mkdir()
        bad.write_text("no field rows here\n", encoding="utf-8")
        # a new process, so that the console entry point's log handler writes to stderr
        result = subprocess.run(
            [sys.executable, "-m", "annorate", command, "--corpus", str(mtbls95_corpus),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert result.returncode == cli.EXIT_OK, result.stderr
        assert result.stderr.count(str(bad)) == 1, result.stderr

    @pytest.mark.parametrize(
        "command, output", [("score", "scores.json"), ("stats", "hist.tsv"), ("audit", "audit.json")]
    )
    def test_unwritable_output_exits_with_one_line(
        self, command, output, mtbls95_corpus, mtbls95_catalog, tmp_path, capsys
    ):
        corpus_args = ["--corpus", str(mtbls95_corpus), "--catalog", str(mtbls95_catalog)]
        scores = tmp_path / "scores"
        assert run_cli(["score", *corpus_args, "--out", str(scores)]) == cli.EXIT_OK
        inputs = {
            "score": corpus_args,
            "stats": ["--scores", str(scores / "scores.tsv")],
            "audit": corpus_args,
        }
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        capsys.readouterr()
        assert run_cli([command, *inputs[command], "--out", str(out)]) == cli.EXIT_CANT_CREATE
        assert capsys.readouterr() == ("", f"cannot write {out / output}: Is a directory\n")

    def test_failed_report_write_keeps_the_previous_report(
        self, mtbls95_corpus, mtbls95_catalog, tmp_path, monkeypatch, capsys
    ):
        write_study(mtbls95_corpus, "MTBLS0", investigation_text(study_id="MTBLS0"))
        out = tmp_path / "out"
        out.mkdir()
        previous = {"scores.json": b'["a previous run"]\n', "scores.tsv": b"a previous run\n"}
        for name, content in previous.items():
            (out / name).write_bytes(content)
        score_record, records = cli._score_record, []

        def full_disk_at_the_second_record(*args):
            records.append(args)
            if len(records) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return score_record(*args)

        monkeypatch.setattr(cli, "_score_record", full_disk_at_the_second_record)
        code = run_cli(["score", "--corpus", str(mtbls95_corpus),
                        "--catalog", str(mtbls95_catalog), "--out", str(out)])
        assert code == cli.EXIT_CANT_CREATE
        assert capsys.readouterr().err == (
            f"cannot write {out / 'scores.json'}: No space left on device\n"
        )
        assert len(records) == 2
        # both reports are the previous ones, so stats never pairs one run's rows with another's
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous

    def test_failed_tsv_write_after_a_whole_scores_json_keeps_both_previous_reports(
        self, mtbls95_corpus, mtbls95_catalog, tmp_path, monkeypatch, capsys
    ):
        write_study(mtbls95_corpus, "MTBLS0", investigation_text(study_id="MTBLS0"))
        out = tmp_path / "out"
        out.mkdir()
        previous = {"scores.json": b'["a previous run"]\n', "scores.tsv": b"a previous run\n"}
        for name, content in previous.items():
            (out / name).write_bytes(content)
        write_scores_json, events = cli._write_scores_json, []

        def whole_scores_json(*args):
            write_scores_json(*args)
            events.append("scores.json written")

        def full_disk_in_scores_tsv(*args):
            events.append("scores.tsv failed")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_write_scores_json", whole_scores_json)
        monkeypatch.setattr(cli, "_write_tsv", full_disk_in_scores_tsv)
        code = run_cli(["score", "--corpus", str(mtbls95_corpus),
                        "--catalog", str(mtbls95_catalog), "--out", str(out)])
        assert events == ["scores.json written", "scores.tsv failed"]
        # neither partial file is left, and the new scores.json was never renamed into place
        assert {path.name: path.read_bytes() for path in out.iterdir()} == previous
        assert code == cli.EXIT_CANT_CREATE
        assert capsys.readouterr().err == (
            f"cannot write {out / 'scores.tsv'}: No space left on device\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "command, reports",
        [("score", {"scores.json", "scores.tsv"}),
         ("stats", {"stats.tsv", "hist.tsv", "boxplot.tsv", "gaps.tsv"})],
    )
    def test_failed_standard_output_exits_with_one_line(
        self, command, reports, unbuffered, tmp_path
    ):
        reference = tmp_path / "reference"
        inputs = {"score": DEMO_CORPUS_ARGS, "stats": ["--scores", str(reference / "scores.tsv")]}
        for name in ("score", "stats"):
            assert run_cli([name, *inputs[name], "--out", str(reference)]) == cli.EXIT_OK
        out = tmp_path / "out"
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "annorate", command, *inputs[command], "--out", str(out)],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
                     "PYTHONUNBUFFERED": unbuffered},
            )
        assert (result.returncode, result.stderr) == (
            cli.EXIT_CANT_CREATE, "cannot write standard output: No space left on device\n"
        )
        # every report was written before the one line of standard output
        assert {path.name for path in out.iterdir()} == reports
        for name in reports:
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "case, code",
        [("score-logging-a-warning", cli.EXIT_OK),
         ("score-of-an-empty-corpus", cli.EXIT_NO_INPUT),
         ("stats-of-a-missing-file", cli.EXIT_NO_INPUT),
         ("unknown-option", cli.EXIT_USAGE)],
    )
    def test_failed_standard_error_never_changes_the_exit_code(
        self, case, code, unbuffered, tmp_path
    ):
        empty = tmp_path / "empty"
        empty.mkdir()
        argv = {
            # no catalog: the run logs one warning, and its reports are still written
            "score-logging-a-warning": ["score", "--corpus", str(DEMO_DATA / "corpus")],
            "score-of-an-empty-corpus": ["score", "--corpus", str(empty)],
            "stats-of-a-missing-file": ["stats", "--scores", str(tmp_path / "missing.tsv")],
            "unknown-option": ["score", "--corpus", str(empty), "--frobnicate"],
        }[case]
        out = tmp_path / "out"
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "annorate", *argv, "--out", str(out)],
                stdout=subprocess.PIPE, stderr=full, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
                     "PYTHONUNBUFFERED": unbuffered},
            )
        assert result.returncode == code
        if code == cli.EXIT_OK:
            assert result.stdout == f"scored 5 studies into {out}\n"
            assert {path.name for path in out.iterdir()} == {"scores.json", "scores.tsv"}
        else:
            assert result.stdout == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_help_to_a_failed_standard_output_exits_with_one_line(self, unbuffered):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "annorate", "--help"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
                     "PYTHONUNBUFFERED": unbuffered},
            )
        assert (result.returncode, result.stderr) == (
            cli.EXIT_CANT_CREATE, "cannot write standard output: No space left on device\n"
        )

    def test_failed_download_write_names_its_target(
        self, stub_server, tmp_path, monkeypatch, capsys
    ):
        server = stub_server({"/MTBLS95/i_Investigation.txt": (200, mtbls95_investigation())})
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("MTBLS95\n", encoding="utf-8")

        def full_disk(source, target):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), source, None, target)

        monkeypatch.setattr(os, "replace", full_disk)
        out = tmp_path / "corpus"
        code = run_cli(["fetch", "--ids", str(ids_file), "--base-url", server.base_url,
                        "--out", str(out)])
        assert code == cli.EXIT_CANT_CREATE
        assert capsys.readouterr().err == (
            f"cannot write {out / 'MTBLS95' / 'i_Investigation.txt'}: No space left on device\n"
        )
        assert list((out / "MTBLS95").iterdir()) == []


class TestCatalogInput:
    def test_non_utf8_obo_file_degrades_its_prefix(
        self, mtbls95_corpus, mtbls95_catalog, tmp_path, caplog
    ):
        go = mtbls95_catalog.parent / "go.obo"
        go.write_bytes(go.read_bytes().replace(b"! parent", b"! caf\xe9", 1))
        out = tmp_path / "out"
        argv = ["--corpus", str(mtbls95_corpus), "--catalog", str(mtbls95_catalog),
                "--out", str(out)]
        assert run_cli(["score", *argv]) == cli.EXIT_OK
        assert "catalog prefix GO unavailable: 'utf-8' codec can't decode" in caplog.text
        (record,) = json.loads((out / "scores.json").read_text(encoding="utf-8"))
        annotations = record["types"]["Design"]["annotations"]
        go_terms = [a for a in annotations if a["term"].startswith("GO:")]
        assert len(go_terms) == 2
        for annotation in go_terms:
            assert annotation["score"] == 0.0
            assert annotation["depth"] is None
            assert annotation["resolution"] == "NotInCatalog"
        others = [a for a in annotations if a["term"] and not a["term"].startswith(("GO:", "MSH:"))]
        assert others and all(a["resolution"] == "Resolved" for a in others)

        assert run_cli(["audit", *argv]) == cli.EXIT_OK
        report = json.loads((out / "audit.json").read_text(encoding="utf-8"))
        unavailable = {f["evidence"] for f in report if f["kind"] == "OntologyUnavailable"}
        assert unavailable == {
            "Design: http://purl.obolibrary.org/obo/GO_0030257",
            "Design: http://purl.obolibrary.org/obo/GO_0045208",
        }

    @pytest.mark.parametrize("cache", ["usable", "a-file"])
    @pytest.mark.parametrize("command", ["score", "audit"])
    def test_obo_path_with_a_nul_is_a_malformed_line(
        self, command, cache, mtbls95_corpus, mtbls95_catalog, tmp_path, monkeypatch, caplog
    ):
        if cache == "a-file":
            blocker = tmp_path / "not-a-directory"
            blocker.write_text("", encoding="utf-8")
            monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        output = {"score": "scores.tsv", "audit": "audit.json"}[command]
        argv = [command, "--corpus", str(mtbls95_corpus), "--catalog", str(mtbls95_catalog)]
        assert run_cli([*argv, "--out", str(tmp_path / "clean")]) == cli.EXIT_OK
        lines = mtbls95_catalog.read_text(encoding="utf-8").splitlines()
        mtbls95_catalog.write_text("\n".join([*lines, "ZZ\tzz\0.obo"]) + "\n", encoding="utf-8")
        caplog.clear()
        assert run_cli([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == [f"{mtbls95_catalog}:{len(lines) + 1}: skipping malformed catalog line"]
        # every other prefix still resolves: the report is that of the catalog without the line
        assert (tmp_path / "out" / output).read_bytes() == (tmp_path / "clean" / output).read_bytes()

    @pytest.mark.parametrize("command", ["score", "audit"])
    def test_missing_catalog_exits_without_outputs(
        self, command, mtbls95_corpus, tmp_path, capsys
    ):
        catalog = tmp_path / "nowhere" / "catalog.tsv"
        out = tmp_path / "out"
        code = run_cli([command, "--corpus", str(mtbls95_corpus), "--catalog", str(catalog),
                        "--out", str(out)])
        assert code == cli.EXIT_NO_INPUT
        assert capsys.readouterr().err == (
            f"cannot read catalog {catalog}: No such file or directory\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "audit"])
    def test_undecodable_catalog_exits_without_outputs(
        self, command, mtbls95_corpus, mtbls95_catalog, tmp_path, capsys
    ):
        mtbls95_catalog.write_bytes(b"GO\tgo.obo\n# caf\xe9\n")
        out = tmp_path / "out"
        code = run_cli([command, "--corpus", str(mtbls95_corpus),
                        "--catalog", str(mtbls95_catalog), "--out", str(out)])
        assert code == cli.EXIT_NO_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read catalog {mtbls95_catalog}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1
        assert not out.exists()


#: Strings a JSON encoder must escape or pass through: non-ASCII, control
#: characters, quote, backslash, U+2028 and astral characters.
JSON_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from(['"', "\\", "\u2028", "\x00", "\x1f", "\x7f", "\t", "\n", "é",
                     "\U0001f600"]),
))
JSON_SCALAR = st.one_of(
    JSON_TEXT,
    st.sampled_from([1e-07, 5e-324, 1e16, -0.0, 0.1 + 0.2, 2**64, -(10**40), 0, None]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
)
#: Scorable URLs, few enough that drawn studies repeat them under different
#: labels; two share a term id and two more an ontology.
URL_POOL = (
    "http://purl.obolibrary.org/obo/GO_0000001",
    "https://purl.obolibrary.org/obo/GO_0000001",
    "http://purl.obolibrary.org/obo/GO_0000002",
    "https://purl.obolibrary.org/obo/CHMO_0000591",
    "http://purl.bioontology.org/ontology/MSH/C081695",
    "http://purl.obolibrary.org/obo/NCBITaxon_9606",
)
#: A slot's accession: a scorable URL, or none or a link that is not an
#: annotation, so that the two weightings differ.
SLOT_ACCESSIONS = URL_POOL + ("", "http://example.org/free-text")
#: A URL's catalog entry: none (depth and branch length null, score 0.0), or
#: depth metrics whose score the report must print exactly.
URL_METRICS = st.one_of(
    st.none(),
    st.builds(
        DepthMetrics,
        depth=st.integers(0, 40),
        branch_length=st.integers(0, 40),
        score=st.one_of(st.sampled_from([0.0, 1e-07, 0.1, 1 / 3, 1.0]), st.floats(0, 1)),
    ),
)
JSON_VALUE = st.recursive(
    JSON_SCALAR,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(JSON_TEXT, children, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(JSON_SCALAR)
    def test_encodes_as_json_dumps_with_indent(self, value):
        assert cli._json_scalar(value) == json.dumps(value, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(JSON_SCALAR, max_size=4), st.sampled_from(["", "    ", "        "]))
    def test_lays_out_a_list_as_json_dumps_with_indent(self, values, indent):
        texts = [cli._json_scalar(value) for value in values]
        assert cli._json_list(texts, indent) == json.dumps(values, indent=2).replace(
            "\n", "\n" + indent
        )

    @settings(max_examples=50, deadline=None)
    @given(st.lists(JSON_VALUE, max_size=4))
    @example([])
    def test_writes_a_list_as_json_dump_with_indent(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            with cli._report(path) as out:
                cli._write_json_list(
                    out, (json.dumps(r, indent=2).replace("\n", "\n  ") for r in records)
                )
            assert path.read_bytes() == (json.dumps(records, indent=2) + "\n").encode()

    @pytest.mark.parametrize(
        "value",
        [True, False, float("nan"), float("inf"), -float("inf"), ["a list"]],
        ids=["true", "false", "nan", "inf", "-inf", "list"],
    )
    def test_rejects_bool_and_non_finite(self, value):
        with pytest.raises((TypeError, ValueError)):
            cli._json_scalar(value)

    def test_reports_equal_json_dumps_encoding(self, tmp_path):
        data = Path(__file__).resolve().parents[1] / "demos" / "data"
        for command in ("score", "audit"):
            assert run_cli([command, "--corpus", str(data / "corpus"),
                            "--catalog", str(data / "ontologies" / "catalog.tsv"),
                            "--out", str(tmp_path)]) == cli.EXIT_OK
        for name in ("scores.json", "audit.json"):
            written = (tmp_path / name).read_bytes()
            records = json.loads(written)
            assert records, name
            assert written == (json.dumps(records, indent=2) + "\n").encode(), name

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.dictionaries(
                    st.sampled_from(SCORED_TYPES),
                    st.lists(st.tuples(JSON_TEXT, st.sampled_from(SLOT_ACCESSIONS)), max_size=5),
                ),
                JSON_TEXT,
                st.lists(JSON_TEXT, max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
        st.fixed_dictionaries({url: URL_METRICS for url in URL_POOL}),
        st.sets(st.sampled_from(URL_POOL)),
    )
    def test_scores_json_splices_the_annotation_details(self, studies, metrics, broken):
        by_term = {classify_accession(url).curie: m for url, m in metrics.items() if m}
        resolver = AccessionResolver(
            SimpleNamespace(lookup=lambda prefix, term_id: by_term.get(term_id)),
            prober=lambda ref: Resolution.BROKEN if ref.raw in broken else Resolution.RESOLVED,
        )
        scored = []
        for number, (sections, source_path, warnings) in enumerate(studies):
            slots = {t: [TermSlot(label, url) for label, url in cells]
                     for t, cells in sections.items()}
            study = StudyMetadata(f"S{number}", slots, source_path, warnings)
            scored.append((study, process_study(study, resolver)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.json"
            with cli._report(path) as out:
                cli._write_scores_json(out, scored, resolver)
            written = path.read_bytes()
        records = json.loads(written)

        def typed(values: dict) -> list:  # JSON 1 and 1.0 must not pass for each other
            return [(key, type(value), value) for key, value in values.items()]

        for record, (study, score) in zip(records, scored, strict=True):
            entry_fields = ("total_annotations", "global_terms", "log_terms",
                            "global_annotations", "log_annotations")
            assert typed({key: record[key] for key in record if key != "types"}) == typed(
                {"study_id": score.study_id, "source_path": study.source_path,
                 **{key: getattr(score, key) for key in entry_fields},
                 "warnings": study.warnings}
            )
            assert list(record["types"]) == [t.value for t in SCORED_TYPES]
            for annotation_type in SCORED_TYPES:
                fields = record["types"][annotation_type.value]
                annotations = fields.pop("annotations")
                per_type = score.per_type[annotation_type]
                assert typed(fields) == typed(
                    {key: getattr(per_type, key) for key, *_ in cli._TYPE_SCORE_FIELDS}
                )
                assert len(annotations) == per_type.annotation_count
            for type_name, annotations in annotation_details(study, resolver).items():
                record["types"][type_name]["annotations"] = annotations
        assert written == (json.dumps(records, indent=2) + "\n").encode()

    def test_scores_json_encodes_each_distinct_annotation_once(self, monkeypatch):
        """A repeated slot costs no more encodings; one URL under two labels is two records."""
        repeated, relabelled = TermSlot("metabolomics", GO_URL), TermSlot("other label", GO_URL)
        studies = [
            StudyMetadata("S1", {AnnotationType.DESIGN: [repeated, TermSlot("free text")]}),
            StudyMetadata("S2", {AnnotationType.DESIGN: [repeated],
                                 AnnotationType.FACTOR: [relabelled]}),
            StudyMetadata("S3", {AnnotationType.PROTOCOL: [repeated, repeated]}),
        ]
        calls = []

        def counted(ref, resolver):
            calls.append(ref)
            return annotation_fields(ref, resolver)

        monkeypatch.setattr(cli, "annotation_fields", counted)
        resolver = AccessionResolver(OntologyCatalog())
        scored = [(study, process_study(study, resolver)) for study in studies]
        out = io.StringIO()
        cli._write_scores_json(out, scored, resolver)
        assert len(calls) <= 2  # the distinct annotation slots
        labels = [[annotation["label"] for fields in record["types"].values()
                   for annotation in fields["annotations"]]
                  for record in json.loads(out.getvalue())]
        assert labels == [["metabolomics"], ["metabolomics", "other label"],
                          ["metabolomics", "metabolomics"]]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["score_sum", "by_annotations", "by_terms", "global_terms"])
    def test_scores_json_rejects_a_non_finite_score(self, field, value):
        per_type = TypeScore(1, 1, 0.5, 0.5, 0.5)
        per_type = {t: per_type for t in SCORED_TYPES}
        entry = EntryScore("S1", per_type, 12.5, 12.5, 16.9925001, 16.9925001, 4)
        if field in TypeScore._fields:  # the last type's block, after three good ones
            per_type[SCORED_TYPES[-1]] = per_type[SCORED_TYPES[-1]]._replace(**{field: value})
        else:
            entry = entry._replace(**{field: value})
        with tempfile.TemporaryDirectory() as tmp, pytest.raises(ValueError, match="non-finite"):
            with cli._report(Path(tmp) / "scores.json") as out:
                cli._write_scores_json(out, [(StudyMetadata("S1", {}), entry)], resolver=None)


class TestPipelineEquivalence:
    def test_fetched_and_prepopulated_corpora_score_identically(
        self, stub_server, tmp_path, mtbls95_catalog, monkeypatch
    ):
        from conftest import mtbls95_investigation

        content = mtbls95_investigation()
        server = stub_server({"/MTBLS95/i_Investigation.txt": (200, content)})
        monkeypatch.setenv(cli.ENV_BASE_URL, server.base_url)

        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("MTBLS95\n", encoding="utf-8")
        fetched = tmp_path / "fetched"
        assert run_cli(["fetch", "--ids", str(ids_file), "--out", str(fetched)]) == 0

        manual = tmp_path / "manual"
        write_study(manual, "MTBLS95", content)

        out_fetched, out_manual = tmp_path / "of", tmp_path / "om"
        for corpus, out in ((fetched, out_fetched), (manual, out_manual)):
            run_cli(["score", "--corpus", str(corpus),
                     "--catalog", str(mtbls95_catalog), "--out", str(out)])
        assert (out_fetched / "scores.tsv").read_bytes() == (
            out_manual / "scores.tsv"
        ).read_bytes()


class TestConsoleEntryPoint:
    @pytest.mark.parametrize(
        "argv, code",
        [(["score", *DEMO_CORPUS_ARGS, "--out", "o"], cli.EXIT_OK),
         (["audit", *DEMO_CORPUS_ARGS, "--out", "o", "--fail-on-findings"], cli.EXIT_FINDINGS),
         (["score", *DEMO_CORPUS_ARGS, "--out", "a-file/o"], cli.EXIT_USAGE),
         (["stats", "--scores", "no-such-file.tsv", "--out", "o"], cli.EXIT_NO_INPUT)],
        ids=["ok", "findings", "usage", "no-input"],
    )
    def test_exit_code_of_a_run_that_ends_by_returning(self, argv, code, tmp_path):
        """run() freezes the heap between main() and sys.exit(); the code passes through."""
        (tmp_path / "a-file").write_text("", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "annorate", *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        )
        assert result.returncode == code, result.stderr

    def test_main_leaves_the_heap_unfrozen(self, tmp_path):
        """Only the console entry point freezes: library callers keep normal collection."""
        frozen = gc.get_freeze_count()
        assert cli.main(["score", *DEMO_CORPUS_ARGS, "--out", str(tmp_path)]) == cli.EXIT_OK
        assert gc.get_freeze_count() == frozen

    def test_python_dash_m_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "annorate", "score", "--corpus",
             str(tmp_path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert result.returncode == cli.EXIT_NO_INPUT
        result = subprocess.run(
            [sys.executable, "-m", "annorate", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "fetch" in result.stdout and "audit" in result.stdout


#: The package's public names, by the submodule that defines each. Today's
#: ``annorate.__all__`` is these names in sorted order.
PUBLIC_API = {
    "accession": ("AccessionKind", "AccessionRef", "Resolution", "classify_accession"),
    "audit": ("Irregularity", "IrregularityKind", "audit_corpus", "audit_entry"),
    "corpus": ("BoxplotStats", "CorpusStats", "Distribution", "EmptyCorpusError",
               "corpus_stats", "distribution"),
    "ingest": ("CorpusManifest", "ManifestEntry", "NetworkError", "fetch_corpus",
               "list_studies", "probe_accession"),
    "isatab": ("SCORED_TYPES", "AnnotationType", "MalformedFileError", "StudyMetadata",
               "TermSlot", "load_investigation", "parse_investigation"),
    "ontology": ("CycleDetectedError", "DepthMetrics", "EmptyOntologyError", "OntologyCatalog",
                 "OntologyGraph", "UnknownTermError", "load_obo"),
    "pipeline": ("AccessionResolver", "load_corpus", "process_study"),
    "scoring": ("DomainError", "EntryScore", "TypeScore", "log_transform", "score_entry",
                "type_tally"),
}


def run_fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter that imports this annorate."""
    import annorate

    src = str(Path(annorate.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestStartup:
    """Each process loads only the modules its work uses (each test starts a new one)."""

    def test_import_leaves_numpy_and_requests_unloaded(self):
        """score, stats and audit processes do not pay for unused imports.

        The result records are named tuples: ``dataclasses`` and the
        ``inspect`` it imports would cost more than a ``stats`` run's work.
        """
        unused = {"numpy", "requests", "dataclasses", "inspect"}
        out = run_fresh(f"import sys, annorate.cli; print(sorted({unused!r} & set(sys.modules)))")
        assert out.strip() == "[]"

    def test_stats_run_leaves_numpy_unloaded(self, tmp_path):
        """stats sums in pure Python: its process never imports numpy."""
        data = Path(__file__).resolve().parents[1] / "demos" / "data"
        assert run_cli(["score", "--corpus", str(data / "corpus"),
                        "--catalog", str(data / "ontologies" / "catalog.tsv"),
                        "--out", str(tmp_path)]) == cli.EXIT_OK
        argv = ["stats", "--scores", str(tmp_path / "scores.tsv"),
                "--out", str(tmp_path), "--log-base-check"]
        out = run_fresh(
            "import sys, annorate.cli; "
            f"code = annorate.cli.main({argv!r}); "
            "print(code, 'numpy' in sys.modules)"
        )
        assert out.splitlines()[-1] == "0 False"
        assert (tmp_path / "stats.tsv").is_file()

    def test_import_and_stats_leave_hashlib_unloaded(self, tmp_path):
        """Only loading an ontology hashes, for its graph cache key; stats loads none."""
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "\t".join(cli.SCORES_TSV_COLUMNS) + "\n"
            "MTBLS1\t4\t75.0000000\t80.7354922\t75.0000000\t80.7354922\n",
            encoding="utf-8",
        )
        argv = ["stats", "--scores", str(scores), "--out", str(tmp_path)]
        out = run_fresh(
            "import sys, annorate.cli; "
            "imported = 'hashlib' in sys.modules; "
            f"code = annorate.cli.main({argv!r}); "
            "print(imported, code, 'hashlib' in sys.modules)"
        )
        assert out.splitlines()[-1] == "False 0 False"

    def test_score_stats_and_audit_leave_ingest_unloaded(self, tmp_path):
        """Only fetch and --probe load the network code."""
        data = Path(__file__).resolve().parents[1] / "demos" / "data"
        corpus, catalog = str(data / "corpus"), str(data / "ontologies" / "catalog.tsv")
        runs = [
            ["score", "--corpus", corpus, "--catalog", catalog, "--out", str(tmp_path)],
            ["stats", "--scores", str(tmp_path / "scores.tsv"), "--out", str(tmp_path)],
            ["audit", "--corpus", corpus, "--catalog", catalog, "--out", str(tmp_path)],
        ]
        out = run_fresh(
            "import sys, annorate.cli; "
            f"codes = [annorate.cli.main(argv) for argv in {runs!r}]; "
            "print(codes, 'annorate.ingest' in sys.modules, 'dataclasses' in sys.modules)"
        )
        assert out.splitlines()[-1] == "[0, 0, 0] False False"

    def test_one_export_loads_only_its_submodule(self):
        """The benchmark's catalog set-up: annorate.ontology alone, and no dataclasses."""
        out = run_fresh(
            "import sys, annorate; annorate.OntologyCatalog; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'annorate'), "
            "'dataclasses' in sys.modules)"
        )
        assert out.strip() == "['annorate', 'annorate.ontology'] False"

    def test_star_import_binds_each_name_to_its_submodules_object(self):
        out = run_fresh(
            "import importlib\n"
            "namespace = {}\n"
            "exec('from annorate import *', namespace)\n"
            f"wrong = [name for module, names in {PUBLIC_API!r}.items() for name in names\n"
            "         if namespace[name] is not getattr(importlib.import_module('annorate.' + module), name)]\n"
            "print(wrong)"
        )
        assert out.strip() == "[]"

    def test_all_is_the_pinned_public_api(self):
        out = run_fresh("import annorate; print(annorate.__all__)")
        assert out.strip() == repr(sorted(name for names in PUBLIC_API.values() for name in names))

    def test_dir_lists_every_export_before_any_is_loaded(self):
        out = run_fresh("import annorate; print(sorted(set(annorate.__all__) - set(dir(annorate))))")
        assert out.strip() == "[]"

    def test_submodule_by_name_without_a_prior_import(self):
        out = run_fresh(
            "import sys, annorate; "
            "print(annorate.ingest is sys.modules['annorate.ingest'], "
            "annorate.ingest.fetch_corpus is annorate.fetch_corpus, "
            "annorate.ontology.load_obo is annorate.load_obo)"
        )
        assert out.strip() == "True True True"

    def test_unknown_name_raises_attribute_error(self):
        out = run_fresh(
            "import annorate\n"
            "try:\n"
            "    annorate.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert out.strip() == "module 'annorate' has no attribute 'no_such_name'"


GO_URL = "http://purl.obolibrary.org/obo/GO_0000001"


class TestRecords:
    """The parsed studies and the public result types are immutable named tuples."""

    @pytest.mark.parametrize(
        "record",
        [TermSlot("label", GO_URL),
         classify_accession(GO_URL),
         DepthMetrics(1, 2, 0.5),
         Irregularity("S", IrregularityKind.BROKEN_ACCESSION, "evidence"),
         TypeScore(1, 2, 0.5, 0.5, 0.25),
         EntryScore("S", {}, 50.0, 50.0, 58.5, 58.5, 1),
         CorpusStats(1, 50.0, 0.0, 50.0, 50.0, 0.0),
         BoxplotStats(0.0, 0.25, 0.5, 0.75, 1.0),
         ManifestEntry("S", "S/i_Investigation.txt", "http://h/S", "1970-01-01T00:00:00Z",
                       "0" * 64, "ok"),
         StudyMetadata("S", {}, "S/i_Investigation.txt", ["a warning"])],
        ids=lambda record: type(record).__name__,
    )
    def test_no_field_can_be_assigned(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_type_score_is_the_five_report_fields(self):
        assert TypeScore._fields == tuple(key for key, *_ in cli._TYPE_SCORE_FIELDS) == (
            "annotation_count", "term_count", "score_sum", "by_annotations", "by_terms"
        )
        base = TypeScore(1, 2, 0.5, 0.5, 0.25)
        for name in TypeScore._fields:
            other = base._replace(**{name: getattr(base, name) + 1})
            assert other != base and not other == base, name

    def test_load_investigation_builds_each_study_whole(self, tmp_path):
        """Each study of a file gets its path and its warnings, ahead of the block's own."""
        content = b"".join(
            b'STUDY\nStudy Identifier\t"%s"\nStudy Design Type\t"caf\xff"\nStudy Design Type\t"x"\n'
            % study_id for study_id in (b"A", b"B")
        )
        study_dir = os.path.join(os.fsencode(tmp_path), b"bad\xffname")  # a name that is not UTF-8
        os.mkdir(study_dir)
        path = os.fsdecode(os.path.join(study_dir, b"i_two.txt"))
        Path(path).write_bytes(content)
        first, second = load_investigation(path)
        for study, study_id in ((first, "A"), (second, "B")):
            assert study == StudyMetadata(
                study_id,
                {**{t: [] for t in AnnotationType},
                 AnnotationType.DESIGN: [TermSlot("caf\ufffd")]},
                path.replace("\udcff", "\ufffd"),
                ["invalid UTF-8 byte sequences replaced during decoding",
                 "duplicate field row 'Study Design Type' ignored (kept first)"],
            )
        assert first.warnings is not second.warnings
        assert StudyMetadata("A", {}).warnings == ()
        assert repr(StudyMetadata("A", {})) == (
            "StudyMetadata(study_id='A', slots={}, source_path='', warnings=())"
        )
