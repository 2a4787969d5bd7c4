"""Corpus acquisition against a local stub HTTP server."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import annorate
from annorate import ingest
from annorate._files import replace_file
from annorate.accession import Resolution, classify_accession
from annorate.ingest import (
    MANIFEST_COLUMNS,
    NetworkError,
    fetch_corpus,
    list_studies,
    probe_accession,
)

INVESTIGATION_BODY = 'Study Identifier\t"{sid}"\nStudy Design Type\t"x"\n'


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(ingest, "BACKOFF_S", 0)


class TestListStudies:
    def test_local_file_dedup_and_sort(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("MTBLS95\nMTBLS1\nMTBLS95\n", encoding="utf-8")
        assert list_studies(ids_file=ids_file) == ["MTBLS1", "MTBLS95"]

    def test_empty_listing(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("", encoding="utf-8")
        assert list_studies(ids_file=ids_file) == []

    def test_pattern_filters_noise(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("junk MTBLS7 other\nnot-an-id\nMTBLS8\n", encoding="utf-8")
        assert list_studies(ids_file=ids_file) == ["MTBLS7", "MTBLS8"]

    def test_http_listing(self, stub_server):
        server = stub_server({"/": (200, "MTBLS3 MTBLS1\nMTBLS2")})
        ids = list_studies(base_url=server.base_url + "/")
        assert ids == ["MTBLS1", "MTBLS2", "MTBLS3"]

    def test_requires_a_source(self):
        with pytest.raises(ValueError):
            list_studies()

    def test_network_error_after_retries(self, stub_server):
        server = stub_server({"/boom": (500, "oops")})
        with pytest.raises(NetworkError):
            list_studies(base_url=server.base_url + "/boom")
        assert server.request_log == ["/boom"] * (ingest.RETRIES + 1)

    def test_too_many_requests_is_retried(self, stub_server):
        server = stub_server({"/": [(429, "slow down"), (200, "MTBLS1")]})
        assert list_studies(base_url=server.base_url + "/") == ["MTBLS1"]
        assert server.request_log == ["/", "/"]

    def test_not_found_is_not_retried(self, stub_server):
        server = stub_server({"/": [(404, "gone"), (200, "MTBLS1")]})
        with pytest.raises(NetworkError, match="404"):
            list_studies(base_url=server.base_url + "/")
        assert server.request_log == ["/"]


class TestFetchCorpus:
    def test_mixed_success_and_failure(self, stub_server, tmp_path):
        server = stub_server(
            {"/MTBLS1/i_Investigation.txt": (200, INVESTIGATION_BODY.format(sid="MTBLS1"))}
        )
        manifest = fetch_corpus(
            ["MTBLS1", "MTBLS404"], tmp_path / "corpus",
            base_url=server.base_url,
        )
        by_id = {e.study_id: e for e in manifest.entries}
        assert by_id["MTBLS1"].status == "ok"
        assert by_id["MTBLS404"].status == "fetch_failed"
        assert manifest.fetched_count == 1
        assert (tmp_path / "corpus" / "MTBLS1" / "i_Investigation.txt").exists()
        assert not (tmp_path / "corpus" / "MTBLS404" / "i_Investigation.txt").exists()

    def test_manifest_file_round_trip(self, stub_server, tmp_path):
        server = stub_server(
            {"/MTBLS1/i_Investigation.txt": (200, INVESTIGATION_BODY.format(sid="MTBLS1"))}
        )
        fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        header, row = (tmp_path / "c" / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        assert tuple(header.split("\t")) == MANIFEST_COLUMNS
        cells = dict(zip(MANIFEST_COLUMNS, row.split("\t"), strict=True))
        assert cells["study_id"] == "MTBLS1"
        assert cells["path"] == "MTBLS1/i_Investigation.txt"
        assert re.fullmatch(r"[0-9a-f]{64}", cells["sha256"])
        assert cells["status"] == "ok"

    def test_cache_skips_redownload(self, stub_server, tmp_path):
        body = INVESTIGATION_BODY.format(sid="MTBLS1")
        server = stub_server({"/MTBLS1/i_Investigation.txt": (200, body)})
        first = fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        requests_before = len(server.request_log)
        second = fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        assert len(server.request_log) == requests_before
        assert second.entries[0].status == "cached"
        assert second.entries[0].sha256 == first.entries[0].sha256

    def test_no_cache_refetches(self, stub_server, tmp_path):
        body = INVESTIGATION_BODY.format(sid="MTBLS1")
        server = stub_server({"/MTBLS1/i_Investigation.txt": (200, body)})
        fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        before = len(server.request_log)
        fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url,
                     cache=False)
        assert len(server.request_log) == before + 1

    def test_no_cache_records_a_blocked_study_as_failed(self, stub_server, tmp_path, caplog):
        server = stub_server(
            {f"/{sid}/i_Investigation.txt": (200, INVESTIGATION_BODY.format(sid=sid))
             for sid in ("MTBLS1", "MTBLS2")}
        )
        blocked = tmp_path / "c" / "MTBLS1" / "i_Investigation.txt"
        blocked.mkdir(parents=True)
        manifest = fetch_corpus(["MTBLS1", "MTBLS2"], tmp_path / "c",
                                base_url=server.base_url, cache=False)
        assert [(e.study_id, e.status) for e in manifest.entries] == [
            ("MTBLS1", "fetch_failed"), ("MTBLS2", "ok"),
        ]
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and str(blocked) in warnings[0]
        assert blocked.is_dir()

    def test_manifest_appends_across_runs(self, stub_server, tmp_path):
        body = INVESTIGATION_BODY.format(sid="MTBLS1")
        server = stub_server({"/MTBLS1/i_Investigation.txt": (200, body)})
        fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        lines = (tmp_path / "c" / "manifest.tsv").read_text().splitlines()
        assert len(lines) == 3  # header + two runs

    def test_failed_write_leaves_no_target(self, stub_server, tmp_path, monkeypatch):
        body = INVESTIGATION_BODY.format(sid="MTBLS1")
        server = stub_server({"/MTBLS1/i_Investigation.txt": (200, body)})
        dest = tmp_path / "c"

        def write_half_then_fail(path, chunks, *args, **kwargs):
            data = b"".join(chunks)

            def half_then_fail():
                yield data[: len(data) // 2]
                (partial,) = path.parent.iterdir()  # the write is under way beside the target
                assert re.fullmatch(r"\.i_Investigation\.txt\.[0-9a-f]{16}\.part", partial.name)
                raise OSError("disk full")

            replace_file(path, half_then_fail(), *args, **kwargs)

        monkeypatch.setattr(ingest, "replace_file", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            fetch_corpus(["MTBLS1"], dest, base_url=server.base_url)
        monkeypatch.undo()
        assert list((dest / "MTBLS1").iterdir()) == []

        manifest = fetch_corpus(["MTBLS1"], dest, base_url=server.base_url)
        assert manifest.entries[0].status == "ok"
        assert (dest / "MTBLS1" / "i_Investigation.txt").read_text(encoding="utf-8") == body

    def test_bounded_concurrency_beats_sequential(self, stub_server, tmp_path):
        latency = 0.03
        ids = [f"MTBLS{i}" for i in range(12)]
        routes = {
            f"/{sid}/i_Investigation.txt": (200, INVESTIGATION_BODY.format(sid=sid))
            for sid in ids
        }
        server = stub_server(routes, latency=latency)

        start = time.monotonic()
        fetch_corpus(ids, tmp_path / "seq", base_url=server.base_url,
                     concurrency=1)
        sequential = time.monotonic() - start

        start = time.monotonic()
        fetch_corpus(ids, tmp_path / "par", base_url=server.base_url,
                     concurrency=4)
        parallel = time.monotonic() - start
        assert parallel < sequential

    def test_zero_workers_is_rejected_before_any_request(self, stub_server, tmp_path):
        body = INVESTIGATION_BODY.format(sid="MTBLS1")
        server = stub_server({"/MTBLS1/i_Investigation.txt": (200, body)})
        with pytest.raises(ValueError):
            fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url, concurrency=0)
        assert server.request_log == []
        assert not (tmp_path / "c").exists()

    def test_retries_transient_server_errors(self, stub_server, tmp_path):
        # stub always 500s; the retry budget is exercised, then recorded as failure
        server = stub_server({"/MTBLS1/i_Investigation.txt": (500, "boom")})
        manifest = fetch_corpus(["MTBLS1"], tmp_path / "c", base_url=server.base_url)
        assert manifest.entries[0].status == "fetch_failed"
        assert len(server.request_log) == ingest.RETRIES + 1

    def test_verify_flags_stale_entries(self, stub_server, tmp_path):
        body = INVESTIGATION_BODY.format(sid="MTBLS1")
        server = stub_server({"/MTBLS1/i_Investigation.txt": (200, body)})
        dest = tmp_path / "c"
        manifest = fetch_corpus(["MTBLS1"], dest, base_url=server.base_url)
        assert manifest.verify(dest) == []
        (dest / "MTBLS1" / "i_Investigation.txt").write_text("tampered", encoding="utf-8")
        stale = manifest.verify(dest)
        assert [e.study_id for e in stale] == ["MTBLS1"]
        (dest / "MTBLS1" / "i_Investigation.txt").unlink()
        assert [e.study_id for e in manifest.verify(dest)] == ["MTBLS1"]


class TestProbeAccession:
    REF = classify_accession("http://purl.obolibrary.org/obo/GO_0030257")

    def probe(self, server, path):
        ref = classify_accession(server.base_url + path)
        # the stub URL is not a recognized PURL shape, so classify the real
        # shape and point requests at the stub by rebuilding the ref
        return probe_accession(
            type(self.REF)(
                raw=server.base_url + path,
                kind=self.REF.kind,
                ontology_prefix="GO",
                local_id="0030257",
            ),
        )

    def test_ok_term_page(self, stub_server):
        server = stub_server({"/term": (200, "<html>a term page</html>")})
        assert self.probe(server, "/term") is Resolution.RESOLVED

    def test_error_signature_in_ok_body(self, stub_server):
        server = stub_server(
            {"/term": (200, "<error>Ontology not specified or not supported</error>")}
        )
        assert self.probe(server, "/term") is Resolution.BROKEN

    def test_second_signature(self, stub_server):
        server = stub_server(
            {"/term": (200, "The page you are looking for wasn't found. Please try again.")}
        )
        assert self.probe(server, "/term") is Resolution.BROKEN

    def test_404_is_broken(self, stub_server):
        server = stub_server({})
        assert self.probe(server, "/missing") is Resolution.BROKEN
        assert server.request_log == ["/missing"]

    @pytest.mark.parametrize("status", [301, 302, 303, 307])
    def test_redirect_to_a_term_page_resolves(self, stub_server, status):
        """A PURL answers with a redirect to the term page it names."""
        server = stub_server({
            "/purl": (status, "", "/term"),
            "/term": (200, "<html>a term page</html>"),
        })
        assert self.probe(server, "/purl") is Resolution.RESOLVED
        assert server.request_log == ["/purl", "/term"]

    def test_redirect_to_a_missing_page_is_broken(self, stub_server):
        server = stub_server({"/purl": (302, "", "/missing")})
        assert self.probe(server, "/purl") is Resolution.BROKEN
        assert server.request_log == ["/purl", "/missing"]

    def test_unfollowed_redirect_is_broken_at_once(self, stub_server):
        """A final 3xx that is not followed fails as a 4xx does, without a retry."""
        server = stub_server({
            "/purl": (300, "multiple choices", "/term"),
            "/term": (200, "<html>a term page</html>"),
        })
        assert self.probe(server, "/purl") is Resolution.BROKEN
        assert server.request_log == ["/purl"]

    def test_transient_503_is_retried_then_resolves(self, stub_server):
        server = stub_server({"/term": [(503, "busy"), (200, "<html>a term page</html>")]})
        assert self.probe(server, "/term") is Resolution.RESOLVED
        assert server.request_log == ["/term", "/term"]

    def test_persistent_500_is_broken_after_every_retry(self, stub_server):
        server = stub_server({"/term": (500, "boom")})
        assert self.probe(server, "/term") is Resolution.BROKEN
        assert server.request_log == ["/term"] * (ingest.RETRIES + 1)

    def test_network_failure_is_broken(self):
        ref = type(self.REF)(
            raw="http://127.0.0.1:1/unreachable",
            kind=self.REF.kind,
            ontology_prefix="GO",
            local_id="0030257",
        )
        assert probe_accession(ref) is Resolution.BROKEN

    def test_rejects_non_scorable(self):
        ref = classify_accession("http://example.org/x")
        with pytest.raises(ValueError):
            probe_accession(ref)


class TestRequestPath:
    """What every listing, download and probe request has in common."""

    def test_sends_the_package_user_agent(self, stub_server):
        server = stub_server({"/": (200, "MTBLS1")})
        list_studies(base_url=server.base_url + "/")
        assert server.request_headers[0]["User-Agent"] == f"annorate/{annorate.__version__}"

    @pytest.mark.parametrize("url", [
        pytest.param("file://{ids}", id="file-url"),
        pytest.param("{base}/a\x01b", id="control-character"),
        pytest.param("{base}/\u00e9", id="non-ascii"),
        pytest.param("http://127.0.0.1:port/", id="bad-port"),
    ])
    def test_a_url_that_cannot_be_requested_fails_at_once(
        self, url, stub_server, tmp_path, monkeypatch
    ):
        ids = tmp_path / "ids.txt"
        ids.write_text("MTBLS1\n", encoding="utf-8")
        server = stub_server({})
        sleeps = []
        monkeypatch.setattr(ingest.time, "sleep", sleeps.append)
        with pytest.raises(NetworkError, match="cannot request"):
            list_studies(base_url=url.format(base=server.base_url, ids=ids))
        assert server.request_log == []
        assert sleeps == []  # no retry

    def test_fetch_and_probe_need_no_third_party_package(self, stub_server, tmp_path):
        """A new interpreter that cannot import requests fetches and probes."""
        server = stub_server({
            "/MTBLS1/i_Investigation.txt": (200, INVESTIGATION_BODY.format(sid="MTBLS1")),
            "/term": (200, "<html>a term page</html>"),
        })
        ids = tmp_path / "ids.txt"
        ids.write_text("MTBLS1\n", encoding="utf-8")
        out = tmp_path / "corpus"
        code = f"""
import sys
sys.modules["requests"] = None
from annorate import cli, ingest
from annorate.accession import AccessionKind, AccessionRef
argv = ["fetch", "--ids", {str(ids)!r}, "--base-url", {server.base_url!r}, "--out", {str(out)!r}]
print(cli.main(argv))
ref = AccessionRef({server.base_url + "/term"!r}, AccessionKind.OBO_PURL, "GO", "0030257")
print(ingest.probe_accession(ref).value)
"""
        src = str(Path(annorate.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["0", Resolution.RESOLVED.value]
        assert (out / "MTBLS1" / "i_Investigation.txt").read_text(encoding="utf-8") == (
            INVESTIGATION_BODY.format(sid="MTBLS1")
        )
        assert server.request_log == ["/MTBLS1/i_Investigation.txt", "/term"]
