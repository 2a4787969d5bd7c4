"""Shared fixtures: investigation builders, synthetic ontologies, HTTP stubs."""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from annorate.isatab import ACCESSION_SUFFIX, SOURCE_REF_SUFFIX, TYPE_FIELDS, AnnotationType

DATA_DIR = Path(__file__).parent / "data"
REFERENCE_SCORES = DATA_DIR / "metabolights_global_scores.tsv"


@pytest.fixture(autouse=True)
def graph_cache(tmp_path_factory, monkeypatch):
    """An empty ontology graph cache of each test's own; returns its entry directory.

    No test reads an entry that another test wrote, and none writes to the
    user's own cache.
    """
    cache_home = tmp_path_factory.mktemp("cache-home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return cache_home / "annorate" / "graphs"


def quote_cells(cells):
    return "\t".join(f'"{c}"' for c in cells)


def investigation_text(study_id="", sections=None, include_study_header=False):
    """Build investigation content from {AnnotationType: (labels, accessions)}.

    Accession rows are written whenever a (possibly empty) accession list is
    given, preserving positional alignment; sources may be supplied as an
    optional third element.
    """
    lines = []
    if include_study_header:
        lines.append("STUDY")
    if study_id:
        lines.append(f'Study Identifier\t"{study_id}"')
    for annotation_type, columns in (sections or {}).items():
        labels, accessions = columns[0], columns[1]
        sources = columns[2] if len(columns) > 2 else None
        base = TYPE_FIELDS[annotation_type]
        lines.append(base + "\t" + quote_cells(labels))
        if accessions is not None:
            lines.append(base + ACCESSION_SUFFIX + "\t" + quote_cells(accessions))
        if sources is not None:
            lines.append(base + SOURCE_REF_SUFFIX + "\t" + quote_cells(sources))
    return "\n".join(lines) + "\n"


def chain_obo(ids):
    """OBO content for a linear is-a chain; ids[0] is the root."""
    stanzas = []
    for i, term_id in enumerate(ids):
        lines = ["[Term]", f"id: {term_id}"]
        if i > 0:
            lines.append(f"is_a: {ids[i - 1]} ! parent")
        stanzas.append("\n".join(lines))
    return "format-version: 1.2\n\n" + "\n\n".join(stanzas) + "\n"


def merge_obo(*contents):
    """Concatenate OBO documents into one (headers are ignored by the loader)."""
    return "\n\n".join(contents)


# --- reference study fixture -------------------------------------------------
#
# A study whose design annotations' specificities sum to 5.53 over 6
# annotations / 7 terms and whose assay annotations sum to 1.75 over 2/2,
# reproducing the reference worked example's aggregation arithmetic:
#   design:  1.0 + 1.0 + 0.78 + 1.0 + 0.75 + 1.0  (0.78 = depth 39 / branch 50)
#   assay:   0.75 + 1.0                            (0.75 = depth 3 / branch 4)

MTBLS95_DESIGN_LABELS = [
    "gas chromatography-mass spectrometry",
    "Pseudomonas syringae pv. tomato str. DC3000",
    "Arabidopsis",
    "type III protein secretion system complex",
    "MAPK phosphatase export from nucleus",
    "Metabolomics",
    "avrPto protein, Pseudomonas syringae",
]

MTBLS95_DESIGN_ACCESSIONS = [
    "http://purl.obolibrary.org/obo/CHMO_0000497",
    "http://purl.obolibrary.org/obo/NCBITaxon_223283",
    "http://purl.obolibrary.org/obo/NCBITaxon_3701",
    "http://purl.obolibrary.org/obo/GO_0030257",
    "http://purl.obolibrary.org/obo/GO_0045208",
    "http://purl.bioontology.org/ontology/MSH/C081695",
]

MTBLS95_ASSAY_LABELS = ["metabolite profiling", "mass spectrometry assay"]
MTBLS95_ASSAY_ACCESSIONS = [
    "http://purl.obolibrary.org/obo/OBI_0000470",
    "http://purl.obolibrary.org/obo/CHMO_0000575",
]

MTBLS95_FACTOR_LABELS = ["genotype", "sampling time"]
MTBLS95_PROTOCOL_LABELS = [
    "Sample collection",
    "Extraction",
    "Chromatography",
    "Mass spectrometry",
    "Data transformation",
    "Metabolite identification",
]


def mtbls95_investigation():
    return investigation_text(
        study_id="MTBLS95",
        sections={
            AnnotationType.DESIGN: (MTBLS95_DESIGN_LABELS, MTBLS95_DESIGN_ACCESSIONS),
            AnnotationType.FACTOR: (MTBLS95_FACTOR_LABELS, []),
            AnnotationType.ASSAY: (MTBLS95_ASSAY_LABELS, MTBLS95_ASSAY_ACCESSIONS),
            AnnotationType.PROTOCOL: (MTBLS95_PROTOCOL_LABELS, []),
        },
    )


def mtbls95_obo_files():
    """Per-prefix OBO contents whose term specificities match the fixture."""
    ncbi_chain = [f"NCBITaxon:{900000 + i}" for i in range(51)]
    ncbi_chain[0] = "NCBITaxon:1"
    ncbi_chain[39] = "NCBITaxon:3701"
    ncbitaxon = merge_obo(
        chain_obo(ncbi_chain),
        chain_obo(["NCBITaxon:1", "NCBITaxon:223283"]),
    )
    go = merge_obo(
        chain_obo(["GO:0008150", "GO:0000001", "GO:0000002", "GO:0045208", "GO:0000004"]),
        chain_obo(["GO:0008150", "GO:0030257"]),
    )
    chmo = merge_obo(
        chain_obo(["CHMO:0000000", "CHMO:0000497"]),
        chain_obo(["CHMO:0000000", "CHMO:0000575"]),
    )
    msh = chain_obo(["MSH:C000000", "MSH:C081695"])
    obi = chain_obo(["OBI:0000001", "OBI:0000011", "OBI:0000070", "OBI:0000470", "OBI:0000471"])
    return {"NCBITaxon": ncbitaxon, "GO": go, "CHMO": chmo, "MSH": msh, "OBI": obi}


def write_catalog(directory: Path, obo_files: dict[str, str]) -> Path:
    """Write OBO files plus a prefix->path catalog TSV; returns the catalog path."""
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for prefix, content in obo_files.items():
        obo_path = directory / f"{prefix.lower()}.obo"
        obo_path.write_text(content, encoding="utf-8")
        lines.append(f"{prefix}\t{obo_path.name}")
    catalog = directory / "catalog.tsv"
    catalog.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return catalog


@pytest.fixture
def mtbls95_catalog(tmp_path):
    return write_catalog(tmp_path / "ontologies", mtbls95_obo_files())


@pytest.fixture
def mtbls95_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "MTBLS95").mkdir(parents=True)
    (corpus / "MTBLS95" / "i_Investigation.txt").write_text(
        mtbls95_investigation(), encoding="utf-8"
    )
    return corpus


def read_reference_scores():
    """Rows of the bundled 94-study global score table."""
    rows = []
    lines = REFERENCE_SCORES.read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        sid, total, st, lt, sa, la = line.split("\t")
        rows.append((sid, int(total), float(st), float(lt), float(sa), float(la)))
    return rows


class _StubHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.server.request_log.append(self.path)
        self.server.request_headers.append(self.headers)
        route = self.server.routes.get(self.path)
        if isinstance(route, list):
            route = route.pop(0) if len(route) > 1 else route[0]
        if route is None:
            self.send_response(404)
            body = b"not found"
        else:
            status, body, *location = route
            self.send_response(status)
            if location:
                self.send_header("Location", location[0])
            if isinstance(body, str):
                body = body.encode("utf-8")
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class StubServer:
    """Tiny local HTTP server serving a path->(status, body) route table.

    A route may also map to a list of (status, body) responses, served one
    per request in order, the last one for every request after it. A
    response (status, body, location) also sends a ``Location`` header, so a
    route can redirect. Each request's path is logged in ``request_log`` and
    its headers in ``request_headers``.
    """

    def __init__(self, routes=None, latency=0.0):
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.routes = dict(routes or {})
        self._server.request_log = []
        self._server.request_headers = []
        if latency:
            inner = _StubHandler.do_GET

            def delayed(handler):
                import time

                time.sleep(latency)
                inner(handler)

            self._server.RequestHandlerClass = type(
                "DelayedHandler", (_StubHandler,), {"do_GET": delayed}
            )
        # a short poll interval, so that close() does not wait out serve_forever's 0.5 s default
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def base_url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def request_log(self):
        return self._server.request_log

    @property
    def request_headers(self):
        return self._server.request_headers

    def add_route(self, path, status, body):
        self._server.routes[path] = (status, body)

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_server():
    servers = []

    def make(routes=None, latency=0.0):
        server = StubServer(routes, latency=latency)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
