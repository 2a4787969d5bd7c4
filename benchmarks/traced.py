"""Traced run of one annorate subcommand, for the benchmark's per-layer metrics.

Usage: ``python3 traced.py TRACE_JSON SUBCOMMAND [ARGS...]``

Wraps the package's public functions at every module binding, then calls
``annorate.cli.main(argv)`` and writes the per-layer metrics and the
recorded spans to TRACE_JSON. Calls made once or a few times per run are
kept as spans (name, start, end, self time, parent); hot per-study and
per-slot calls are aggregated into a count, a total and a self time. A
layer's self time is its duration minus the time of its direct children,
which do not overlap: ``score`` maps studies with a one-worker thread pool
while the main thread waits.

A target that no longer exists stops the run with exit code 70 instead of
reporting 0 for it.
"""

import functools
import importlib
import json
import logging
import os
import sys
import threading
import time
from pathlib import Path

EXIT_MISSING_TARGET = 70

#: (module, qualified name, kind). ``root`` opens the subcommand span that
#: spans from pool workers, which inherit no parent, are attached to.
TARGETS = (
    ("annorate.cli", "cmd_score", "root"),
    ("annorate.cli", "cmd_stats", "root"),
    ("annorate.cli", "cmd_audit", "root"),
    ("annorate.pipeline", "load_corpus", "span"),
    ("annorate.ontology", "OntologyCatalog.from_file", "span"),
    ("annorate.ontology", "load_obo", "span"),
    ("annorate.ontology", "OntologyGraph.__init__", "span"),
    ("annorate.audit", "audit_corpus", "span"),
    ("annorate.corpus", "corpus_stats", "span"),
    ("annorate.corpus", "distribution", "span"),
    ("annorate.isatab", "load_investigation", "hot"),
    ("annorate.pipeline", "process_study", "hot"),
    ("annorate.scoring", "score_entry", "hot"),
    ("annorate.scoring", "type_tally", "hot"),
    ("annorate.pipeline", "annotation_details", "hot"),
    ("annorate.audit", "audit_entry", "hot"),
    ("annorate.accession", "classify_accession", "hot"),
    ("annorate.ontology", "OntologyCatalog.lookup", "hot"),
    ("annorate.pipeline", "AccessionResolver.resolution", "hot"),
)
#: Calls whose arguments and results the metrics need.
OBSERVED = {
    "load_corpus",
    "load_investigation",
    "OntologyCatalog.from_file",
    "AccessionResolver.resolution",
    "audit_corpus",
}


class MissingTarget(Exception):
    pass


def _rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = None
        self.spans: list[dict] = []
        self.calls: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.seen: dict[str, list] = {}  # name -> [(args, result)] for observed calls

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, kind: str, observe: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            frame = {"name": name, "child_s": 0.0}
            rss_before = _rss_bytes() if kind != "hot" else 0
            if kind == "root":
                tracer._root = frame
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if kind == "root":
                    tracer._root = None
                parent = stack[-1] if stack else tracer._root
                tracer._close(frame, kind, parent, start, end, rss_before)
                if observe:
                    tracer.seen.setdefault(name, []).append((args, result))

        return traced

    def _close(self, frame, kind, parent, start, end, rss_before) -> None:
        duration = end - start
        with self._lock:
            if parent is not None:
                parent["child_s"] += duration
            record = self.calls.setdefault(frame["name"], [0, 0.0, 0.0])
            record[0] += 1
            record[1] += duration
            record[2] += duration - frame["child_s"]
        if kind != "hot":
            self.spans.append(
                {
                    "name": frame["name"],
                    "parent": parent["name"] if parent else None,
                    "start": start,
                    "end": end,
                    "self_s": duration - frame["child_s"],
                    "rss_delta_mb": (_rss_bytes() - rss_before) / 2**20,
                }
            )

    def count(self, name: str) -> int:
        return self.calls.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.calls.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.calls.get(name, [0, 0.0, 0.0])[2]


def install(tracer: Tracer) -> None:
    """Replace every target at every binding in the loaded annorate modules."""
    importlib.import_module("annorate.cli")
    modules = [m for n, m in sys.modules.items() if n == "annorate" or n.startswith("annorate.")]
    for module_name, qualname, kind in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError) as exc:
            raise MissingTarget(f"{module_name}:{qualname}: {exc!r}") from exc
        observe = qualname in OBSERVED
        if path:  # a method: the class object is shared by every module
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, qualname, kind, observe))
            else:
                wrapped = tracer.wrap(original, qualname, kind, observe)
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(original, qualname, kind, observe)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapped)


def layer_metrics(tracer: Tracer, command: str, out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one subcommand, named without the command prefix."""
    t, n, own = tracer.total, tracer.count, tracer.self_time
    seen = tracer.seen
    metrics: dict[str, float] = {}
    if command in ("score", "audit"):
        ((from_file_args, catalog),) = seen["OntologyCatalog.from_file"]
        ((_, (studies, failures)),) = seen["load_corpus"]
        (catalog_span,) = [s for s in tracer.spans if s["name"] == "OntologyCatalog.from_file"]
        slots = [slot for s in studies for typed in s.slots.values() for slot in typed]
        classify_calls = n("classify_accession")
        metrics.update(
            {
                "ontology.catalog_load_s": t("OntologyCatalog.from_file"),
                "ontology.load_obo_s": t("load_obo"),
                "ontology.graph_build_s": t("OntologyGraph.__init__"),
                "ontology.obo_parse_self_s": own("load_obo"),
                "ontology.catalog_rss_mb": catalog_span["rss_delta_mb"],
                "ontology.terms": sum(len(catalog.get(p)) for p in catalog.prefixes),
                "ontology.obo_bytes": _catalog_obo_bytes(from_file_args[-1]),
                "ontology.lookup_calls": n("OntologyCatalog.lookup"),
                "ontology.lookup_s": t("OntologyCatalog.lookup"),
                "isatab.load_s": t("load_investigation"),
                "isatab.files": n("load_investigation"),
                "isatab.studies": len(studies),
                "isatab.slots": len(slots),
                "isatab.bytes": sum(
                    os.path.getsize(args[0]) for args, _ in seen["load_investigation"]
                ),
                "pipeline.load_corpus_s": t("load_corpus"),
                "pipeline.files_skipped": len(failures),
                "accession.classify_calls": classify_calls,
                "accession.classify_s": t("classify_accession"),
                "accession.classify_useful_ratio": (
                    sum(1 for slot in slots if slot.accession) / classify_calls
                    if classify_calls
                    else 0.0
                ),
                "pipeline.resolution_calls": n("AccessionResolver.resolution"),
                "pipeline.resolution_distinct": len(
                    {args[1].raw for args, _ in seen.get("AccessionResolver.resolution", [])}
                ),
                "audit.entry_s": t("audit_entry"),
            }
        )
    if command == "score":
        metrics.update(
            {
                "pipeline.process_study_s": t("process_study"),
                "scoring.score_entry_s": t("score_entry"),
                "scoring.type_tally_calls": n("type_tally"),
                "pipeline.annotation_details_s": t("annotation_details"),
                "audit.entry_calls_in_score": n("audit_entry"),
                "cli.score_self_s": own("cmd_score"),
                "cli.scores_json_bytes": (out_dir / "scores.json").stat().st_size,
            }
        )
    elif command == "stats":
        metrics.update(
            {
                "corpus.stats_s": t("corpus_stats") + t("distribution"),
                "cli.stats_self_s": own("cmd_stats"),
            }
        )
    elif command == "audit":
        audit_json = out_dir / "audit.json"
        ((_, near_dups),) = seen["audit_corpus"]
        metrics.update(
            {
                "audit.corpus_s": t("audit_corpus"),
                "audit.findings": len(json.loads(audit_json.read_text(encoding="utf-8"))),
                "audit.near_dup_findings": len(near_dups),
                "cli.audit_self_s": own("cmd_audit"),
                "cli.audit_json_bytes": audit_json.stat().st_size,
            }
        )
    return metrics


def _catalog_obo_bytes(catalog_path) -> int:
    """Bytes of the OBO files a catalog names that exist."""
    catalog_path = Path(catalog_path)
    total = 0
    for line in catalog_path.read_text(encoding="utf-8").splitlines():
        _, _, ref = line.partition("\t")
        path = catalog_path.parent / ref.strip()
        if ref.strip() and path.is_file():
            total += path.stat().st_size
    return total


def main(argv: list[str]) -> int:
    trace_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    try:
        install(tracer)
    except MissingTarget as exc:
        print(f"trace target no longer exists: {exc}", file=sys.stderr)
        return EXIT_MISSING_TARGET
    from annorate import cli

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    code = cli.main(cli_argv)
    args = cli.build_parser().parse_args(cli_argv)
    report = {
        "exit_code": code,
        "metrics": layer_metrics(tracer, args.command, args.out) if code == 0 else {},
        "calls": tracer.calls,
        "spans": tracer.spans,
    }
    trace_path.write_text(json.dumps(report) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
