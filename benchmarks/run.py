"""annorate batch benchmark: score -> stats -> audit on seeded, generated inputs.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload corpus-heavy --seed 7 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all

The benchmark generates one workload's inputs from the seed, then runs a
closed loop with one client for ``--seconds`` seconds: each repetition
measures a cold catalog set-up and then runs ``annorate score``, ``stats``
and ``audit`` in sequence, each as a fresh child process with default
flags. It checks every repetition's outputs and prints the medians. With
``--trace 1`` it alternates untraced repetitions with traced ones (see
``traced.py``) and prints per-layer metrics instead.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_outputs, digests
from generate import WORKLOADS, generate
from traced import EXIT_MISSING_TARGET

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
PINNED_DIGESTS = BENCH_DIR / "pinned_digests.json"
#: A run must end within 180 s; no child may start a wait past this.
RUN_LIMIT_S = 170.0
CHILD_TIMEOUT_S = 150.0
MB = 1024.0  # ru_maxrss is in KiB on Linux

END_TO_END = {
    "setup_s": "s",
    "score_s": "s",
    "stats_s": "s",
    "audit_s": "s",
    "score_peak_rss_mb": "MB",
    "stats_peak_rss_mb": "MB",
    "audit_peak_rss_mb": "MB",
    "success_rate": "fraction",
}
COMMANDS = ("score", "stats", "audit")
_LOAD_LAYERS = {
    "ontology.catalog_load_s": "s",
    "ontology.load_obo_s": "s",
    "ontology.graph_build_s": "s",
    "ontology.obo_parse_self_s": "s",
    "ontology.catalog_rss_mb": "MB",
    "ontology.terms": "count",
    "ontology.obo_bytes": "bytes",
    "ontology.lookup_calls": "count",
    "ontology.lookup_s": "s",
    "isatab.load_s": "s",
    "isatab.files": "count",
    "isatab.studies": "count",
    "isatab.slots": "count",
    "isatab.bytes": "bytes",
    "pipeline.load_corpus_s": "s",
    "pipeline.files_skipped": "count",
    "accession.classify_calls": "count",
    "accession.classify_s": "s",
    "accession.classify_useful_ratio": "ratio",
    "pipeline.resolution_calls": "count",
    "pipeline.resolution_distinct": "count",
    "audit.entry_s": "s",
}
#: Per-layer metrics each traced subcommand reports, before the command prefix.
LAYERS = {
    "score": {
        **_LOAD_LAYERS,
        "pipeline.process_study_s": "s",
        "scoring.score_entry_s": "s",
        "scoring.type_tally_calls": "count",
        "pipeline.annotation_details_s": "s",
        "audit.entry_calls_in_score": "count",
        "cli.score_self_s": "s",
        "cli.scores_json_bytes": "bytes",
    },
    "stats": {"corpus.stats_s": "s", "cli.stats_self_s": "s"},
    "audit": {
        **_LOAD_LAYERS,
        "audit.corpus_s": "s",
        "audit.findings": "count",
        "audit.near_dup_findings": "count",
        "cli.audit_self_s": "s",
        "cli.audit_json_bytes": "bytes",
    },
}
PER_LAYER = {
    **{f"{cmd}.{name}": unit for cmd, layers in LAYERS.items() for name, unit in layers.items()},
    **{f"{cmd}.trace.overhead_frac": "fraction" for cmd in COMMANDS},
    "trace.overhead_frac": "fraction",
}
SETUP_CODE = (
    "import sys, annorate\n"
    "catalog = annorate.OntologyCatalog.from_file(sys.argv[1])\n"
    "print(','.join(sorted(catalog.prefixes)))\n"
)


class BenchmarkError(Exception):
    """A traced function no longer exists, so its layer cannot be measured."""


@dataclass
class Invocation:
    code: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


@dataclass
class Samples:
    walls: dict = field(default_factory=lambda: {c: [] for c in COMMANDS})
    rss: dict = field(default_factory=lambda: {c: [] for c in COMMANDS})
    traced_walls: dict = field(default_factory=lambda: {c: [] for c in COMMANDS})
    layers: dict = field(default_factory=dict)  # metric -> [values]
    setup: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.work = work
        # the last traced repetition's spans and call totals outlive the run
        self.trace_prefix = work.parent / f"trace-{workload}"
        self.inputs = work / "inputs"
        self.started = time.monotonic()
        tmp = work / "tmp"
        tmp.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp))
        self.env.pop("PYTHONSTARTUP", None)
        self.truth = generate(workload, seed, self.inputs)
        self.samples = Samples()
        self.reference: dict[str, str] | None = None
        pinned = json.loads(PINNED_DIGESTS.read_text()) if PINNED_DIGESTS.is_file() else {}
        self.pinned = pinned.get(workload) if seed == DEFAULT_SEED else None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def invoke(self, argv: list[str], cwd: Path, env: dict | None = None) -> Invocation:
        """Run one child; its peak RSS comes from ``wait4`` on its own pid."""
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.remaining()))
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env or self.env, stdout=out, stderr=err)
            expired = threading.Event()

            def kill():
                expired.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Invocation(
                code=proc.returncode,
                wall_s=wall,
                peak_rss_mb=usage.ru_maxrss / MB,
                timed_out=expired.is_set(),
                stdout=out.read().decode("utf-8", "replace"),
                stderr=err.read().decode("utf-8", "replace"),
            )

    def _record(self, label: str, inv: Invocation) -> bool:
        if inv.code == 0 and not inv.timed_out:
            return True
        why = "timed out" if inv.timed_out else f"exit code {inv.code}"
        tail = inv.stderr.strip().splitlines()[-3:]
        self.samples.problems.append(f"{label}: {why}: {' | '.join(tail)}")
        return False

    def setup(self) -> None:
        """Cold set-up: fresh interpreter, fresh catalog copy, empty HOME and caches."""
        fresh = Path(tempfile.mkdtemp(dir=self.work, prefix="setup-"))
        try:
            shutil.copytree(self.inputs / "ontologies", fresh / "ontologies")
            empty = fresh / "empty"
            empty.mkdir()
            env = dict(self.env, HOME=str(empty), XDG_CACHE_HOME=str(empty), TMPDIR=str(empty))
            argv = [sys.executable, "-c", SETUP_CODE, "ontologies/catalog.tsv"]
            inv = self.invoke(argv, fresh, env)
        finally:
            shutil.rmtree(fresh)
        if self._record("setup", inv):
            if inv.stdout.strip() != ",".join(self.truth["catalog_prefixes"]):
                self.samples.problems.append(f"setup loaded prefixes {inv.stdout.strip()!r}")
            self.samples.setup.append(inv.wall_s)

    def commands(self) -> dict[str, list[str]]:
        catalog = ["--catalog", "ontologies/catalog.tsv"]
        return {
            "score": ["score", "--corpus", "corpus", *catalog, "--out", "out"],
            "stats": ["stats", "--scores", "out/scores.tsv", "--out", "out"],
            "audit": ["audit", "--corpus", "corpus", *catalog, "--out", "out"],
        }

    def repetition(self, traced: bool) -> None:
        """score -> stats -> audit, then check the outputs."""
        out = self.inputs / "out"
        shutil.rmtree(out, ignore_errors=True)
        for command, args in self.commands().items():
            if traced:
                trace_json = Path(f"{self.trace_prefix}-{command}.json")
                argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_json), *args]
            else:
                argv = [sys.executable, "-m", "annorate", *args]
            inv = self.invoke(argv, self.inputs)
            self.samples.attempted += 1
            if traced and inv.code == EXIT_MISSING_TARGET:
                raise BenchmarkError(inv.stderr.strip())
            if not self._record(command, inv):
                self.samples.failed += 1
                continue
            if traced:
                self.samples.traced_walls[command].append(inv.wall_s)
                report = json.loads(trace_json.read_text(encoding="utf-8"))
                for name, value in report["metrics"].items():
                    self.samples.layers.setdefault(f"{command}.{name}", []).append(value)
            else:
                self.samples.walls[command].append(inv.wall_s)
                self.samples.rss[command].append(inv.peak_rss_mb)
        self._check(out, "traced" if traced else "untraced")

    def _check(self, out: Path, label: str) -> None:
        problems = [f"{label}: {p}" for p in check_outputs(out, self.truth)]
        found = digests(out)
        if self.reference is None:
            self.reference = found
            if self.pinned is not None and found != self.pinned:
                changed = sorted(k for k in self.pinned if found.get(k) != self.pinned[k])
                problems.append(f"outputs differ from the pinned digests: {', '.join(changed)}")
        elif found != self.reference:
            changed = sorted(k for k in self.reference if found.get(k) != self.reference[k])
            problems.append(f"{label}: outputs differ from the first repetition: {', '.join(changed)}")
        self.samples.problems.extend(problems)

    def run(self, seconds: float, trace: bool) -> None:
        self.invoke([sys.executable, "-c", "import annorate"], self.inputs)  # warm the caches
        measure_start = time.monotonic()
        reps = 0
        while True:
            if not trace:
                self.setup()
            self.repetition(traced=False)
            if trace:
                self.repetition(traced=True)
            reps += 1
            elapsed = time.monotonic() - measure_start
            # stop before a repetition that would overrun the measuring time
            if elapsed + elapsed / reps > seconds or self.samples.problems:
                break

    def end_to_end_samples(self) -> dict[str, list]:
        s = self.samples
        return {
            "setup_s": s.setup,
            **{f"{c}_s": s.walls[c] for c in COMMANDS},
            **{f"{c}_peak_rss_mb": s.rss[c] for c in COMMANDS},
        }

    def result(self, trace: bool) -> dict:
        s = self.samples
        med = {}  # medians of every non-empty sample list, by metric name
        for name, values in (
            *self.end_to_end_samples().items(),
            *((f"{c}.traced_s", s.traced_walls[c]) for c in COMMANDS),
            *s.layers.items(),
        ):
            if values:
                med[name] = statistics.median(values)
        if trace:
            units = PER_LAYER
            values = {name: med[name] for name in s.layers}
            traced = [med.get(f"{c}.traced_s") for c in COMMANDS]
            untraced = [med.get(f"{c}_s") for c in COMMANDS]
            if all(traced) and all(untraced):
                for command, t, u in zip(COMMANDS, traced, untraced):
                    values[f"{command}.trace.overhead_frac"] = t / u - 1.0
                values["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        else:
            units = END_TO_END
            values = {name: med[name] for name in units if name in med}
            values["success_rate"] = 1.0 - s.failed / max(s.attempted, 1)
        missing = sorted(set(units) - set(values))
        if missing:
            s.problems.append(f"metrics not measured: {', '.join(missing)}")
        return {
            "correct": not s.problems and s.failed == 0,
            "attempted": s.attempted,
            "failed": s.failed,
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
            },
        }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root, prefix=f"{workload}-{seed}-"))
    try:
        bench = Bench(root, workload, seed, work)
        bench.run(seconds, trace)
        result = bench.result(trace)
        for problem in bench.samples.problems:
            print(f"PROBLEM {workload}: {problem}", file=sys.stderr)
        if trace:
            _print_shares(workload, bench)
        else:
            _print_samples(workload, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result


def _print_shares(workload: str, bench: Bench) -> None:
    """The traced shares that confirm each workload's design, on stderr."""
    s = bench.samples
    layers = {name: statistics.median(v) for name, v in s.layers.items()}
    walls = {c: statistics.median(s.walls[c]) for c in COMMANDS if s.walls[c]}
    if not walls.get("score") or not walls.get("audit"):
        return
    print(
        f"shares {workload}: catalog_load/score_s="
        f"{layers.get('score.ontology.catalog_load_s', 0) / walls['score']:.3f}"
        f" audit.corpus/audit_s={layers.get('audit.audit.corpus_s', 0) / walls['audit']:.3f}",
        file=sys.stderr,
    )


def _print_samples(workload: str, bench: Bench) -> None:
    """Sample count and range of each end-to-end metric's repetitions."""
    print(f"-- {workload}: repetitions behind each median (n, min, max)")
    for name, values in bench.end_to_end_samples().items():
        if values:
            print(f"  {name:<24} n={len(values):<3} min={min(values):.6f} max={max(values):.6f}")


def _print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6f} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "annorate" / "cli.py").is_file():
        print("benchmark: run from a checkout root with src/annorate", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
            _print_table(workload, results[workload])
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
