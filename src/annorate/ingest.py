"""Corpus acquisition: study listing, investigation download, liveness probing.

Everything here is offline-substitutable: study ids can come from a local
file instead of the repository listing, downloads land in a plain directory
that the scoring pipeline reads directly, and probing is optional (with
probing off, resolution outcomes derive solely from the ontology catalog).

Downloads run through a bounded worker pool with per-request timeouts and
exponential-backoff retries of network errors, HTTP 5xx and HTTP 429 (other
4xx statuses are permanent); one failing study never aborts the batch. The
manifest is an append-only TSV (``study_id path url fetched_at sha256
status``) written next to the downloaded files.
"""

import hashlib
import logging
import os
import re
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from .accession import AccessionRef, Resolution

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://www.ebi.ac.uk/metabolights/ws/studies"
STUDY_ID_PATTERN = r"MTBLS\d+"
INVESTIGATION_FILENAME = "i_Investigation.txt"

#: Body fragments that mark a nominally successful response as a broken term page.
DEFAULT_BROKEN_SIGNATURES = (
    "<error>Ontology not specified or not supported</error>",
    "The page you are looking for wasn't found.",
)

MANIFEST_FILENAME = "manifest.tsv"
MANIFEST_COLUMNS = ("study_id", "path", "url", "fetched_at", "sha256", "status")

STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "fetch_failed"


class NetworkError(Exception):
    """A request failed after exhausting its retries."""


class ListingParseError(Exception):
    """The study listing response could not be interpreted."""


@dataclass(frozen=True)
class ManifestEntry:
    study_id: str
    path: str
    url: str
    fetched_at: str
    sha256: str
    status: str

    @property
    def fetched(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]

    @property
    def fetched_count(self) -> int:
        return sum(1 for e in self.entries if e.fetched)

    def write(self, dest_dir: str | Path) -> Path:
        """Append this manifest's rows to ``manifest.tsv`` under ``dest_dir``."""
        path = Path(dest_dir) / MANIFEST_FILENAME
        is_new = not path.exists()
        with open(path, "a", encoding="utf-8", newline="\n") as f:
            if is_new:
                f.write("\t".join(MANIFEST_COLUMNS) + "\n")
            for entry in self.entries:
                f.write(
                    "\t".join(
                        (
                            entry.study_id,
                            entry.path,
                            entry.url,
                            entry.fetched_at,
                            entry.sha256,
                            entry.status,
                        )
                    )
                    + "\n"
                )
        return path

    @classmethod
    def read(cls, path: str | Path) -> "CorpusManifest":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        entries = []
        for line in lines[1:]:
            if not line.strip():
                continue
            cells = line.split("\t")
            if len(cells) != len(MANIFEST_COLUMNS):
                raise ListingParseError(f"bad manifest row: {line!r}")
            entries.append(ManifestEntry(*cells))
        return cls(entries)

    def verify(self, dest_dir: str | Path) -> list[ManifestEntry]:
        """Return the fetched entries whose file is missing or hash-stale."""
        dest = Path(dest_dir)
        stale = []
        for entry in self.entries:
            if not entry.fetched:
                continue
            path = dest / entry.path
            if not path.exists() or _sha256(path.read_bytes()) != entry.sha256:
                stale.append(entry)
        return stale


def list_studies(
    base_url: str | None = None,
    ids_file: str | Path | None = None,
    pattern: str = STUDY_ID_PATTERN,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.5,
) -> list[str]:
    """Enumerate public study identifiers, sorted and de-duplicated.

    Either ``ids_file`` (one identifier per line, or any text the pattern
    can be scanned from) or ``base_url`` (a listing endpoint whose response
    is scanned the same way) must be given. Identifiers are validated
    against ``pattern``; anything else in the source is ignored.
    """
    if ids_file is not None:
        text = Path(ids_file).read_text(encoding="utf-8")
    elif base_url is not None:
        text = _get_with_retries(base_url, timeout, retries, backoff).text
    else:
        raise ValueError("either base_url or ids_file is required")
    ids = sorted(set(re.findall(pattern, text)))
    if not ids:
        log.warning("study listing is empty")
    return ids


def fetch_corpus(
    ids: list[str],
    dest_dir: str | Path,
    base_url: str = DEFAULT_BASE_URL,
    concurrency: int = 4,
    timeout: float = 30.0,
    retries: int = 2,
    backoff: float = 0.5,
    cache: bool = True,
) -> CorpusManifest:
    """Download each study's investigation file and record a manifest.

    Files land in ``dest_dir/<study_id>/i_Investigation.txt``, written whole
    or not at all. With ``cache`` on, an existing file is kept (status
    ``cached``) and not re-downloaded.
    Per-study failures are recorded with status ``fetch_failed`` and never
    abort the batch; only an unwritable ``dest_dir`` raises. Rows keep the
    input id order regardless of download completion order.
    """
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)

    def fetch_one(study_id: str) -> ManifestEntry:
        url = f"{base_url.rstrip('/')}/{study_id}/{INVESTIGATION_FILENAME}"
        target = dest / study_id / INVESTIGATION_FILENAME
        stamp = _utc_now()
        if cache and target.exists():
            return ManifestEntry(
                study_id,
                str(target.relative_to(dest)),
                url,
                stamp,
                _sha256(target.read_bytes()),
                STATUS_CACHED,
            )
        try:
            response = _get_with_retries(url, timeout, retries, backoff)
        except NetworkError as exc:
            log.warning("fetch failed for %s: %s", study_id, exc)
            return ManifestEntry(study_id, "", url, stamp, "", STATUS_FAILED)
        target.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(target, response.content)
        return ManifestEntry(
            study_id,
            str(target.relative_to(dest)),
            url,
            stamp,
            _sha256(response.content),
            STATUS_OK,
        )

    workers = max(1, concurrency)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        entries = list(pool.map(fetch_one, ids))
    manifest = CorpusManifest(entries)
    manifest.write(dest)
    return manifest


def probe_accession(
    ref: AccessionRef,
    signatures: tuple[str, ...] = DEFAULT_BROKEN_SIGNATURES,
    timeout: float = 10.0,
) -> Resolution:
    """Probe a scorable accession URL for liveness.

    Resolved on a final 2xx/3xx status whose body carries none of the broken
    signatures; Broken on 4xx/5xx, a signature match, or a network error
    (transient errors are retried once, then treated as Broken).
    """
    import requests

    if not ref.is_scorable:
        raise ValueError(f"cannot probe accession of kind {ref.kind.value}")
    response = None
    for attempt in range(2):
        try:
            response = requests.get(ref.raw, timeout=timeout)
            break
        except requests.RequestException as exc:
            kind = "transient" if attempt == 0 else "definitive after retry"
            log.warning("probe of %s failed (%s): %s", ref.raw, kind, exc)
    if response is None:
        return Resolution.BROKEN
    if response.status_code >= 400:
        return Resolution.BROKEN
    body = response.text
    if any(signature in body for signature in signatures):
        return Resolution.BROKEN
    return Resolution.RESOLVED


def _get_with_retries(
    url: str, timeout: float, retries: int, backoff: float
) -> "requests.Response":
    # requests is imported by the two functions that use it, not by the
    # module: its import is a large share of a short process's start-up,
    # and score, stats and audit never use it.
    import requests

    last_error: Exception | None = None
    for attempt in range(retries + 1):
        try:
            response = requests.get(url, timeout=timeout)
            if response.status_code >= 500 or response.status_code == 429:
                last_error = NetworkError(f"HTTP {response.status_code} for {url}")
            elif response.status_code >= 400:
                raise NetworkError(f"HTTP {response.status_code} for {url}")
            else:
                return response
        except requests.RequestException as exc:
            last_error = exc
        if attempt < retries and backoff > 0:
            time.sleep(backoff * (2**attempt))
    raise NetworkError(f"request to {url} failed: {last_error}")


def _write_atomic(target: Path, data: bytes) -> None:
    """Write to a temporary file beside ``target``, then rename it into place.

    An interrupted write leaves no ``target`` behind that a later cached run
    would trust. The temporary name starts with a dot, so corpus loading
    never picks it up.
    """
    partial = target.with_name(f".{target.name}.{uuid.uuid4().hex}.part")
    try:
        partial.write_bytes(data)
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
