"""Corpus acquisition: study listing, investigation download, liveness probing.

Everything here is offline-substitutable: study ids can come from a local
file instead of the repository listing, downloads land in a plain directory
that the scoring pipeline reads directly, and probing is optional (with
probing off, resolution outcomes derive solely from the ontology catalog).

Every request, whether a listing, a download or a probe, goes through one
``urllib`` helper with one policy: network errors, HTTP 5xx and HTTP 429 are
retried up to ``RETRIES`` times, after ``BACKOFF_S`` seconds and then twice as
long before each later retry; any other 4xx, a final 3xx that ``urllib`` does
not follow, and a URL that is not http(s) or that it cannot send fail at once.
Downloads wait up to ``FETCH_TIMEOUT_S`` seconds, probes ``PROBE_TIMEOUT_S``.
Downloads run through a bounded worker pool, and one failing study never
aborts the batch. Each download is written beside its target and renamed
into place by :func:`annorate._files.replace_file`, so an interrupted fetch
never leaves a truncated file that a later run would trust as cached. The
manifest is an append-only TSV (``study_id path url fetched_at sha256
status``) written next to the downloaded files, the one file here that is
appended to rather than replaced.
"""

import errno
import hashlib
import http.client
import logging
import os
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from . import __version__
from ._files import replace_file
from .accession import AccessionRef, Resolution

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://www.ebi.ac.uk/metabolights/ws/studies"
STUDY_ID_PATTERN = r"MTBLS\d+"
INVESTIGATION_FILENAME = "i_Investigation.txt"

#: Body fragments that mark a nominally successful response as a broken term page.
BROKEN_SIGNATURES = (
    "<error>Ontology not specified or not supported</error>",
    "The page you are looking for wasn't found.",
)

#: Retries of a request after its first attempt fails transiently.
RETRIES = 2
#: Seconds before the first retry; each later retry waits twice as long.
BACKOFF_S = 0.5
FETCH_TIMEOUT_S = 30.0
PROBE_TIMEOUT_S = 10.0

MANIFEST_FILENAME = "manifest.tsv"
MANIFEST_COLUMNS = ("study_id", "path", "url", "fetched_at", "sha256", "status")

STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "fetch_failed"


class NetworkError(Exception):
    """A request failed at once or after exhausting its retries."""


class ManifestEntry(NamedTuple):
    study_id: str
    path: str
    url: str
    fetched_at: str
    sha256: str
    status: str

    @property
    def fetched(self) -> bool:
        return self.status in (STATUS_OK, STATUS_CACHED)


class CorpusManifest(NamedTuple):
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
                f.write("\t".join(entry) + "\n")
        return path

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
    base_url: str | None = None, ids_file: str | Path | None = None
) -> list[str]:
    """Enumerate public study identifiers, sorted and de-duplicated.

    Either ``ids_file`` (one identifier per line, or any text the pattern
    can be scanned from) or ``base_url`` (a listing endpoint whose response
    is scanned the same way) must be given. Identifiers are the matches of
    ``STUDY_ID_PATTERN``; anything else in the source is ignored.
    """
    if ids_file is not None:
        text = Path(ids_file).read_text(encoding="utf-8")
    elif base_url is not None:
        text = _get_with_retries(base_url, FETCH_TIMEOUT_S).decode("utf-8", "replace")
    else:
        raise ValueError("either base_url or ids_file is required")
    ids = sorted(set(re.findall(STUDY_ID_PATTERN, text)))
    if not ids:
        log.warning("study listing is empty")
    return ids


def fetch_corpus(
    ids: list[str],
    dest_dir: str | Path,
    base_url: str = DEFAULT_BASE_URL,
    concurrency: int = 4,
    cache: bool = True,
) -> CorpusManifest:
    """Download each study's investigation file and record a manifest.

    Files land in ``dest_dir/<study_id>/i_Investigation.txt``, written whole
    or not at all. With ``cache`` on, an existing file is kept (status
    ``cached``) and not re-downloaded.
    Per-study failures are recorded with status ``fetch_failed`` and a
    warning, and never abort the batch: a failed request, a directory at the
    file's path (whether ``cache`` is on or off), a cached file that cannot
    be read, or a study directory that cannot be made (a file is in its
    place). Only an unwritable ``dest_dir`` or a failed write of downloaded
    bytes raises, and a ``concurrency`` below 1 raises ``ValueError`` before
    any request or directory is made. Rows keep the input id order regardless
    of download completion order.
    """
    dest = Path(dest_dir)

    def fetch_one(study_id: str) -> ManifestEntry:
        url = f"{base_url.rstrip('/')}/{study_id}/{INVESTIGATION_FILENAME}"
        target = dest / study_id / INVESTIGATION_FILENAME
        stamp = _utc_now()
        try:
            if cache and target.exists():
                data, status = target.read_bytes(), STATUS_CACHED
            elif target.is_dir():  # a download could not be renamed into its place
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            else:
                data, status = _get_with_retries(url, FETCH_TIMEOUT_S), STATUS_OK
                target.parent.mkdir(parents=True, exist_ok=True)
        except (NetworkError, OSError) as exc:
            log.warning("fetch failed for %s: %s", study_id, exc)
            return ManifestEntry(study_id, "", url, stamp, "", STATUS_FAILED)
        if status == STATUS_OK:
            replace_file(target, [data])
        path = str(target.relative_to(dest))
        return ManifestEntry(study_id, path, url, stamp, _sha256(data), status)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:  # rejects a count below 1
        dest.mkdir(parents=True, exist_ok=True)
        entries = list(pool.map(fetch_one, ids))
    manifest = CorpusManifest(entries)
    manifest.write(dest)
    return manifest


def probe_accession(ref: AccessionRef) -> Resolution:
    """Probe a scorable accession URL for liveness.

    Resolved on a final 2xx status whose body carries none of
    ``BROKEN_SIGNATURES``; Broken on a signature match or when the request
    fails under the module's one retry policy (a 3xx left unfollowed or a 4xx
    other than 429 at once; a network error, 5xx or 429 through every retry).
    """
    if not ref.is_scorable:
        raise ValueError(f"cannot probe accession of kind {ref.kind.value}")
    try:
        body = _get_with_retries(ref.raw, PROBE_TIMEOUT_S).decode("utf-8", "replace")
    except NetworkError as exc:
        log.warning("probe of %s failed: %s", ref.raw, exc)
        return Resolution.BROKEN
    if any(signature in body for signature in BROKEN_SIGNATURES):
        return Resolution.BROKEN
    return Resolution.RESOLVED


def _get_with_retries(url: str, timeout: float) -> bytes:
    if not url.lower().startswith(("http://", "https://")):  # urllib reads file: URLs from disk
        raise NetworkError(f"cannot request {url}: not an http or https URL")
    last_error: Exception | None = None
    for attempt in range(RETRIES + 1):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            request = urllib.request.Request(url, headers={"User-Agent": f"annorate/{__version__}"})
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:  # a 4xx or 5xx, or a 3xx that urllib does not follow
            exc.close()
            last_error = NetworkError(f"HTTP {exc.code} for {url}")
            if exc.code < 500 and exc.code != 429:
                raise last_error
        except (ValueError, http.client.InvalidURL) as exc:  # a URL that urllib cannot send
            raise NetworkError(f"cannot request {url}: {exc}") from None
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
    raise NetworkError(f"request to {url} failed: {last_error}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
