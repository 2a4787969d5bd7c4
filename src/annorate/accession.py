"""Classification of ontology term accession URLs.

Study metadata references ontology terms by PURL. Two shapes are recognized
and scorable:

* OBO Library PURLs, ``http://purl.obolibrary.org/obo/GO_0030257``
* BioPortal PURLs, ``http://purl.bioontology.org/ontology/MSH/C081695``

Any other syntactically valid absolute URL is a non-PURL link: it is kept in
the metadata as an unannotated term, excluded from scoring and listed by the
audit. Strings that are not URLs at all are malformed. Classification is a
total function over strings and never performs I/O.
"""

import re
from enum import Enum
from functools import cache
from typing import NamedTuple
from urllib.parse import urlparse


class AccessionKind(Enum):
    OBO_PURL = "OboPurl"
    BIOPORTAL_PURL = "BioportalPurl"
    NON_PURL = "NonPurl"
    MALFORMED = "Malformed"


#: The two PURL kinds. Bound once: on Python 3.10 and 3.11 each lookup of an
#: enum member costs ~0.2 µs, and ``score`` asks every accession slot.
_SCORABLE_KINDS = (AccessionKind.OBO_PURL, AccessionKind.BIOPORTAL_PURL)


class Resolution(Enum):
    """Outcome of resolving an accession against loaded ontologies or the web."""

    RESOLVED = "Resolved"
    BROKEN = "Broken"
    NOT_IN_CATALOG = "NotInCatalog"


# Local id may not contain '_', which forces the prefix/local split onto the
# last underscore and keeps the prefix purely alphanumeric (OBO Foundry form).
_OBO_PURL_RE = re.compile(
    r"^https?://purl\.obolibrary\.org/obo/([A-Za-z0-9]+)_([^/_\s]+)$"
)
_BIOPORTAL_PURL_RE = re.compile(
    r"^https?://purl\.bioontology\.org/ontology/([^/\s]+)/([^/\s]+)$"
)


class AccessionRef(NamedTuple):
    raw: str
    kind: AccessionKind
    ontology_prefix: str | None = None
    local_id: str | None = None

    @property
    def is_scorable(self) -> bool:
        return self.kind in _SCORABLE_KINDS

    @property
    def curie(self) -> str | None:
        """Prefixed term id (e.g. ``GO:0030257``) used for ontology lookups."""
        if not self.is_scorable:
            return None
        return f"{self.ontology_prefix}:{self.local_id}"


@cache
def classify_accession(raw: str) -> AccessionRef:
    """Classify an accession string into one of the four accession kinds.

    Prefix and local id are extracted verbatim for the two PURL shapes
    (mixed-case prefixes like NCBITaxon are preserved). HTTPS is accepted as
    equivalent to HTTP. Problems are encoded in the returned ``kind``; this
    never raises.

    The function is memoized: each distinct string is classified once per
    process and every later call returns the same ``AccessionRef``, an
    immutable named tuple.
    A corpus repeats its URLs across slots and studies, so ``score`` and
    ``audit`` pay one classification per distinct URL, not one per slot.
    The memo grows with the distinct strings seen, which for a batch run is
    bounded by its input.
    """
    m = _OBO_PURL_RE.match(raw)
    if m:
        return AccessionRef(raw, AccessionKind.OBO_PURL, m.group(1), m.group(2))
    m = _BIOPORTAL_PURL_RE.match(raw)
    if m:
        return AccessionRef(raw, AccessionKind.BIOPORTAL_PURL, m.group(1), m.group(2))
    if _is_absolute_url(raw):
        return AccessionRef(raw, AccessionKind.NON_PURL)
    return AccessionRef(raw, AccessionKind.MALFORMED)


def _is_absolute_url(raw: str) -> bool:
    if not raw or any(c.isspace() for c in raw):
        return False
    try:
        parts = urlparse(raw)
    except ValueError:
        return False
    return bool(parts.scheme) and bool(parts.netloc)
