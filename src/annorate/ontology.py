"""Ontology is-a graphs and term specificity metrics.

Graphs are loaded from OBO 1.2/1.4 flat files and restricted to one id
prefix. A term's specificity is its depth divided by its branch length,
both counted in edges:

* depth: longest path from any root down to the term (roots are at 0);
* branch length: longest root-to-leaf path that passes through the term,
  which equals depth plus the longest descending path to a leaf.

The score therefore lies in [0, 1]: a root with descendants scores 0, a
leaf scores 1, and the score never decreases when walking down a branch.
A single isolated term (root and leaf at once, 0/0) is defined to score 1.

Only ``is_a`` edges contribute; other relationship types and cross-prefix
parents are dropped at load time. Graphs are immutable after loading and
safe to query from any number of threads.

An OBO file is read as a text stream in chunks of ``CHUNK_CHARS``
characters. Each chunk is cut just after its last ``"\\n"`` and split into
lines on its own; no line break spans such a cut, so the lines are those
of the whole file, and the file is never held in memory at once.

A graph numbers its terms 0..n-1 in id order and keeps no per-term
Python container, and nothing that specificity does not read: depth and
height as two ``array('i')``, and the sorted list of ids, whose positions
are the term numbers, so a term is found by bisection over its id, with no
id-to-number dict. While a graph is built, parents and children are two
CSR layouts (Saad, *Iterative Methods for Sparse Linear Systems*, 2nd ed.,
§3.4), each an ``array('i')`` of offsets plus an ``array('i')`` of term
numbers. One Kahn pass over them gives the topological order and the
depths; one reverse walk of that order gives the heights; then the edges
are dropped.

:meth:`OntologyCatalog.from_file` keeps each graph it parses in a cache
entry, named by the SHA-256 of the OBO file's bytes and the prefix, and
signed by the SHA-256 of this module's source and the entry's body. A
later load of the same file reads the entry back as the two arrays and
the ids, with no parse; an entry is plain data, never unpickled. A
missing or damaged entry, or one that another version of this module
wrote, only means a parse, and the entry is rewritten under the same
name. An entry is written beside its path and renamed into place by
:func:`annorate._files.replace_file`, so a reader finds a whole entry or
none. The README gives load times, memory and entry sizes at scale.
"""

from array import array
from bisect import bisect_left
from collections.abc import Collection, Iterable, Iterator, Mapping
from functools import cache
from itertools import accumulate, chain, compress, repeat
from operator import not_
from pathlib import Path
from typing import NamedTuple, TextIO
import logging
import os
import sys

log = logging.getLogger(__name__)

#: Characters read from an OBO stream at a time.
CHUNK_CHARS = 1 << 20


class OntologyError(Exception):
    """Base class for ontology loading and query errors."""


class CycleDetectedError(OntologyError):
    """The is-a graph contains a cycle; ``cycle`` lists one offending loop."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("is_a cycle detected: " + " -> ".join(cycle))


class EmptyOntologyError(OntologyError):
    """No (matching) terms were parsed from the OBO content."""


class UnknownTermError(KeyError):
    """Queried term is not part of the graph."""


class DepthMetrics(NamedTuple):
    depth: int
    branch_length: int
    score: float


class OntologyGraph:
    """Immutable is-a DAG over the terms of one ontology prefix.

    ``parents`` maps every term to its parent terms, each of which must be a
    key too; repeated parents count once. Otherwise ``OntologyError`` names
    the first term in id order with an unknown parent. Terms are numbered in
    id order, whatever the mapping's order. The graph keeps what specificity
    reads and nothing else: each term's depth and height, precomputed, and
    the sorted ids, which are the search index. The edges serve only to
    compute those and are dropped, so a query is one bisection (about
    log2 n string comparisons) plus array indexing.
    """

    def __init__(self, prefix: str, parents: Mapping[str, Collection[str]]):
        self.prefix = prefix
        self._names = names = sorted(parents)
        index = dict(zip(names, range(len(names))))
        n = len(names)
        ranked = list(map(parents.__getitem__, names))  # each term's parents, in id order
        # The parents of term t are up[up_start[t]:up_start[t + 1]]. A repeated
        # parent stays repeated: the passes below release its copies together.
        degree = array("i", map(len, ranked))
        up_start = array("i", accumulate(degree, initial=0))
        try:
            up = array("i", map(index.__getitem__, chain.from_iterable(ranked)))
        except KeyError as exc:
            missing = exc.args[0]
            term = next(t for t, ps in zip(names, ranked) if missing in ps)
            raise OntologyError(f"{term}: parent {missing} is not a term of the graph") from None
        del index, ranked  # only the edges need them; a query bisects the sorted ids
        # The children of term t, ascending, are down[down_start[t]:down_start[t + 1]].
        count = array("i", [0]) * (n + 1)
        for p in up:
            count[p + 1] += 1
        down_start = array("i", accumulate(count))
        down = array("i", [0]) * len(up)
        free = down_start[:-1]  # each term's next unfilled child slot
        for term, p in zip(chain.from_iterable(map(repeat, range(n), degree)), up):
            down[free[p]] = term
            free[p] += 1
        # Lists index faster than arrays; these working ones, of small counts
        # and depths, are dropped once the passes are done, and so are the edges.
        order, self._depth = self._topological_order(down_start, down, list(degree))
        if len(order) < n:
            done = set(order)
            stuck = {t for t in range(n) if t not in done}
            raise CycleDetectedError(self._find_cycle(up_start, up, stuck))
        height = [0] * n
        for term in reversed(order):
            h = height[term] + 1
            for p in up[up_start[term] : up_start[term + 1]]:
                if height[p] < h:
                    height[p] = h
        self._height = array("i", height)

    @classmethod
    def _from_arrays(cls, prefix: str, names: list[str], arrays: list[array]) -> "OntologyGraph":
        """The graph whose ``_ARRAYS`` are ``arrays``, taken as a built graph left them."""
        graph = cls.__new__(cls)
        graph.prefix, graph._names = prefix, names
        for name, values in zip(_ARRAYS, arrays):
            setattr(graph, name, values)
        return graph

    @staticmethod
    def _topological_order(
        down_start: array, down: array, remaining: list[int]
    ) -> tuple[array, array]:
        """Kahn's pass over term numbers, given their children and parent counts; also each depth.

        On a cycle the order stops short: no term on or below it is released.
        """
        n = len(remaining)
        order = array("i", compress(range(n), map(not_, remaining)))
        depth = [0] * n
        for term in order:  # grows while it is walked
            d = depth[term] + 1
            for child in down[down_start[term] : down_start[term + 1]]:
                if depth[child] < d:
                    depth[child] = d
                remaining[child] -= 1
                if not remaining[child]:
                    order.append(child)
        return order, array("i", depth)

    def _find_cycle(self, up_start: array, up: array, stuck: set[int]) -> list[str]:
        # Every stuck node has a parent inside the stuck set; walking up
        # parent links must eventually revisit a node.
        start = min(stuck)  # numbers are in id order, so this is the least id
        seen: dict[int, int] = {}
        path = [start]
        while (i := path[-1]) not in seen:
            seen[i] = len(path) - 1
            path.append(min(p for p in up[up_start[i] : up_start[i + 1]] if p in stuck))
        return [self._names[t] for t in path[seen[path[-1]]:]]

    @property
    def terms(self) -> frozenset[str]:
        return frozenset(self._names)

    @property
    def roots(self) -> frozenset[str]:
        """The terms without a parent, which are those of depth 0."""
        return frozenset(compress(self._names, map(not_, self._depth)))

    def __contains__(self, term: str) -> bool:
        return self._find(term) >= 0

    def __len__(self) -> int:
        return len(self._names)

    def depth(self, term: str) -> int:
        """Edge count of the longest path from any root down to ``term``."""
        return self._depth[self._id(term)]

    def branch_length(self, term: str) -> int:
        """Edge count of the longest root-to-leaf path through ``term``."""
        i = self._id(term)
        return self._depth[i] + self._height[i]

    def specificity(self, term: str) -> DepthMetrics:
        """Depth, branch length and the depth/branch score for ``term``."""
        i = self._id(term)
        depth = self._depth[i]
        branch = depth + self._height[i]
        score = depth / branch if branch > 0 else 1.0
        return DepthMetrics(depth=depth, branch_length=branch, score=score)

    def _id(self, term: str) -> int:
        i = self._find(term)
        if i < 0:
            raise UnknownTermError(term)
        return i

    def _find(self, term: str) -> int:
        """The number of ``term``, its position among the sorted ids, or -1 when it is absent."""
        names = self._names
        at = bisect_left(names, term)
        return at if at < len(names) and names[at] == term else -1


def load_obo(source: str | TextIO, prefix: str) -> OntologyGraph:
    """Build an :class:`OntologyGraph` from OBO flat-file content.

    ``source`` is the content itself or a text stream, which is read in
    chunks of ``CHUNK_CHARS`` characters. Keeps the non-obsolete ``[Term]``
    stanzas whose id carries ``prefix`` (the part before the first colon).
    Repeated stanzas of one id merge, as in OBO 1.4: the term gets the union
    of their ``is_a`` parents and is obsolete if any of them says so.
    ``is_a`` targets outside the prefix, or pointing at obsolete/unknown
    terms, are dropped; a term left with no parents becomes a root.

    Raises ``EmptyOntologyError`` when nothing matches and
    ``CycleDetectedError`` when the retained edges are cyclic. A stream's
    own errors, such as ``UnicodeDecodeError``, pass through.
    """
    keep: dict[str, tuple[str, ...]] = {}
    obsolete_ids = set()
    term_id = None
    parents: list[str] = []
    obsolete = False
    in_term = False
    # A closing header line ends the last stanza like any other.
    for piece in chain(_pieces(source), ("[",)):
        for line in piece.splitlines():
            line = line.strip()
            if not line:
                continue
            # Only a header or an id/is_a/is_obsolete line changes the state;
            # most stanza lines (name, def, synonym, xref) stop here.
            first = line[0]
            if first == "[":
                if in_term and term_id and term_id.split(":", 1)[0] == prefix:
                    if obsolete:
                        obsolete_ids.add(term_id)
                    elif term_id in keep:
                        keep[term_id] += tuple(parents)  # the graph counts a repeated parent once
                    else:
                        keep[term_id] = tuple(parents)  # half the size of a list
                in_term = line == "[Term]"
                term_id, parents, obsolete = None, [], False
                continue
            if first != "i" or not in_term:
                continue
            tag, _, value = line.partition(":")
            if tag == "id":
                term_id = value.split("!", 1)[0].strip()
            elif tag == "is_a":
                words = value.split("!", 1)[0].split()
                if words:
                    parents.append(words[0])
            elif tag == "is_obsolete" and value.split("!", 1)[0].strip().lower() == "true":
                obsolete = True
    for term_id in obsolete_ids:
        keep.pop(term_id, None)
    if not keep:
        raise EmptyOntologyError(f"no terms with prefix {prefix!r} parsed")
    known = keep.__contains__
    for term_id, parents in keep.items():
        if not all(map(known, parents)):
            keep[term_id] = tuple(filter(known, parents))
    return OntologyGraph(prefix, keep)


def _pieces(source: str | TextIO) -> Iterator[str]:
    """``source`` as consecutive texts that each end on a line boundary."""
    if isinstance(source, str):
        yield source
        return
    tail = ""
    while chunk := source.read(CHUNK_CHARS):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    yield tail


#: The attributes of an :class:`OntologyGraph` that a cache entry stores, in entry order.
_ARRAYS = ("_depth", "_height")

#: First word of an entry's head and its name's hash; a new layout is new source, so it stays.
_ENTRY_TAG = b"annorate-graph"


def _load_cached(obo_path: Path, prefix: str) -> OntologyGraph:
    """The graph of ``obo_path`` under ``prefix``: from its cache entry when valid, else parsed.

    A parsed graph is stored for the next run. The cache never changes the
    result: whatever goes wrong with it (no home directory, an unwritable
    or full disk, a damaged entry) only means a parse. A file that fails to
    load raises as :func:`load_obo` does and is never stored.
    """
    entry = _cache_entry(obo_path, prefix)
    if entry is not None and (graph := _read_entry(entry, prefix)) is not None:
        return graph
    with open(obo_path, encoding="utf-8-sig") as obo:
        graph = load_obo(obo, prefix)
    if entry is not None:
        _write_entry(entry, graph)
    return graph


def _cache_entry(obo_path: Path, prefix: str) -> Path | None:
    """Path of the cache entry for ``obo_path`` under ``prefix``, or None when there is none.

    Entries live in ``$XDG_CACHE_HOME/annorate/graphs/`` (``~/.cache`` when
    that variable is unset or relative), and nowhere when neither path is
    absolute. The name is the SHA-256 of the entry tag, the prefix and the
    OBO file's bytes, so an edited file or prefix never meets an old entry;
    another loader finds its :func:`_digest` foreign, parses, and rewrites it.
    """
    import hashlib  # here, so that commands which load no ontology never import it

    cache_home = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(cache_home) if os.path.isabs(cache_home) else Path.home() / ".cache"
        if not root.is_absolute():  # a relative HOME would put the cache under the cwd
            return None
        key = hashlib.sha256()
        for part in (_ENTRY_TAG, prefix.encode("utf-8")):
            key.update(b"%d:" % len(part))
            key.update(part)
        with open(obo_path, "rb") as obo:
            while chunk := obo.read(CHUNK_CHARS):
                key.update(chunk)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return root / "annorate" / "graphs" / f"{key.hexdigest()}.graph"


@cache
def _source() -> bytes:
    """Seed of every entry's digest: this module's source, the only one that decides an entry."""
    return Path(__file__).read_bytes()


def _digest(body: Iterable[bytes]) -> str:
    """An entry's digest: the SHA-256 of :func:`_source`, then of each piece of ``body``."""
    import hashlib

    digest = hashlib.sha256(_source())
    for piece in body:
        digest.update(piece)
    return digest.hexdigest()


def _entry_head(counts: tuple[int, int], digest: str) -> bytes:
    """An entry's first line: tag, byte order, item size, the counts, the :func:`_digest`."""
    fields = [sys.byteorder, array("i").itemsize, *counts, digest]
    return b" ".join([_ENTRY_TAG, *(str(field).encode("ascii") for field in fields)]) + b"\n"


def _write_entry(entry: Path, graph: OntologyGraph) -> None:
    """Store ``graph`` at ``entry``: its head line, the ``_ARRAYS``, then its ids joined by ``\\n``.

    The entry is written beside it and renamed into place, so a reader
    never sees a partial one and racing writers leave one whole entry.
    Nothing in it is pickled: it is read back as plain arrays and text. An
    ``OSError`` leaves the cache as it was.
    """
    from ._files import replace_file  # here, so that loading this module loads no other

    ids = "\n".join(graph._names).encode("utf-8")  # an id never holds a line break
    body = [*(getattr(graph, name) for name in _ARRAYS), ids]
    head = _entry_head((len(graph), len(ids)), _digest(body))
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        replace_file(entry, [head, *body])
    except OSError:
        pass


def _read_entry(entry: Path, prefix: str) -> OntologyGraph | None:
    """The graph stored at ``entry``, or None when it is missing, damaged or of another loader."""
    try:
        data = entry.read_bytes()
    except OSError:
        return None
    cut = data.find(b"\n") + 1
    try:  # the head's fields: tag, byte order, item size, terms, id bytes, the digest
        n, id_bytes = counts = tuple(map(int, data[:cut].split()[3:-1]))
    except ValueError:
        return None
    body = memoryview(data)[cut:]
    size = n * array("i").itemsize  # that of each of the _ARRAYS
    if min(counts) < 0 or len(body) != len(_ARRAYS) * size + id_bytes:
        return None  # the counts must fit the body before it is sliced
    # a foreign tag, byte order, item size or loader fails here, and so does any damage
    if data[:cut] != _entry_head(counts, _digest([body])):
        return None
    arrays = [array("i") for _ in _ARRAYS]
    for k, values in enumerate(arrays):
        values.frombytes(body[k * size : (k + 1) * size])
    try:
        names = str(body[len(_ARRAYS) * size :], "utf-8").split("\n")
    except UnicodeDecodeError:
        return None
    return OntologyGraph._from_arrays(prefix, names, arrays) if len(names) == n else None


class OntologyCatalog:
    """Read-only map from ontology prefix to a loaded :class:`OntologyGraph`.

    Built from a TSV file of ``prefix<TAB>obo-path`` lines (relative paths
    resolve against the catalog file's directory). A line without a prefix
    or a path, or whose path holds a NUL character, is skipped with a
    warning as malformed. A prefix listed again is skipped with a warning,
    its file unread: the first line wins. Entries whose OBO file is missing,
    not UTF-8 or otherwise unloadable are skipped with a warning: an
    incomplete catalog degrades lookups to ``None``, it never crashes
    scoring. The catalog file itself must be readable UTF-8 text; otherwise
    ``from_file`` raises ``OSError`` or ``UnicodeDecodeError``.
    A byte order mark opening the catalog or an OBO file is dropped. A
    graph is read from the graph cache when it holds an entry for the OBO
    file's exact bytes, and parsed and stored there otherwise.
    """

    def __init__(self, graphs: dict[str, OntologyGraph] | None = None):
        self._graphs = dict(graphs or {})

    @classmethod
    def from_file(cls, catalog_path: str | Path) -> "OntologyCatalog":
        catalog_path = Path(catalog_path)
        graphs: dict[str, OntologyGraph] = {}
        first_lines: dict[str, int] = {}
        for lineno, line in enumerate(
            catalog_path.read_text(encoding="utf-8-sig").splitlines(), start=1
        ):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            prefix, _, obo_ref = line.partition("\t")
            prefix = prefix.strip()
            obo_path = Path(obo_ref.strip())
            if not prefix or not obo_ref.strip() or "\0" in obo_ref:  # no path holds a NUL
                log.warning("%s:%d: skipping malformed catalog line", catalog_path, lineno)
                continue
            if prefix in first_lines:
                log.warning(
                    "%s:%d: prefix %s already listed on line %d; skipping (kept first)",
                    catalog_path, lineno, prefix, first_lines[prefix],
                )
                continue
            first_lines[prefix] = lineno
            if not obo_path.is_absolute():
                obo_path = catalog_path.parent / obo_path
            try:
                graphs[prefix] = _load_cached(obo_path, prefix)
            except (OSError, UnicodeDecodeError, OntologyError) as exc:
                log.warning("catalog prefix %s unavailable: %s", prefix, exc)
        return cls(graphs)

    @property
    def prefixes(self) -> frozenset[str]:
        return frozenset(self._graphs)

    def get(self, prefix: str) -> OntologyGraph | None:
        return self._graphs.get(prefix)

    def lookup(self, prefix: str, term_id: str) -> DepthMetrics | None:
        """Metrics for ``term_id``, or None when the prefix or term is absent."""
        graph = self._graphs.get(prefix)
        if graph is None:
            return None
        try:
            return graph.specificity(term_id)
        except UnknownTermError:
            return None
