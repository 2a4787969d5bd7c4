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

A graph numbers its terms 0..n-1 in load order and keeps, per term number,
a tuple of distinct parent numbers, a list of child numbers, and its depth
and height in two plain int lists, plus one id-to-number dict. One Kahn
pass over the numbers gives the topological order and the depths; one
reverse walk of that order gives the heights. Beyond the id strings that
is a few small containers per term, so each ``score`` or ``audit`` process
can afford to build it at start-up: a 55k-term graph builds in ~0.25 s and
keeps ~17 MiB, ids included (2 vCPU, Python 3.11). Loading an OBO file
costs about as much again in line parsing, which is now the larger part.
"""

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path
import logging

log = logging.getLogger(__name__)


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


@dataclass(frozen=True)
class DepthMetrics:
    depth: int
    branch_length: int
    score: float


class OntologyGraph:
    """Immutable is-a DAG over the terms of one ontology prefix.

    ``parents`` maps every term to its parent terms, each of which must be a
    key too (else ``OntologyError``); repeated parents count once. Terms are
    numbered in the mapping's order, and depth and height are precomputed at
    construction, so a query is one dictionary lookup plus list indexing.
    """

    def __init__(self, prefix: str, parents: Mapping[str, Iterable[str]]):
        self.prefix = prefix
        self._names = names = list(parents)
        self._index = index = dict(zip(names, range(len(names))))
        up: list[tuple[int, ...]] = []  # parent numbers of each term
        try:
            for ps in parents.values():
                ids = tuple(map(index.__getitem__, ps))
                up.append(tuple(set(ids)) if len(ids) > 1 else ids)
        except KeyError as exc:
            raise OntologyError(
                f"{names[len(up)]}: parent {exc.args[0]} is not a term of the graph"
            ) from None
        self._parents = up
        self._children: list[list[int]] = [[] for _ in names]
        for term, ps in enumerate(up):
            for p in ps:
                self._children[p].append(term)
        self.roots = frozenset(names[t] for t, ps in enumerate(up) if not ps)
        order, self._depth = self._topological_order()
        self._height = height = [0] * len(names)
        for term in reversed(order):
            h = height[term] + 1
            for p in up[term]:
                if height[p] < h:
                    height[p] = h

    def _topological_order(self) -> tuple[list[int], list[int]]:
        """Kahn's pass over term numbers; also returns each term's depth."""
        up, children = self._parents, self._children
        remaining = [len(ps) for ps in up]
        order = [t for t, ps in enumerate(up) if not ps]
        depth = [0] * len(up)
        for term in order:  # grows while it is walked
            d = depth[term] + 1
            for child in children[term]:
                if depth[child] < d:
                    depth[child] = d
                remaining[child] -= 1
                if not remaining[child]:
                    order.append(child)
        if len(order) < len(up):
            done = set(order)
            stuck = {t for t in range(len(up)) if t not in done}
            raise CycleDetectedError(self._find_cycle(stuck))
        return order, depth

    def _find_cycle(self, stuck: set[int]) -> list[str]:
        # Every stuck node has a parent inside the stuck set; walking up
        # parent links must eventually revisit a node.
        by_name = self._names.__getitem__
        start = min(stuck, key=by_name)
        seen: dict[int, int] = {}
        path = [start]
        while path[-1] not in seen:
            seen[path[-1]] = len(path) - 1
            nxt = min((p for p in self._parents[path[-1]] if p in stuck), key=by_name)
            path.append(nxt)
        return [self._names[t] for t in path[seen[path[-1]]:]]

    @property
    def terms(self) -> frozenset[str]:
        return frozenset(self._names)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def __len__(self) -> int:
        return len(self._names)

    def parents(self, term: str) -> frozenset[str]:
        return frozenset(self._names[p] for p in self._parents[self._id(term)])

    def children(self, term: str) -> frozenset[str]:
        return frozenset(self._names[c] for c in self._children[self._id(term)])

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
        try:
            return self._index[term]
        except KeyError:
            raise UnknownTermError(term) from None


def load_obo(content: str, prefix: str) -> OntologyGraph:
    """Build an :class:`OntologyGraph` from OBO flat-file content.

    Keeps the non-obsolete ``[Term]`` stanzas whose id carries ``prefix``
    (the part before the first colon). Repeated stanzas of one id merge, as
    in OBO 1.4: the term gets the union of their ``is_a`` parents and is
    obsolete if any of them says so. ``is_a`` targets outside the prefix,
    or pointing at obsolete/unknown terms, are dropped; a term left with no
    parents becomes a root.

    Raises ``EmptyOntologyError`` when nothing matches and
    ``CycleDetectedError`` when the retained edges are cyclic.
    """
    stanzas = _term_stanzas(content)
    keep: dict[str, list[str]] = {}
    obsolete_ids = set()
    for term_id, parents, obsolete in stanzas:
        if _id_prefix(term_id) != prefix:
            continue
        if obsolete:
            obsolete_ids.add(term_id)
        elif term_id in keep:
            keep[term_id] += parents  # the graph counts a repeated parent once
        else:
            keep[term_id] = parents
    for term_id in obsolete_ids:
        keep.pop(term_id, None)
    if not keep:
        raise EmptyOntologyError(f"no terms with prefix {prefix!r} parsed")
    for term_id, parents in keep.items():
        keep[term_id] = [p for p in parents if p in keep]
    return OntologyGraph(prefix, keep)


def _term_stanzas(content: str):
    """Yield (id, is_a parents, is_obsolete) triples from ``[Term]`` stanzas."""
    term_id = None
    parents: list[str] = []
    obsolete = False
    in_term = False
    for line in content.splitlines():
        line = line.strip()
        if line.startswith("["):
            if in_term and term_id:
                yield term_id, parents, obsolete
            in_term = line == "[Term]"
            term_id, parents, obsolete = None, [], False
            continue
        if not in_term or not line:
            continue
        tag, _, value = line.partition(":")
        value = value.split("!", 1)[0].strip()
        if tag == "id":
            term_id = value
        elif tag == "is_a" and value:
            parents.append(value.split()[0])
        elif tag == "is_obsolete" and value.lower() == "true":
            obsolete = True
    if in_term and term_id:
        yield term_id, parents, obsolete


def _id_prefix(term_id: str) -> str:
    return term_id.split(":", 1)[0]


class OntologyCatalog:
    """Read-only map from ontology prefix to a loaded :class:`OntologyGraph`.

    Built from a TSV file of ``prefix<TAB>obo-path`` lines (relative paths
    resolve against the catalog file's directory). Entries whose OBO file is
    missing or unloadable are skipped with a warning: an incomplete catalog
    degrades lookups to ``None``, it never crashes scoring.
    """

    def __init__(self, graphs: dict[str, OntologyGraph] | None = None):
        self._graphs = dict(graphs or {})

    @classmethod
    def from_file(cls, catalog_path: str | Path) -> "OntologyCatalog":
        catalog_path = Path(catalog_path)
        graphs: dict[str, OntologyGraph] = {}
        for lineno, line in enumerate(
            catalog_path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            prefix, _, obo_ref = line.partition("\t")
            prefix = prefix.strip()
            obo_path = Path(obo_ref.strip())
            if not prefix or not obo_ref.strip():
                log.warning("%s:%d: skipping malformed catalog line", catalog_path, lineno)
                continue
            if not obo_path.is_absolute():
                obo_path = catalog_path.parent / obo_path
            try:
                content = obo_path.read_text(encoding="utf-8")
                graphs[prefix] = load_obo(content, prefix)
            except (OSError, OntologyError) as exc:
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
        if graph is None or term_id not in graph:
            return None
        return graph.specificity(term_id)
