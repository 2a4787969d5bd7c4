"""Reference OBO loader and is-a graph: the oracle for ``annorate.ontology``.

This is the loader as it was before it streamed its input and kept the
graph in flat arrays: the whole content is split into lines at once, and
each term keeps a tuple of parent numbers, a list of child numbers, and its
depth and height in plain int lists. It shares the error and metric types
with the package, so a test can compare raised exceptions by type.

Used by ``tests/test_ontology.py`` and by the CI step that loads a
generated 250k-term taxonomy (``sys.path`` must include ``tests/``).
"""

from collections.abc import Iterable, Mapping

from annorate.ontology import (
    CycleDetectedError,
    DepthMetrics,
    EmptyOntologyError,
    OntologyError,
    UnknownTermError,
)


class OracleGraph:
    """Integer-indexed is-a DAG built from a ``term -> parents`` mapping."""

    def __init__(self, prefix: str, parents: Mapping[str, Iterable[str]]):
        self.prefix = prefix
        self._names = names = list(parents)
        self._index = index = dict(zip(names, range(len(names))))
        up: list[tuple[int, ...]] = []
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
        up, children = self._parents, self._children
        remaining = [len(ps) for ps in up]
        order = [t for t, ps in enumerate(up) if not ps]
        depth = [0] * len(up)
        for term in order:
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
        return self._depth[self._id(term)]

    def branch_length(self, term: str) -> int:
        i = self._id(term)
        return self._depth[i] + self._height[i]

    def specificity(self, term: str) -> DepthMetrics:
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


def oracle_load_obo(content: str, prefix: str) -> OracleGraph:
    """The reference loader: same stanza rules, whole-content line split."""
    keep: dict[str, list[str]] = {}
    obsolete_ids = set()
    for term_id, parents, obsolete in _term_stanzas(content):
        if term_id.split(":", 1)[0] != prefix:
            continue
        if obsolete:
            obsolete_ids.add(term_id)
        elif term_id in keep:
            keep[term_id] += parents
        else:
            keep[term_id] = parents
    for term_id in obsolete_ids:
        keep.pop(term_id, None)
    if not keep:
        raise EmptyOntologyError(f"no terms with prefix {prefix!r} parsed")
    for term_id, parents in keep.items():
        keep[term_id] = [p for p in parents if p in keep]
    return OracleGraph(prefix, keep)


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
