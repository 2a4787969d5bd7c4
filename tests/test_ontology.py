"""Ontology loading and depth/branch/specificity metrics."""

import codecs
import errno
import hashlib
import io
import itertools
import os
import random
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annorate import _files, ontology
from annorate.ontology import (
    CycleDetectedError,
    EmptyOntologyError,
    OntologyCatalog,
    OntologyError,
    OntologyGraph,
    UnknownTermError,
    load_obo,
)

from conftest import chain_obo, merge_obo, write_catalog
from obo_oracle import OracleGraph, oracle_load_obo

CHAIN = chain_obo(["T:1", "T:2", "T:3"])

DIAMOND = """
[Term]
id: T:A

[Term]
id: T:B
is_a: T:A

[Term]
id: T:C
is_a: T:A

[Term]
id: T:D
is_a: T:B
is_a: T:C
"""


def brute_force_metrics(parents):
    """Independent oracle: exhaustive enumeration of all root-to-leaf paths."""
    children = {t: [] for t in parents}
    for term, ps in parents.items():
        for p in ps:
            children[p].append(term)
    roots = sorted(t for t, ps in parents.items() if not ps)
    paths = []

    def extend(path):
        kids = sorted(children[path[-1]])
        if not kids:
            paths.append(list(path))
            return
        for kid in kids:
            path.append(kid)
            extend(path)
            path.pop()

    for root in roots:
        extend([root])

    depth = {t: 0 for t in parents}
    branch = {t: 0 for t in parents}
    for path in paths:
        length = len(path) - 1
        for position, node in enumerate(path):
            depth[node] = max(depth[node], position)
            branch[node] = max(branch[node], length)
    score = {t: depth[t] / branch[t] if branch[t] else 1.0 for t in parents}
    return depth, branch, score, paths


def random_parents(rng, max_nodes=15):
    n = rng.randint(1, max_nodes)
    ids = [f"T:{i:03d}" for i in range(n)]
    parents = {ids[0]: set()}
    for i in range(1, n):
        k = rng.randint(0, min(i, 3))
        parents[ids[i]] = set(rng.sample(ids[:i], k)) if k else set()
    return parents


def obo_from_parents(parents):
    """OBO content with one stanza per term, in the mapping's order."""
    stanzas = []
    for term, ps in parents.items():
        lines = ["[Term]", f"id: {term}"]
        lines.extend(f"is_a: {p}" for p in sorted(ps))
        stanzas.append("\n".join(lines))
    return "\n\n".join(stanzas)


class TestLoadObo:
    def test_linear_chain(self):
        graph = load_obo(CHAIN, "T")
        assert graph.roots == {"T:1"}
        assert len(graph) == 3
        assert graph.depth("T:3") == 2

    def test_obsolete_term_excluded(self):
        content = CHAIN + "\n[Term]\nid: T:4\nis_a: T:3\nis_obsolete: true\n"
        graph = load_obo(content, "T")
        assert "T:4" not in graph
        assert len(graph) == 3

    def test_diamond_multi_parent(self):
        graph = load_obo(DIAMOND, "T")
        assert graph.roots == {"T:A"}
        assert graph.depth("T:D") == 2
        # each of T:D's two parents heads a branch of two edges only through T:D
        assert graph.branch_length("T:B") == graph.branch_length("T:C") == 2

    def test_cross_prefix_edges_dropped(self):
        content = "[Term]\nid: T:1\nis_a: OTHER:9\n\n[Term]\nid: T:2\nis_a: T:1\n"
        graph = load_obo(content, "T")
        assert graph.roots == {"T:1"}
        assert len(graph) == 2

    def test_prefix_filter(self):
        content = merge_obo(chain_obo(["T:1", "T:2"]), chain_obo(["X:1", "X:2"]))
        graph = load_obo(content, "X")
        assert graph.terms == {"X:1", "X:2"}

    def test_empty_raises(self):
        with pytest.raises(EmptyOntologyError):
            load_obo("format-version: 1.2\n", "T")
        with pytest.raises(EmptyOntologyError):
            load_obo(CHAIN, "NOPE")

    def test_cycle_detected(self):
        content = "[Term]\nid: T:1\nis_a: T:2\n\n[Term]\nid: T:2\nis_a: T:1\n"
        with pytest.raises(CycleDetectedError) as err:
            load_obo(content, "T")
        cycle = err.value.cycle
        assert len(cycle) >= 2
        assert set(cycle) <= {"T:1", "T:2"}

    def test_non_term_stanzas_ignored(self):
        content = "[Typedef]\nid: part_of\n\n" + CHAIN
        assert len(load_obo(content, "T")) == 3

    def test_duplicated_is_a_line_counts_once(self):
        content = "[Term]\nid: T:1\n\n[Term]\nid: T:2\nis_a: T:1\nis_a: T:1 ! again\n"
        graph = load_obo(content, "T")
        assert graph.roots == {"T:1"}
        assert graph.depth("T:2") == 1
        assert graph.branch_length("T:1") == 1

    def test_self_loop_is_a_cycle(self):
        content = "[Term]\nid: T:1\nis_a: T:1\n\n[Term]\nid: T:2\nis_a: T:1\n"
        with pytest.raises(CycleDetectedError) as err:
            load_obo(content, "T")
        assert err.value.cycle == ["T:1", "T:1"]

    def test_repeated_stanza_merges_parents(self):
        content = (
            "[Term]\nid: T:1\n\n[Term]\nid: T:2\nis_a: T:1\n\n"
            "[Term]\nid: T:3\nis_a: T:2\n\n[Term]\nid: T:2\n\n"
            "[Term]\nid: T:3\nis_a: T:1\n"
        )
        graph = load_obo(content, "T")
        assert graph.roots == {"T:1"}
        assert graph.depth("T:2") == 1
        assert graph.depth("T:3") == 2
        # a parent named only by a later stanza is an edge too: T:3 is T:0's one child
        graph = load_obo(content + "\n[Term]\nid: T:0\n\n[Term]\nid: T:3\nis_a: T:0\n", "T")
        assert graph.roots == {"T:0", "T:1"}
        assert graph.branch_length("T:0") == 1
        assert graph.depth("T:3") == 2

    def test_repeated_stanza_marked_obsolete(self):
        content = CHAIN + "\n[Term]\nid: T:3\nis_obsolete: true\n"
        graph = load_obo(content, "T")
        assert "T:3" not in graph
        assert graph.terms == {"T:1", "T:2"}

    def test_trailing_comment_stripped(self):
        content = "[Term]\nid: T:1\n\n[Term]\nid: T:2\nis_a: T:1 ! the root\n"
        graph = load_obo(content, "T")
        assert graph.depth("T:2") == 1


class TestMetrics:
    def test_chain_depths(self):
        graph = load_obo(CHAIN, "T")
        assert [graph.depth(t) for t in ("T:1", "T:2", "T:3")] == [0, 1, 2]

    def test_chain_branch_lengths(self):
        graph = load_obo(CHAIN, "T")
        assert graph.branch_length("T:2") == 2
        # leaves: branch equals depth
        assert graph.branch_length("T:3") == graph.depth("T:3") == 2

    def test_chain_scores(self):
        graph = load_obo(CHAIN, "T")
        assert graph.specificity("T:1").score == 0.0
        assert graph.specificity("T:2").score == 0.5
        assert graph.specificity("T:3").score == 1.0

    def test_single_node_scores_one(self):
        graph = load_obo("[Term]\nid: T:1\n", "T")
        metrics = graph.specificity("T:1")
        assert (metrics.depth, metrics.branch_length, metrics.score) == (0, 0, 1.0)

    def test_diamond_depth(self):
        graph = load_obo(DIAMOND, "T")
        assert graph.depth("T:D") == 2
        assert graph.branch_length("T:B") == 2

    def test_unknown_term(self):
        graph = load_obo(CHAIN, "T")
        with pytest.raises(UnknownTermError):
            graph.depth("T:999")
        with pytest.raises(UnknownTermError):
            graph.branch_length("T:999")
        with pytest.raises(UnknownTermError):
            graph.specificity("T:999")

    def test_matches_oracle_on_random_dags(self):
        rng = random.Random(4242)
        for _ in range(40):
            parents = random_parents(rng)
            graph = load_obo(obo_from_parents(parents), "T")
            depth, branch, score, _ = brute_force_metrics(parents)
            for term in parents:
                assert graph.depth(term) == depth[term], term
                assert graph.branch_length(term) == branch[term], term
                assert graph.specificity(term).score == pytest.approx(score[term])

    def test_monotone_along_paths(self):
        rng = random.Random(99)
        for _ in range(20):
            parents = random_parents(rng)
            graph = load_obo(obo_from_parents(parents), "T")
            _, _, _, paths = brute_force_metrics(parents)
            for path in paths:
                scores = [graph.specificity(t).score for t in path]
                assert scores == sorted(scores)
                if len(path) > 1:
                    assert scores[0] == 0.0
                assert scores[-1] == 1.0

    def test_reload_is_deterministic(self):
        rng = random.Random(7)
        parents = random_parents(rng)
        content = obo_from_parents(parents)
        first = load_obo(content, "T")
        second = load_obo(content, "T")
        assert first.terms == second.terms
        for term in parents:
            assert first.specificity(term) == second.specificity(term)

    def test_branch_bounded_by_term_count(self):
        rng = random.Random(11)
        for _ in range(20):
            parents = random_parents(rng)
            graph = load_obo(obo_from_parents(parents), "T")
            for term in parents:
                assert 0 <= graph.depth(term) <= graph.branch_length(term)
                assert graph.branch_length(term) <= len(parents) - 1 or len(parents) == 1


class TestCatalog:
    def test_lookup(self, tmp_path):
        catalog_path = write_catalog(tmp_path, {"T": CHAIN})
        catalog = OntologyCatalog.from_file(catalog_path)
        assert catalog.prefixes == {"T"}
        assert catalog.lookup("T", "T:3").score == 1.0
        assert catalog.lookup("T", "T:404") is None
        assert catalog.lookup("NOPE", "NOPE:1") is None

    def test_missing_obo_file_skipped(self, tmp_path):
        catalog_file = tmp_path / "catalog.tsv"
        catalog_file.write_text("T\tmissing.obo\n", encoding="utf-8")
        catalog = OntologyCatalog.from_file(catalog_file)
        assert catalog.prefixes == frozenset()
        assert catalog.get("T") is None

    def test_relative_paths_resolve_against_catalog_dir(self, tmp_path):
        sub = tmp_path / "ontologies"
        sub.mkdir()
        (sub / "t.obo").write_text(CHAIN, encoding="utf-8")
        catalog_file = sub / "catalog.tsv"
        catalog_file.write_text("T\tt.obo\n", encoding="utf-8")
        catalog = OntologyCatalog.from_file(catalog_file)
        assert catalog.lookup("T", "T:1") is not None

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        (tmp_path / "t.obo").write_text(CHAIN, encoding="utf-8")
        catalog_file = tmp_path / "catalog.tsv"
        catalog_file.write_text("# prefix\tpath\n\nT\tt.obo\n", encoding="utf-8")
        assert OntologyCatalog.from_file(catalog_file).prefixes == {"T"}

    def test_line_without_a_tab_is_skipped_with_warning(self, tmp_path, caplog):
        (tmp_path / "t.obo").write_text(CHAIN, encoding="utf-8")
        catalog_file = tmp_path / "catalog.tsv"
        catalog_file.write_text("GO go.obo\nT\tt.obo\n", encoding="utf-8")
        assert OntologyCatalog.from_file(catalog_file).prefixes == {"T"}
        assert f"{catalog_file}:1: skipping malformed catalog line" in caplog.text

    def test_byte_order_mark_opening_the_catalog_is_not_part_of_a_prefix(self, tmp_path):
        (tmp_path / "go.obo").write_text(chain_obo(["GO:1", "GO:2"]), encoding="utf-8")
        catalog_file = tmp_path / "catalog.tsv"
        catalog_file.write_bytes(codecs.BOM_UTF8 + b"GO\tgo.obo\n")
        catalog = OntologyCatalog.from_file(catalog_file)
        assert catalog.prefixes == {"GO"}
        assert catalog.lookup("GO", "GO:2").score == 1.0

    def test_byte_order_mark_opening_an_obo_file_keeps_the_first_stanza(self, tmp_path):
        obo = "[Term]\nid: GO:1\n\n[Term]\nid: GO:2\nis_a: GO:1 ! parent\n"
        (tmp_path / "go.obo").write_bytes(codecs.BOM_UTF8 + obo.encode("utf-8"))
        catalog_file = tmp_path / "catalog.tsv"
        catalog_file.write_text("GO\tgo.obo\n", encoding="utf-8")
        graph = OntologyCatalog.from_file(catalog_file).get("GO")
        assert graph.terms == {"GO:1", "GO:2"}
        assert (graph.depth("GO:1"), graph.depth("GO:2")) == (0, 1)

    def test_repeated_prefix_keeps_the_first_line(self, tmp_path, caplog):
        (tmp_path / "a.obo").write_text(CHAIN, encoding="utf-8")
        (tmp_path / "b.obo").write_text(chain_obo(["T:7", "T:8"]), encoding="utf-8")
        catalog_file = tmp_path / "catalog.tsv"
        catalog_file.write_text("T\ta.obo\n# again\nT\tb.obo\n", encoding="utf-8")
        with mock.patch.object(ontology, "load_obo", wraps=ontology.load_obo) as load:
            catalog = OntologyCatalog.from_file(catalog_file)
        assert load.call_count == 1
        assert catalog.lookup("T", "T:3").score == 1.0
        assert catalog.lookup("T", "T:7") is None
        assert f"{catalog_file}:3: prefix T already listed on line 1" in caplog.text

    def test_non_utf8_obo_file_skipped_with_warning(self, tmp_path, caplog):
        ids = [f"GO:{i}" for i in range(1000)]
        catalog_path = write_catalog(tmp_path, {"GO": chain_obo(ids), "T": CHAIN})
        go = tmp_path / "go.obo"
        go.write_bytes(go.read_bytes() + b"[Term]\nid: GO:1000\nname: caf\xe9\n")
        # Small chunks: the bad byte is decoded after many stanzas were parsed.
        with mock.patch.object(ontology, "CHUNK_CHARS", 64):
            catalog = OntologyCatalog.from_file(catalog_path)
        assert catalog.prefixes == {"T"}
        assert catalog.lookup("GO", "GO:1") is None
        assert "catalog prefix GO unavailable: 'utf-8' codec can't decode byte 0xe9" in caplog.text

    def test_file_line_breaks_read_as_read_text_does(self, tmp_path):
        lines = merge_obo(chain_obo([f"T:{i}" for i in range(300)]), DIAMOND).split("\n")
        raw = "".join(line + end for line, end in zip(lines, itertools.cycle(["\r\n", "\r", "\n"])))
        (tmp_path / "t.obo").write_bytes(raw.encode("utf-8"))
        (tmp_path / "catalog.tsv").write_text("T\tt.obo\n", encoding="utf-8")
        with mock.patch.object(ontology, "CHUNK_CHARS", 7):
            graph = OntologyCatalog.from_file(tmp_path / "catalog.tsv").get("T")
        expected = oracle_load_obo((tmp_path / "t.obo").read_text(encoding="utf-8"), "T")
        assert_same_graph(graph, expected)


class TestGraphConstruction:
    def test_direct_construction_matches_loader(self):
        parents = {"T:1": set(), "T:2": {"T:1"}, "T:3": {"T:2"}}
        direct = OntologyGraph("T", parents)
        loaded = load_obo(CHAIN, "T")
        for term in parents:
            assert direct.specificity(term) == loaded.specificity(term)

    def test_duplicate_parents_in_mapping_count_once(self):
        graph = OntologyGraph("T", {"T:1": [], "T:2": ["T:1", "T:1"]})
        assert graph.roots == {"T:1"}
        assert graph.depth("T:2") == 1
        assert graph.branch_length("T:1") == 1

    def test_unknown_parent_names_term_and_parent(self):
        with pytest.raises(OntologyError, match="T:2: parent T:1 is not a term"):
            OntologyGraph("T", {"T:2": ["T:1"]})

    def test_input_order_changes_nothing(self, tmp_path):
        parents = random_parents(random.Random("input-order"), max_nodes=60)
        graphs, entries = [], []
        for name, mapping in [("forward", parents), ("reversed", dict(reversed(parents.items())))]:
            catalog_path = write_catalog(tmp_path / name, {"T": obo_from_parents(mapping)})
            graphs.append(load_catalog(catalog_path)[0].get("T"))
            entries.append(ontology._cache_entry(catalog_path.parent / "t.obo", "T"))
        assert entries[0].name != entries[1].name
        assert entries[0].read_bytes() == entries[1].read_bytes()
        depth, branch, _, _ = brute_force_metrics(parents)
        for graph in graphs:
            assert graph.terms == set(parents)
            assert graph.roots == {t for t, ps in parents.items() if not ps}
            assert [(graph.depth(t), graph.branch_length(t)) for t in parents] == [
                (depth[t], branch[t]) for t in parents
            ]
        unknown = {"T:2": ["T:0"], "T:1": ["T:9"], "T:3": []}
        for keys in (list(unknown), list(unknown)[::-1]):
            with pytest.raises(OntologyError, match="^T:1: parent T:9 is not a term"):
                OntologyGraph("T", {key: unknown[key] for key in keys})

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_structure_matches_input_mapping(self, rnd):
        parents = random_parents(rnd)
        roots = {t for t, ps in parents.items() if not ps}
        depth, branch, _, _ = brute_force_metrics(parents)
        for graph in (OntologyGraph("T", parents), load_obo(obo_from_parents(parents), "T")):
            assert graph.terms == set(parents)
            assert graph.roots == roots
            for term in parents:
                assert (graph.depth(term), graph.branch_length(term)) == (depth[term], branch[term])


#: Term ids from two prefixes, few enough that stanzas collide and cycle.
_OBO_IDS = st.sampled_from(["T:1", "T:2", "T:3", "T:4", "X:1", "T", ""])

#: Lines that are either arbitrary text or OBO stanza headers and tags.
_obo_lines = st.one_of(
    st.text(),
    st.sampled_from(["[Term]", "[Typedef]", "[Term", "", "is_obsolete: true"]),
    st.builds(
        lambda tag, term, tail: f"{tag}: {term}{tail}",
        st.sampled_from(["id", "is_a", "is_obsolete", "relationship", "name"]),
        _OBO_IDS,
        st.sampled_from(["", " ! comment", " {source=x}", "!"]) | st.text(max_size=5),
    ),
)


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_obo_lines, max_size=20).map("\n".join))
    def test_arbitrary_text_raises_only_ontology_error(self, content):
        try:
            graph = load_obo(content, "T")
        except OntologyError:
            return
        for term in graph.terms:
            assert 0.0 <= graph.specificity(term).score <= 1.0


#: Line breaks that ``str.splitlines`` honours, some of which text mode leaves alone.
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def obo_like_text(draw):
    """Fuzz lines or a random DAG's stanzas, each line ended by any break but maybe the last."""
    if draw(st.booleans()):
        lines = draw(st.lists(_obo_lines, max_size=30))
    else:
        parents = random_parents(draw(st.randoms(use_true_random=False)))
        lines = obo_from_parents(parents).split("\n")
    breaks = [draw(_BREAKS) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, breaks))
    if lines and draw(st.booleans()):
        text = text[: -len(breaks[-1])]
    return text


def load_outcome(load):
    """The graph ``load()`` builds, or the ``OntologyError`` it raises."""
    try:
        return load()
    except OntologyError as exc:
        return exc


def assert_same_graph(graph, expected):
    """Equal terms, roots and metrics, or the same error type and cycle."""
    if isinstance(expected, OntologyError):
        assert type(graph) is type(expected)
        assert getattr(graph, "cycle", None) == getattr(expected, "cycle", None)
        return
    assert not isinstance(graph, OntologyError), graph
    assert graph.terms == expected.terms
    assert graph.roots == expected.roots
    for term in expected.terms:
        assert graph.specificity(term) == expected.specificity(term)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(obo_like_text(), st.integers(min_value=1, max_value=8))
    def test_stream_in_small_chunks_equals_oracle(self, content, chunk):
        expected = load_outcome(lambda: oracle_load_obo(content, "T"))
        with mock.patch.object(ontology, "CHUNK_CHARS", chunk):
            streamed = load_outcome(lambda: load_obo(io.StringIO(content), "T"))
        assert_same_graph(streamed, expected)
        assert_same_graph(load_outcome(lambda: load_obo(content, "T")), streamed)


def cache_entries(graph_cache):
    """Names of the files in the graph cache directory."""
    return sorted(p.name for p in graph_cache.iterdir()) if graph_cache.exists() else []


def load_catalog(catalog_path):
    """The catalog at ``catalog_path`` and how many OBO files it parsed."""
    with mock.patch.object(ontology, "load_obo", wraps=ontology.load_obo) as load:
        catalog = OntologyCatalog.from_file(catalog_path)
    return catalog, load.call_count


def assert_same_catalog(catalog, expected):
    assert catalog.prefixes == expected.prefixes
    for prefix in expected.prefixes:
        assert_same_graph(catalog.get(prefix), expected.get(prefix))


def split_entry(entry):
    """An ``entry`` of the current layout as its head's fields, its two arrays and its ids."""
    head, _, body = entry.partition(b"\n")
    fields = head.split()
    itemsize, n = map(int, fields[2:4])
    size = n * itemsize
    arrays = [array("i") for _ in ontology._ARRAYS]
    for k, values in enumerate(arrays):
        values.frombytes(body[k * size : (k + 1) * size])
    return fields, arrays, body[len(arrays) * size :]


def joined_entry(fields, arrays, ids):
    """The entry of body ``arrays`` then ``ids``, behind head ``fields`` with a fresh digest last."""
    body = b"".join(values.tobytes() for values in arrays) + ids
    digest = hashlib.sha256(ontology._source() + body).hexdigest().encode()
    return b" ".join([*fields[:-1], digest]) + b"\n" + body


def six_arrays(entry):
    """The arrays that layouts 1 to 3 stored for ``entry``: parent and child CSR, depth, height.

    Each CSR layout is an array of offsets and one of term numbers. The
    edges are the oracle's for ``DAMAGED``, the content the entry was made
    from, numbered as the entry's ids are.
    """
    _, arrays, ids = split_entry(entry)
    names = ids.decode("utf-8").split("\n")
    number = dict(zip(names, range(len(names))))
    oracle = oracle_load_obo(DAMAGED, "T")
    edges = []
    for linked in (oracle.parents, oracle.children):
        numbers = [sorted(map(number.__getitem__, linked(name))) for name in names]
        edges += [array("i", itertools.accumulate(map(len, numbers), initial=0)),
                  array("i", itertools.chain.from_iterable(numbers))]
    return [*edges, *arrays]


def by_name(arrays):
    """``arrays`` and a seventh, the term numbers in id order, which layout 2 stored."""
    return [*arrays, array("i", range(len(arrays[-1])))]


def earlier_layout(entry, tag, arrays_of=list):
    """``entry`` as layouts 1 and 2 wrote it, one length per array in the head, but under ``tag``.

    Layout 1 held the six arrays, in load order; layout 2 added ``by_name``.
    The damaged catalog's terms load in id order, so both orders agree.
    """
    (_, order, itemsize, *_), _, ids = split_entry(entry)
    arrays = arrays_of(six_arrays(entry))
    lengths = [str(len(values)).encode() for values in arrays]
    return joined_entry([tag, order, itemsize, *lengths, str(len(ids)).encode(), b""], arrays, ids)


def layout_3(entry):
    """``entry`` as layout 3 wrote it (six arrays; terms, edges and id bytes in the head), same tag."""
    (tag, order, itemsize, n, id_bytes, _), _, ids = split_entry(entry)
    arrays = six_arrays(entry)
    edges = str(len(arrays[1])).encode()
    return joined_entry([tag, order, itemsize, n, edges, id_bytes, b""], arrays, ids)


def seven_arrays(entry):
    """``entry`` with the seven arrays of layout 2, behind a head of the current layout."""
    fields, _, ids = split_entry(entry)
    return joined_entry(fields, by_name(six_arrays(entry)), ids)


def recounted(entry, terms=0, id_bytes=0):
    """``entry`` with the counts in its head moved by these amounts.

    The body, and so the digest in the head, stay as they were.
    """
    head, _, body = entry.partition(b"\n")
    fields = head.split()
    for position, move in ((3, terms), (-2, id_bytes)):
        fields[position] = str(int(fields[position]) + move).encode()
    return b" ".join(fields) + b"\n" + body


def without_terms(entry):
    """``entry`` whose head counts no terms, and the bytes of its arrays as ids instead."""
    n = int(entry.split()[3])
    return recounted(entry, terms=-n, id_bytes=len(ontology._ARRAYS) * n * array("i").itemsize)


def flip_bit(entry, position):
    return entry[:position] + bytes([entry[position] ^ 0x01]) + entry[position + 1 :]


def foreign_byte_order(entry):
    """``entry`` as a machine of the other byte order would have written it."""
    fields, arrays, ids = split_entry(entry)
    for values in arrays:
        values.byteswap()
    fields[1] = {b"little": b"big", b"big": b"little"}[fields[1]]
    return joined_entry(fields, arrays, ids)


#: One edit of an entry's bytes: its kind, its position (taken modulo the entry's length,
#: and drawn from the head as often as from anywhere) and a non-zero byte to flip by or insert.
ENTRY_EDIT = st.tuples(
    st.sampled_from(["flip", "insert", "delete", "truncate"]),
    st.one_of(st.integers(0, 120), st.integers(0, 1 << 16)),
    st.integers(1, 255),
)


def edited(entry, edits):
    """``entry`` after each of ``edits``, made in turn."""
    for kind, position, byte in edits:
        at = position % max(len(entry), 1)
        if kind == "flip" and entry:
            entry = entry[:at] + bytes([entry[at] ^ byte]) + entry[at + 1 :]
        elif kind == "insert":
            entry = entry[:at] + bytes([byte]) + entry[at:]
        elif kind == "delete":
            entry = entry[:at] + entry[at + 1 :]
        elif kind == "truncate":
            entry = entry[:at]
    return entry


def resigned(entry):
    """``entry`` with the last field of its head replaced by the loader's digest of the rest."""
    head, _, body = entry.partition(b"\n")
    return joined_entry(head.split(), [], body)


#: Enough terms that the arrays of their entry hold bytes that are not UTF-8 (0x80 and up).
LONG_CHAIN = chain_obo([f"T:c{i:03d}" for i in range(300)])

#: The content whose cache entry each damage case starts from.
DAMAGED = merge_obo(CHAIN, DIAMOND, LONG_CHAIN)


class TestGraphCache:
    """A cache entry only ever saves a parse: every load gives the parsed graph."""

    @pytest.fixture
    def catalog_path(self, tmp_path):
        return write_catalog(tmp_path / "ontologies", {"T": merge_obo(CHAIN, DIAMOND)})

    @pytest.mark.parametrize("workload", ["ontology-heavy", "corpus-heavy"])
    def test_warm_load_equals_cold_on_a_generated_catalog(
        self, workload, tmp_path, graph_cache, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import generate

        spec = generate.WORKLOADS[workload]
        generate._write_catalog(random.Random(f"{workload}:1"), spec, tmp_path / "ontologies")
        cold, parsed = load_catalog(tmp_path / "ontologies" / "catalog.tsv")
        assert parsed == len(spec.ontologies)
        assert len(cache_entries(graph_cache)) == len(spec.ontologies)
        warm, parsed = load_catalog(tmp_path / "ontologies" / "catalog.tsv")
        assert parsed == 0
        assert_same_catalog(warm, cold)

    def test_warm_load_equals_cold_on_the_reference_catalog(self, mtbls95_catalog):
        cold, parsed = load_catalog(mtbls95_catalog)
        assert parsed == 5
        warm, parsed = load_catalog(mtbls95_catalog)
        assert parsed == 0
        assert_same_catalog(warm, cold)

    @settings(max_examples=100, deadline=None)
    @given(obo_like_text())
    def test_warm_load_equals_parse_on_any_content(self, content):
        expected = load_outcome(lambda: load_obo(content, "T"))
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
            os.environ, {"XDG_CACHE_HOME": tmp}
        ):
            catalog_path = write_catalog(Path(tmp) / "ontologies", {"T": content})
            cold, _ = load_catalog(catalog_path)
            warm, parsed = load_catalog(catalog_path)
            entries = cache_entries(Path(tmp) / "annorate" / "graphs")
        if isinstance(expected, OntologyError):
            assert cold.prefixes == warm.prefixes == frozenset()
            assert (parsed, entries) == (1, [])
        else:
            assert (parsed, len(entries)) == (0, 1)
            assert_same_graph(cold.get("T"), expected)
            assert_same_graph(warm.get("T"), expected)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda entry: entry[: len(entry) // 2],
            lambda entry: flip_bit(entry, len(entry) - 3),
            lambda entry: flip_bit(entry, entry.index(b"\n") + 5),
            lambda entry: flip_bit(entry, entry.index(b"\n") - 66),
            lambda entry: b"x" + entry[1:],
            lambda entry: b"",
            foreign_byte_order,
            lambda entry: earlier_layout(entry, b"annorate-graph-1"),
            lambda entry: earlier_layout(entry, b"annorate-graph-2", by_name),
            lambda entry: earlier_layout(entry, ontology._ENTRY_TAG),
            seven_arrays,
            layout_3,
            lambda entry: recounted(entry, terms=10**6),
            # the id byte count moves by the bytes the arrays lose or gain, so the size fits
            lambda entry: recounted(entry, terms=-300, id_bytes=2 * 300 * array("i").itemsize),
            lambda entry: recounted(entry, terms=-1, id_bytes=2 * array("i").itemsize),
            lambda entry: recounted(entry, terms=1000, id_bytes=-2 * 1000 * array("i").itemsize),
            without_terms,
        ],
        ids=["truncated", "bit-flipped-id", "bit-flipped-array", "bit-flipped-length",
             "wrong-magic", "empty", "foreign-byte-order", "layout-1", "layout-2",
             "six-arrays-under-the-new-tag", "seven-arrays-under-the-new-tag",
             "layout-3-under-the-new-tag", "counts-beyond-the-body", "arrays-read-as-bad-utf-8",
             "arrays-read-as-ids", "negative-id-byte-count", "no-terms"],
    )
    def test_damaged_entry_is_a_miss_and_is_rewritten(self, damage, tmp_path, graph_cache):
        catalog_path = write_catalog(tmp_path, {"T": DAMAGED})
        cold, _ = load_catalog(catalog_path)
        (name,) = cache_entries(graph_cache)
        entry = graph_cache / name
        written = entry.read_bytes()
        entry.write_bytes(damage(written))
        reloaded, parsed = load_catalog(catalog_path)
        assert parsed == 1
        assert_same_catalog(reloaded, cold)
        assert entry.read_bytes() == written
        assert load_catalog(catalog_path)[1] == 0

    def test_a_graph_keeps_only_what_specificity_reads(self, catalog_path):
        cold, parsed = load_catalog(catalog_path)
        warm, reparsed = load_catalog(catalog_path)
        assert (parsed, reparsed) == (1, 0)
        for graph in (cold.get("T"), warm.get("T")):
            assert sorted(vars(graph)) == ["_depth", "_height", "_names", "prefix"]

    def test_unwritable_cache_still_loads_without_a_warning(
        self, catalog_path, tmp_path, monkeypatch, caplog
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for _ in range(2):
            catalog, parsed = load_catalog(catalog_path)
            assert parsed == 1
            assert_same_graph(catalog.get("T"), load_obo(merge_obo(CHAIN, DIAMOND), "T"))
        assert caplog.records == []
        assert blocker.read_text(encoding="utf-8") == ""

    def test_store_failing_mid_write_still_loads_without_a_warning(
        self, catalog_path, graph_cache, caplog
    ):
        replace_file, written = _files.replace_file, []

        def full_disk_after_the_head(path, chunks, *args, **kwargs):
            def head_then_fail():
                yield next(iter(chunks))
                written.extend(graph_cache.iterdir())  # the partial entry, beside its target
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            replace_file(path, head_then_fail(), *args, **kwargs)

        with mock.patch.object(_files, "replace_file", full_disk_after_the_head):
            catalog, parsed = load_catalog(catalog_path)
        assert parsed == 1
        assert_same_graph(catalog.get("T"), load_obo(merge_obo(CHAIN, DIAMOND), "T"))
        assert caplog.records == []
        assert len(written) == 1 and written[0].name.endswith(".part")
        assert cache_entries(graph_cache) == []
        assert load_catalog(catalog_path)[1] == 1
        assert load_catalog(catalog_path)[1] == 0

    def test_relative_cache_home_is_ignored(self, catalog_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        load_catalog(catalog_path)
        assert not (tmp_path / "relative").exists()
        assert len(cache_entries(tmp_path / "home" / ".cache" / "annorate" / "graphs")) == 1
        assert load_catalog(catalog_path)[1] == 0

    def test_relative_home_means_no_cache(self, catalog_path, tmp_path, monkeypatch, caplog):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", "relative")
        for _ in range(2):
            catalog, parsed = load_catalog(catalog_path)
            assert parsed == 1
            assert_same_graph(catalog.get("T"), load_obo(merge_obo(CHAIN, DIAMOND), "T"))
        assert list(tmp_path.rglob("*.graph")) == []
        assert caplog.records == []

    def test_entry_of_another_loader_is_replaced_in_place(self, catalog_path, graph_cache):
        cold, _ = load_catalog(catalog_path)
        (name,) = cache_entries(graph_cache)
        entry = graph_cache / name
        written = entry.read_bytes()
        source = ontology._source()
        with mock.patch.object(ontology, "_source", lambda: source + b"#"):
            other, parsed = load_catalog(catalog_path)
            assert parsed == 1
            assert cache_entries(graph_cache) == [name]
            assert entry.read_bytes() != written
            assert load_catalog(catalog_path)[1] == 0
        assert_same_catalog(other, cold)
        reloaded, parsed = load_catalog(catalog_path)
        assert parsed == 1
        assert_same_catalog(reloaded, cold)
        assert cache_entries(graph_cache) == [name]
        assert entry.read_bytes() == written

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(ENTRY_EDIT, min_size=1, max_size=4), st.booleans())
    def test_any_damage_is_a_miss_unless_re_signed(self, edits, signed):
        """A damaged entry is parsed over and rewritten; one re-signed after the damage is trusted.

        Either way the load raises nothing and warns of nothing, and no lookup raises.
        """
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(
            os.environ, {"XDG_CACHE_HOME": tmp}
        ):
            catalog_path = write_catalog(Path(tmp) / "ontologies", {"T": DAMAGED})
            cold = OntologyCatalog.from_file(catalog_path)
            (entry,) = (Path(tmp) / "annorate" / "graphs").iterdir()
            written = entry.read_bytes()
            damaged = edited(written, edits)
            entry.write_bytes(resigned(damaged) if signed else damaged)
            with mock.patch.object(ontology.log, "warning") as warning:
                catalog = OntologyCatalog.from_file(catalog_path)
            warning.assert_not_called()
            for term in cold.get("T").terms:
                catalog.lookup("T", term)
            if not signed:
                assert_same_catalog(catalog, cold)
                assert entry.read_bytes() == written

    def test_changed_obo_bytes_miss(self, catalog_path, graph_cache):
        load_catalog(catalog_path)
        obo = catalog_path.parent / "t.obo"
        obo.write_text(obo.read_text(encoding="utf-8") + "[Term]\nid: T:4\nis_a: T:3\n",
                       encoding="utf-8")
        catalog, parsed = load_catalog(catalog_path)
        assert parsed == 1
        assert catalog.lookup("T", "T:4").score == 1.0
        assert len(cache_entries(graph_cache)) == 2

    def test_one_file_under_two_prefixes_has_two_entries(self, tmp_path, graph_cache):
        content = merge_obo(CHAIN, chain_obo(["X:1", "X:2"]))
        (tmp_path / "both.obo").write_text(content, encoding="utf-8")
        (tmp_path / "catalog.tsv").write_text("T\tboth.obo\nX\tboth.obo\n", encoding="utf-8")
        for expected_parses in (2, 0):
            catalog, parsed = load_catalog(tmp_path / "catalog.tsv")
            assert parsed == expected_parses
            assert catalog.get("T").terms == {"T:1", "T:2", "T:3"}
            assert catalog.get("X").terms == {"X:1", "X:2"}
        assert len(cache_entries(graph_cache)) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            (b"[Term]\nid: T:1\nname: caf\xe9\n", "codec can't decode"),
            (b"format-version: 1.2\n", "no terms with prefix 'T'"),
            (b"[Term]\nid: T:1\nis_a: T:2\n\n[Term]\nid: T:2\nis_a: T:1\n", "cycle"),
        ],
        ids=["missing", "non-utf-8", "empty", "cyclic"],
    )
    def test_failed_file_is_never_cached(self, content, message, tmp_path, graph_cache, caplog):
        if content is not None:
            (tmp_path / "t.obo").write_bytes(content)
        (tmp_path / "catalog.tsv").write_text("T\tt.obo\n", encoding="utf-8")
        for attempt in (1, 2):
            assert OntologyCatalog.from_file(tmp_path / "catalog.tsv").prefixes == frozenset()
            warnings = [r.getMessage() for r in caplog.records if "T unavailable" in r.getMessage()]
            assert len(warnings) == attempt and message in warnings[-1]
        assert cache_entries(graph_cache) == []

    def test_racing_loads_leave_one_valid_entry(self, catalog_path, graph_cache):
        replace = os.replace
        raced = []

        def race_then_replace(partial, entry):
            if not raced:  # another load finishes between this one's write and rename
                raced.append(None)  # set first, so that the other load renames unraced
                raced[0] = OntologyCatalog.from_file(catalog_path)
            replace(partial, entry)

        with mock.patch.object(ontology.os, "replace", side_effect=race_then_replace):
            first = OntologyCatalog.from_file(catalog_path)
        assert len(cache_entries(graph_cache)) == 1
        warm, parsed = load_catalog(catalog_path)
        assert parsed == 0
        for catalog in (*raced, warm):
            assert_same_catalog(catalog, first)


#: Ids that are not terms of ``SEARCHED``, by where they fall among its sorted ids.
ABSENT_IDS = {
    "before-the-first": "T:0",
    "before-every-id": "",
    "after-the-last": "T:\u00ff",
    "other-prefix-after": "X:1",
    "between-neighbours": "T:3",
    "proper-prefix": "T:",
    "prefix-of-the-prefix": "T",
    "id-with-suffix": "T:40",
    "id-with-a-space": "T:6 ",
    "non-ascii": "T:4\u00e9",
    "non-ascii-neighbour": "T:\u00e9",
}

#: Terms whose ids sort differently from their load order, one of them non-ASCII.
SEARCHED = merge_obo(chain_obo(["T:6", "T:2", "T:\u00e8", "T:4"]), chain_obo(["T:10"]))


class TestTermSearch:
    """A term is found by bisection over the ids; an absent id is never a near one."""

    @pytest.fixture(params=["cold", "warm"])
    def searched(self, request, tmp_path):
        """The graph of ``SEARCHED``, parsed or read back from its cache entry."""
        catalog_path = write_catalog(tmp_path / "ontologies", {"T": SEARCHED})
        catalog, parsed = load_catalog(catalog_path)
        if request.param == "warm":
            catalog, parsed = load_catalog(catalog_path)
        assert parsed == (request.param == "cold")
        return catalog

    @pytest.mark.parametrize("term", ABSENT_IDS.values(), ids=ABSENT_IDS.keys())
    def test_absent_id_behaves_as_in_the_oracle(self, term, searched):
        graph, oracle = searched.get("T"), oracle_load_obo(SEARCHED, "T")
        assert term not in oracle
        assert term not in graph
        for query in ("depth", "branch_length", "specificity"):
            for g in (oracle, graph):
                with pytest.raises(UnknownTermError):
                    getattr(g, query)(term)
        assert searched.lookup("T", term) is None

    def test_every_term_is_found(self, searched):
        graph = searched.get("T")
        assert_same_graph(graph, oracle_load_obo(SEARCHED, "T"))
        assert all(term in graph for term in graph.terms)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_ids_in_any_order_match_the_oracle(self, order, tmp_path, graph_cache):
        rng = random.Random(f"order:{order}")
        for attempt in range(12):
            parents = random_parents(rng, max_nodes=40)
            terms = list(parents)[::-1] if order == "reversed" else rng.sample(list(parents), len(parents))
            mapping = {term: parents[term] for term in terms}
            oracle = OracleGraph("T", mapping)
            probes = [*terms, *(t + "0" for t in terms), *(t[:-1] for t in terms), "", "T:~"]
            content = obo_from_parents(mapping)
            catalog_path = write_catalog(tmp_path / str(attempt), {"T": content})
            cold, _ = load_catalog(catalog_path)
            warm, parsed = load_catalog(catalog_path)
            assert parsed == 0
            for graph in (OntologyGraph("T", mapping), cold.get("T"), warm.get("T")):
                assert_same_graph(graph, oracle)
                assert [t in graph for t in probes] == [t in oracle for t in probes]

    def test_roots_after_a_warm_load_equal_the_oracle(self, tmp_path):
        content = merge_obo(chain_obo(["T:9", "T:1"]), DIAMOND, chain_obo(["T:5"]))
        catalog_path = write_catalog(tmp_path, {"T": content})
        load_catalog(catalog_path)
        warm, parsed = load_catalog(catalog_path)
        assert parsed == 0
        assert warm.get("T").roots == oracle_load_obo(content, "T").roots == {"T:9", "T:A", "T:5"}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=4), min_size=1, max_size=12, unique=True), st.text(max_size=5))
    def test_membership_equals_a_set_of_the_ids(self, ids, probe):
        graph = OntologyGraph("T", dict.fromkeys(ids, ()))
        assert (probe in graph) == (probe in set(ids))
        assert all(term in graph for term in ids)

    def test_lookup_searches_the_graph_once(self, tmp_path):
        catalog = OntologyCatalog.from_file(write_catalog(tmp_path, {"T": CHAIN}))
        with mock.patch.object(
            OntologyGraph, "_find", autospec=True, side_effect=OntologyGraph._find
        ) as find:
            assert catalog.lookup("T", "T:3").score == 1.0
            assert catalog.lookup("T", "T:404") is None
        assert find.call_count == 2

    def test_module_source_is_read_once_per_process(self, tmp_path):
        catalog_path = write_catalog(tmp_path, {"T": CHAIN, "X": chain_obo(["X:1", "X:2"])})
        source, read_bytes, reads = Path(ontology.__file__), Path.read_bytes, []

        def counting_read(path):
            reads.append(path == source)
            return read_bytes(path)

        ontology._source.cache_clear()
        with mock.patch.object(Path, "read_bytes", counting_read):
            for _ in range(2):
                assert OntologyCatalog.from_file(catalog_path).prefixes == {"T", "X"}
        assert sum(reads) == 1
