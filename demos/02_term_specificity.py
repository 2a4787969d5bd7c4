"""Load an ontology from OBO and score how specific each term is.

A term's specificity is its depth divided by the length of its branch (the
longest root-to-leaf path running through it), both counted in edges. A root
with descendants scores 0, a leaf scores 1, and the score never decreases on
the way down: deeper terms under the same branch are more specific.
"""

from pathlib import Path

from annorate import load_obo

DATA = Path(__file__).parent / "data"

graph = load_obo((DATA / "ontologies" / "go.obo").read_text(), "GO")

print(f"GO graph: {len(graph)} terms, roots = {sorted(graph.roots)}")
print()
print(f"{'term':14s} {'depth':>5s} {'branch':>6s} {'score':>7s}")
for term in sorted(graph.terms):
    m = graph.specificity(term)
    print(f"{term:14s} {m.depth:5d} {m.branch_length:6d} {m.score:7.3f}")

print()
print("walking down the longest branch, scores rise monotonically:")
# The terms on a longest branch are those whose branch length is the longest;
# each scores depth / longest, so in order of depth the scores rise.
longest = max(graph.branch_length(t) for t in graph.terms)
path = sorted((t for t in graph.terms if graph.branch_length(t) == longest), key=graph.depth)
print("  " + "  ->  ".join(f"{t} ({graph.specificity(t).score:.2f})" for t in path))

# A single isolated term is both root and leaf; it is defined to score 1,
# being maximally specific within its trivial branch.
lonely = load_obo("[Term]\nid: X:1\n", "X")
print()
print("isolated term score:", lonely.specificity("X:1").score)
