"""The pruned canonical search returns exactly what the unpruned one does.

``canonical_search`` skips subtrees that automorphisms found on the way
prove redundant.  The oracle below is the plain individualization–
refinement recursion without any pruning: on every input both must return
the same minimum encoding *and* the same node order (the first leaf that
attains it), because the shared class structure is mapped back through
that order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.canonical import (
    Digraph,
    _digraph_refinement_python,
    _encode_ordering,
    _normalize_palette,
    canonical_search,
)
from repro.perf import uncached


def unpruned_search(g):
    best = [None]

    def recurse(classes):
        classes = _digraph_refinement_python(g, classes)
        cells = {}
        for node, cid in enumerate(classes):
            cells.setdefault(cid, []).append(node)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            order = sorted(range(g.num_nodes), key=lambda x: classes[x])
            enc = _encode_ordering(g, order)
            if best[0] is None or enc < best[0][0]:
                best[0] = (enc, tuple(order))
            return
        for node in target:
            child = list(classes)
            child[node] = g.num_nodes
            recurse(child)

    recurse(_normalize_palette(g.colors))
    return best[0]


def symmetric(arcs):
    return arcs + [(v, u) for (u, v) in arcs]


def complete(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


def complete_bipartite(m, n):
    return symmetric([(u, m + v) for u in range(m) for v in range(n)])


def cycle(n, offset=0):
    return symmetric([(offset + i, offset + (i + 1) % n) for i in range(n)])


STRUCTURED = [
    ("K6", 6, complete(6)),
    ("K3,4", 7, complete_bipartite(3, 4)),
    ("K1,5", 6, complete_bipartite(1, 5)),
    ("C8", 8, cycle(8)),
    ("2C5", 10, cycle(5) + cycle(5, offset=5)),
    ("3K2", 6, symmetric([(0, 1), (2, 3), (4, 5)])),
    ("empty5", 5, []),
    ("Q3", 8, symmetric([(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)])),
]


@settings(max_examples=60, deadline=None, database=None)
@given(
    index=st.integers(min_value=0, max_value=len(STRUCTURED) - 1),
    seed=st.integers(min_value=0, max_value=10**6),
    colors=st.integers(min_value=1, max_value=3),
)
def test_pruned_search_equals_unpruned_on_symmetric_graphs(index, seed, colors):
    _, n, arcs = STRUCTURED[index]
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    g = Digraph.build(n, arcs, [rng.randrange(colors) for _ in range(n)]).relabeled(perm)
    with uncached():
        assert canonical_search(g) == unpruned_search(g)


@settings(max_examples=80, deadline=None, database=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10**6),
    density=st.sampled_from([0.15, 0.4, 0.7]),
    colors=st.integers(min_value=1, max_value=3),
)
def test_pruned_search_equals_unpruned_on_random_digraphs(n, seed, density, colors):
    rng = random.Random(seed)
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density
    ]
    g = Digraph.build(n, arcs, [rng.randrange(colors) for _ in range(n)])
    with uncached():
        assert canonical_search(g) == unpruned_search(g)


def test_pruning_makes_complete_graphs_polynomial(monkeypatch):
    """K_12 has 12! ≈ 4.8e8 leaves unpruned; the pruned search needs few."""
    from repro.graphs import canonical

    leaves = []
    encode = canonical._encode_ordering
    monkeypatch.setattr(
        canonical, "_encode_ordering", lambda g, order: leaves.append(1) or encode(g, order)
    )
    with uncached():
        canonical_search(Digraph.build(12, complete(12)))
    assert len(leaves) <= 12
