"""Tests for canonical forms (Lemma 3.1) and surroundings (Definition 3.1)."""

import itertools
import random

import pytest

from repro.errors import GraphError
from repro.graphs import (
    Digraph,
    canonical_key,
    canonical_search,
    complete_graph,
    cycle_graph,
    digraphs_isomorphic,
    equivalence_classes,
    grid_graph,
    order_equivalence_classes,
    path_graph,
    petersen_graph,
    star_graph,
    surrounding,
    surrounding_key,
)
from repro.graphs.canonical import _encode_ordering, digraph_refinement
from repro.graphs.surroundings import in_degree_zero_nodes
from repro.perf import uncached


def random_digraph(n, rng, color_count=2):
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.3
    ]
    colors = [rng.randrange(color_count) for _ in range(n)]
    return Digraph.build(n, arcs, colors)


class TestDigraph:
    def test_build_collapses_duplicates(self):
        g = Digraph.build(3, [(0, 1), (0, 1), (1, 2)])
        assert g.out_edges[0] == frozenset({1})

    def test_in_edges(self):
        g = Digraph.build(3, [(0, 1), (2, 1)])
        assert g.in_edges()[1] == frozenset({0, 2})

    def test_relabel_roundtrip(self):
        rng = random.Random(0)
        g = random_digraph(6, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        inverse = [0] * 6
        for i, p in enumerate(perm):
            inverse[p] = i
        assert g.relabeled(perm).relabeled(inverse) == g

    def test_validation(self):
        with pytest.raises(GraphError):
            Digraph(2, (0,), (frozenset(), frozenset()))
        with pytest.raises(GraphError):
            Digraph.build(2, [(0, 5)])


class TestCanonicalForm:
    def test_canonical_key_invariant_under_relabeling(self):
        rng = random.Random(42)
        for trial in range(10):
            g = random_digraph(6, rng)
            perm = list(range(6))
            rng.shuffle(perm)
            assert canonical_key(g) == canonical_key(g.relabeled(perm))

    def test_canonical_key_separates_non_isomorphic(self):
        a = Digraph.build(3, [(0, 1), (1, 2)])
        b = Digraph.build(3, [(0, 1), (1, 2), (2, 0)])
        assert canonical_key(a) != canonical_key(b)

    def test_colors_matter(self):
        a = Digraph.build(2, [(0, 1)], colors=[0, 1])
        b = Digraph.build(2, [(0, 1)], colors=[1, 0])
        assert canonical_key(a) != canonical_key(b)

    def test_color_swap_symmetric_structure(self):
        # Two isolated-ish nodes with symmetric arcs and swapped colors ARE
        # isomorphic (swap the nodes).
        a = Digraph.build(2, [(0, 1), (1, 0)], colors=[0, 1])
        b = Digraph.build(2, [(0, 1), (1, 0)], colors=[1, 0])
        assert digraphs_isomorphic(a, b)

    def test_isomorphism_decision_brute_force_cross_check(self):
        rng = random.Random(7)
        for trial in range(5):
            g = random_digraph(5, rng)
            perm = list(range(5))
            rng.shuffle(perm)
            h = g.relabeled(perm)
            assert digraphs_isomorphic(g, h)
            # Mutate one arc to (usually) break isomorphism; verify the
            # decision against brute force over all 120 bijections.
            arcs = {(u, v) for u in range(5) for v in g.out_edges[u]}
            mutated = Digraph.build(
                5, list(arcs ^ {(0, 1)}), colors=list(g.colors)
            )
            brute = any(
                mutated.relabeled(list(p)) == g
                for p in itertools.permutations(range(5))
            )
            assert digraphs_isomorphic(g, mutated) == brute

    def test_canonical_node_order_is_bijection(self):
        rng = random.Random(3)
        g = random_digraph(6, rng)
        encoding, order = canonical_search(g)
        assert sorted(order) == list(range(6))
        assert _encode_ordering(g, order) == encoding  # the order attains it

    def test_canonical_encoding_deterministic(self):
        g = Digraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with uncached():  # two real searches, not a memo hit
            assert canonical_search(g) == canonical_search(g)

    def test_refinement_is_isomorphism_invariant(self):
        rng = random.Random(5)
        g = random_digraph(6, rng)
        perm = list(range(6))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        rg = digraph_refinement(g, [0] * 6)
        rh = digraph_refinement(h, [0] * 6)
        assert sorted(rg) == sorted(rh)
        # Class of node i in g equals class of perm[i] in h.
        assert all(rg[i] == rh[perm[i]] for i in range(6))


class TestSurroundings:
    def test_root_is_unique_in_degree_zero(self):
        for net in (cycle_graph(5), petersen_graph(), grid_graph(3, 3)):
            for u in net.nodes():
                s = surrounding(net, u)
                assert in_degree_zero_nodes(s) == [u]

    def test_equidistant_neighbors_get_double_arcs(self):
        net = cycle_graph(4)
        s = surrounding(net, 0)
        # Nodes 1 and 3 are both at distance 1; node 2 at distance 2 from
        # both: each of 1,3 points to 2, and 1-3 are not adjacent.
        assert 2 in s.out_edges[1] and 2 in s.out_edges[3]
        assert 1 not in s.out_edges[2] and 3 not in s.out_edges[2]

    def test_surrounding_of_multigraph_rejected(self):
        from repro.graphs import figure2c_view_counterexample

        with pytest.raises(GraphError):
            surrounding(figure2c_view_counterexample(), 0)

    def test_equivalent_nodes_have_equal_keys(self):
        net = cycle_graph(6)
        colors = [1, 0, 0, 1, 0, 0]
        for cls in equivalence_classes(net, colors):
            keys = {surrounding_key(net, u, colors) for u in cls}
            assert len(keys) == 1

    def test_inequivalent_nodes_have_distinct_keys(self):
        net = path_graph(5)
        keys = [surrounding_key(net, u) for u in net.nodes()]
        # Classes are {0,4},{1,3},{2}: exactly 3 distinct keys.
        assert len(set(keys)) == 3
        assert keys[0] == keys[4]
        assert keys[1] == keys[3]


class TestClassOrdering:
    def test_order_is_total_and_deterministic(self):
        net = grid_graph(3, 3)
        colors = [0] * 9
        colors[0] = 1
        classes = equivalence_classes(net, colors)
        o1 = order_equivalence_classes(net, classes, colors)
        o2 = order_equivalence_classes(net, list(reversed(classes)), colors)
        assert o1 == o2

    def test_order_invariant_under_node_renumbering(self):
        net = cycle_graph(6)
        colors = [1, 0, 0, 1, 0, 0]
        classes = equivalence_classes(net, colors)
        ordered = order_equivalence_classes(net, classes, colors)

        perm = [3, 4, 5, 0, 1, 2]
        moved = net.with_nodes_permuted(perm)
        moved_colors = [0] * 6
        for v in range(6):
            moved_colors[perm[v]] = colors[v]
        moved_classes = equivalence_classes(moved, moved_colors)
        moved_ordered = order_equivalence_classes(
            moved, moved_classes, moved_colors
        )
        # The k-th class must be the image of the k-th class under perm.
        assert [sorted(perm[v] for v in cls) for cls in ordered] == [
            sorted(cls) for cls in moved_ordered
        ]

    def test_wrong_classes_detected(self):
        net = cycle_graph(6)
        # Split one true class into halves: representatives share keys.
        bogus = [[0], [3], [1, 2, 4, 5]]
        with pytest.raises(GraphError):
            order_equivalence_classes(net, bogus)

    def test_empty_class_rejected(self):
        with pytest.raises(GraphError):
            order_equivalence_classes(cycle_graph(4), [[]])

    def test_star_ordering_puts_distinct_sizes_apart(self):
        net = star_graph(4)
        classes = equivalence_classes(net)
        ordered = order_equivalence_classes(net, classes)
        assert sorted(map(len, ordered)) == [1, 4]
