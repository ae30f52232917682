"""Smoke tests for the flat-array refinement kernel and its size rule.

Fast tier-1 coverage of the backend surface: numpy-vs-worklist partition
parity on one pointed instance per benchmark family, exact numpy-vs-Python
digraph refinement, the size rule, the dense-limit delegation guard, and
the surroundings fast path.  The backends are called directly.  The
exhaustive parity properties live in
``tests/graphs/test_refinement_parity.py``; this file is the cheap canary
that runs on every CI job.
"""

import pytest

from repro.graphs.builders import cycle_graph, petersen_graph, random_connected_graph
from repro.graphs.canonical import Digraph, _digraph_refinement_python
from repro.graphs.cayley import hypercube_cayley, torus_cayley
from repro.graphs.surroundings import _surrounding_arcs_python, surrounding
from repro.graphs.views import _normalize_colors, _refine_worklist, view_refinement
from repro.perf import (
    default_kernel,
    flat_network,
    refine_numpy,
    resolve_kernel,
    uncached,
)
from repro.perf import kernel as kernel_mod

FAMILIES = [
    ("cycle-16", lambda: cycle_graph(16)),
    ("hypercube-8", lambda: hypercube_cayley(3).network),
    ("torus-3x4", lambda: torus_cayley([3, 4]).network),
    ("petersen", petersen_graph),
    ("gnp-9", lambda: random_connected_graph(9, 0.35)),
]


def partition_of(ids):
    buckets = {}
    for node, cid in enumerate(ids):
        buckets.setdefault(cid, []).append(node)
    return sorted(tuple(members) for members in buckets.values())


@pytest.mark.parametrize("name,build", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_numpy_matches_worklist_per_family(name, build):
    net = build()
    colors = [1] + [0] * (net.num_nodes - 1)  # pointed: the hard case
    with uncached():
        numpy_ids = refine_numpy(net, colors)
        worklist_ids = _refine_worklist(net, _normalize_colors(net, colors))
    assert partition_of(numpy_ids) == partition_of(worklist_ids)


@pytest.mark.parametrize("name,build", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_digraph_kernel_matches_python_numbering(name, build):
    """The numpy digraph kernel reproduces the Python ids bit for bit."""
    net = build()
    for u in (0, net.num_nodes // 2):
        g = surrounding(net, u)
        initial = [1 if x == u else 0 for x in range(g.num_nodes)]
        assert kernel_mod.DigraphKernel(g).refine(initial) == (
            _digraph_refinement_python(g, initial)
        ), (name, u)


@pytest.mark.parametrize(
    "crossover", ["DIGRAPH_NUMPY_MIN_NODES", "VIEW_NUMPY_MIN_NODES"]
)
def test_size_rule_picks_python_below_the_crossover(crossover):
    """Each function picks its backend by node count."""
    limit = getattr(kernel_mod, crossover)
    assert resolve_kernel(1, limit) == "worklist"
    assert resolve_kernel(limit - 1, limit) == "worklist"
    assert resolve_kernel(limit, limit) == "numpy"
    assert resolve_kernel(10 * limit, limit) == "numpy"
    assert str(limit) in default_kernel()


def test_size_rule_reaches_the_backends(monkeypatch):
    """The defaulted calls really run the backend the rule names."""
    calls = []
    real = kernel_mod.refine_numpy
    monkeypatch.setattr(
        "repro.graphs.views.refine_numpy",
        lambda *a: calls.append(1) or real(*a),
    )
    small = cycle_graph(kernel_mod.VIEW_NUMPY_MIN_NODES - 1)
    large = cycle_graph(kernel_mod.VIEW_NUMPY_MIN_NODES)
    with uncached():
        view_refinement(small, [1] + [0] * (small.num_nodes - 1))
        assert calls == []
        view_refinement(large, [1] + [0] * (large.num_nodes - 1))
        assert calls == [1]


def test_dense_limit_delegates_to_worklist(monkeypatch):
    """Hub-dominated guard: over the cell budget, numpy defers (same ids)."""
    net = petersen_graph()
    colors = [1] + [0] * (net.num_nodes - 1)
    with uncached():
        direct = refine_numpy(net, colors)
    monkeypatch.setattr(kernel_mod, "DENSE_LIMIT", 1)
    with uncached():
        delegated = refine_numpy(net, colors)
    assert partition_of(direct) == partition_of(delegated)


def test_flat_network_is_memoized_per_network():
    net = cycle_graph(6)
    assert flat_network(net) is flat_network(net)
    assert flat_network(net).n == 6


def test_surrounding_backends_build_the_same_digraph():
    for name, build in FAMILIES:
        net = build()
        n = net.num_nodes
        for u in (0, n // 2):
            fast = Digraph.build(n, kernel_mod.surrounding_arcs_numpy(net, u))
            slow = Digraph.build(n, _surrounding_arcs_python(net, u))
            assert fast == slow, (name, u)
            with uncached():
                assert surrounding(net, u) == slow, (name, u)
