"""Smoke tests for the flat-array refinement kernel and its selector.

Fast tier-1 coverage of the backend surface: numpy-vs-worklist partition
parity on one pointed instance per benchmark family, the selector's
error contract and its size rule, the dense-limit delegation guard, and
the surroundings fast path.  The exhaustive parity properties live in
``tests/graphs/test_refinement_parity.py``; this file is the cheap canary
that runs on every CI job.
"""

import pytest

from repro.errors import GraphError
from repro.graphs.builders import cycle_graph, petersen_graph, random_connected_graph
from repro.graphs.cayley import hypercube_cayley, torus_cayley
from repro.graphs.surroundings import surrounding
from repro.graphs.views import view_refinement
from repro.perf import (
    KERNELS,
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
        numpy_ids = view_refinement(net, colors, kernel="numpy")
        worklist_ids = view_refinement(net, colors, kernel="worklist")
    assert partition_of(numpy_ids) == partition_of(worklist_ids)


def test_selector_rejects_unknown_kernels():
    with pytest.raises(GraphError, match="unknown refinement kernel"):
        resolve_kernel("cython", 10, kernel_mod.DIGRAPH_NUMPY_MIN_NODES)
    with pytest.raises(GraphError, match="unknown refinement kernel"):
        view_refinement(cycle_graph(4), kernel="cython")


@pytest.mark.parametrize(
    "crossover", ["DIGRAPH_NUMPY_MIN_NODES", "VIEW_NUMPY_MIN_NODES"]
)
def test_size_rule_picks_python_below_the_crossover(crossover):
    """Without ``kernel=``, each function picks its backend by node count."""
    limit = getattr(kernel_mod, crossover)
    assert resolve_kernel(None, limit - 1, limit) == "worklist"
    assert resolve_kernel(None, limit, limit) == "numpy"
    for k in KERNELS:  # an explicit selector always wins
        assert resolve_kernel(k, 1, limit) == k
        assert resolve_kernel(k, 10 * limit, limit) == k
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


def test_kernels_tuple_is_the_public_contract():
    assert KERNELS == ("numpy", "worklist", "baseline")
    for k in KERNELS:
        assert resolve_kernel(k, 10, kernel_mod.VIEW_NUMPY_MIN_NODES) == k


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
        for u in (0, net.num_nodes // 2):
            with uncached():
                fast = surrounding(net, u, kernel="numpy")
                slow = surrounding(net, u, kernel="worklist")
            assert fast == slow, (name, u)
