"""COMPUTE & ORDER shared per isomorphism class of the bicolored map.

The class structure and the Cayley stabiliser sizes are computed once per
class and handed to every isomorphic map through its own canonical
numbering.  The oracle for every property here is the direct computation
on the same map under ``uncached()``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.colors import ColorSpace
from repro.core.cayley_elect import stabilizer_sizes
from repro.core.elect import ElectAgent
from repro.core.ordering import compute_class_structure, shared_form
from repro.core.placement import Placement
from repro.core.runner import run_cayley_elect, run_elect
from repro.errors import GraphError
from repro.fault import FaultPlan, Watchdog
from repro.fault.byzantine import ByzantineAgent
from repro.graphs import (
    AnonymousNetwork,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
)
from repro.graphs.cayley import dihedral_cayley, hypercube_cayley, torus_cayley
from repro.perf import cache as cache_module
from repro.perf import cache_stats, invalidate, uncached
from repro.sim import Simulation
from repro.sim.scheduler import RandomScheduler

LIMIT = 1_000_000
SETTINGS = settings(max_examples=40, deadline=None, database=None)


def bicoloring(n, homes):
    return [1 if v in homes else 0 for v in range(n)]


def relabeled_copy(net, colors, rng):
    """An isomorphic copy: nodes renumbered and every node's ports permuted."""
    n = net.num_nodes
    perm = list(range(n))
    rng.shuffle(perm)
    moved = net.with_nodes_permuted(perm)
    relabeling = {}
    for x in moved.nodes():
        ports = list(moved.ports(x))
        relabeling[x] = dict(zip(ports, rng.sample(ports, len(ports))))
    copy_colors = [0] * n
    for v in range(n):
        copy_colors[perm[v]] = colors[v]
    return moved.with_ports_relabeled(relabeling), copy_colors


def summary(outcome):
    """Verdicts, leader colour names and costs (colours are per-run objects)."""
    reports = [
        (r.verdict, r.leader_color.name if r.leader_color else None)
        for r in outcome.reports
    ]
    return reports, outcome.total_moves, outcome.total_accesses, outcome.steps


def delta(kind, before):
    now = cache_stats().get(kind, {"hits": 0, "misses": 0})
    old = before.get(kind, {"hits": 0, "misses": 0})
    return now["hits"] - old["hits"], now["misses"] - old["misses"]


@SETTINGS
@given(
    n=st.integers(min_value=2, max_value=9),
    graph_seed=st.integers(min_value=0, max_value=10**6),
    copy_seed=st.integers(min_value=0, max_value=10**6),
    agents=st.integers(min_value=1, max_value=4),
)
def test_shared_structure_equals_own_computation(n, graph_seed, copy_seed, agents):
    rng = random.Random(graph_seed)
    net = random_connected_graph(n, 0.45, rng=rng)
    colors = bicoloring(n, rng.sample(range(n), min(agents, n)))
    copy, copy_colors = relabeled_copy(net, colors, random.Random(copy_seed))
    invalidate()
    compute_class_structure(net, colors)  # the first map fills the entry
    before = cache_stats()
    shared = compute_class_structure(copy, copy_colors)
    assert delta("class_structure", before) == (1, 0)
    with uncached():
        own = compute_class_structure(copy, copy_colors)
    assert shared == own


CAYLEY = [
    cycle_graph(6),
    cycle_graph(7),
    hypercube_cayley(3).network,
    torus_cayley([3, 3]).network,
    torus_cayley([2, 4]).network,
    dihedral_cayley(4).network,
    path_graph(4),  # not Cayley: the shared value is None
]


@SETTINGS
@given(
    index=st.integers(min_value=0, max_value=len(CAYLEY) - 1),
    homes_seed=st.integers(min_value=0, max_value=10**6),
    copy_seed=st.integers(min_value=0, max_value=10**6),
    agents=st.integers(min_value=1, max_value=4),
)
def test_shared_stabilizer_sizes_equal_own_computation(index, homes_seed, copy_seed, agents):
    net = CAYLEY[index]
    n = net.num_nodes
    colors = bicoloring(n, random.Random(homes_seed).sample(range(n), agents))
    copy, copy_colors = relabeled_copy(net, colors, random.Random(copy_seed))
    invalidate()
    stabilizer_sizes(net, colors, LIMIT)
    before = cache_stats()
    shared = stabilizer_sizes(copy, copy_colors, LIMIT)
    assert delta("cayley_stabilizers", before) == (1, 0)
    with uncached():
        own = stabilizer_sizes(copy, copy_colors, LIMIT)
    assert shared == own


@pytest.mark.parametrize(
    "net,homes",
    [
        (cycle_graph(7), [0, 1, 3]),
        (grid_graph(3, 4), [0, 5, 7, 10]),
        (random_connected_graph(10, 0.35, rng=random.Random(4)), [1, 4, 8]),
    ],
)
def test_honest_election_computes_the_structure_once(net, homes):
    invalidate()
    before = cache_stats()
    outcome = run_elect(net, Placement.of(homes), seed=3)
    assert delta("class_structure", before) == (len(homes) - 1, 1)
    invalidate()
    with uncached():
        reference = run_elect(net, Placement.of(homes), seed=3)
    assert summary(outcome) == summary(reference)


def test_cayley_election_searches_subgroups_once(monkeypatch):
    import repro.core.cayley_elect as cayley_module

    calls = []
    real = cayley_module.find_regular_subgroups
    monkeypatch.setattr(
        cayley_module,
        "find_regular_subgroups",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    net, homes = hypercube_cayley(3).network, [0, 3, 5]
    invalidate()
    outcome = run_cayley_elect(net, Placement.of(homes), seed=2)
    assert len(calls) == 1
    invalidate()
    with uncached():
        reference = run_cayley_elect(net, Placement.of(homes), seed=2)
    assert len(calls) == 1 + len(homes)
    assert summary(outcome) == summary(reference)


def test_a_forged_map_gets_its_own_structure():
    """A map with a misplaced home mark or a misrouted edge is another
    isomorphism class: it must never be handed the true map's entry."""
    truth = grid_graph(3, 3)
    colors = bicoloring(9, [0, 4])
    invalidate()
    true_structure = compute_class_structure(truth, colors)
    spoofed = bicoloring(9, [0, 1])  # home mark moved
    misrouted = AnonymousNetwork(
        9,
        [(u, pu, v, pv) for (u, pu, v, pv) in truth.edges() if {u, v} != {4, 5}]
        + [(3, 9, 5, 9)],
        name="forged",
    )
    for net, cols in ((truth, spoofed), (misrouted, colors)):
        assert shared_form(net, cols)[0] != shared_form(truth, colors)[0]
        got = compute_class_structure(net, cols)
        with uncached():
            assert got == compute_class_structure(net, cols)
        assert got != true_structure


def test_byzantine_forge_visit_runs_never_share_across_classes(monkeypatch):
    """Every COMPUTE & ORDER of runs with a forge-visit liar returns what
    that agent's own map gives, whatever the lies did to the map."""
    import repro.core.elect as elect_module

    seen = []
    real = elect_module.compute_class_structure

    def recording(network, colors):
        seen.append((network, list(colors)))
        return real(network, colors)

    monkeypatch.setattr(elect_module, "compute_class_structure", recording)
    invalidate()
    for seed in range(12):
        net, homes = grid_graph(3, 3), [0, 1, 5]
        space = ColorSpace()
        agents = [
            ElectAgent(space.fresh(), rng=random.Random(f"{seed}:{i}"))
            for i in range(len(homes))
        ]
        plan = FaultPlan((
            ByzantineAgent(agent=seed % 3, behaviors=("forge-visit",), power=4, seed=seed),
        ))
        sim = Simulation(
            net,
            list(zip(agents, homes)),
            scheduler=RandomScheduler(seed=seed),
            fault=plan,
            watchdog=Watchdog(timeout=200, max_restarts=2, seed=seed),
        )
        try:
            sim.run()
        except Exception:
            pass  # a detected lie; the maps drawn so far are still checked
    assert seen
    for network, colors in seen:
        try:
            shared = real(network, colors)
        except GraphError:
            continue
        with uncached():
            assert shared == real(network, colors)


def test_invalidate_clears_and_uncached_bypasses_the_entries():
    net, colors = cycle_graph(6), bicoloring(6, [0, 2])
    invalidate()
    compute_class_structure(net, colors)
    stabilizer_sizes(net, colors, LIMIT)
    kinds = {kind for (kind, _) in cache_module._value_store}
    assert {"class_structure", "cayley_stabilizers"} <= kinds
    invalidate()
    assert not cache_module._value_store
    before = cache_stats()
    with uncached():
        compute_class_structure(net, colors)
        stabilizer_sizes(net, colors, LIMIT)
    assert not cache_module._value_store
    assert cache_stats() == before


def test_maps_that_are_not_simple_bypass_the_cache_and_raise():
    loop = AnonymousNetwork(2, [(0, 1, 1, 1), (0, 2, 0, 3)], name="loop")
    invalidate()
    assert shared_form(loop, [1, 0]) is None
    with pytest.raises(GraphError):
        compute_class_structure(loop, [1, 0])
    assert not cache_module._value_store
