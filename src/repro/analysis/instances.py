"""Instance generators for the experiment sweeps.

An *instance* is a pair ``(G, p)``: an anonymous network plus a placement.
The families below are chosen to cover every regime the paper discusses:

* Cayley graphs (cycles, hypercubes, tori, complete graphs, circulants,
  dihedral Cayley graphs) — the Theorem 4.1 class;
* the Petersen graph — vertex-transitive but not Cayley (Section 4);
* asymmetric graphs (paths, grids, random connected graphs) — where
  generic ELECT usually succeeds;
* ``K_2`` — the paper's counterexample to universality in the qualitative
  world.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..core.placement import Placement, all_placements
from ..graphs.builders import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
)
from ..graphs.cayley import (
    CayleyGraph,
    circulant_cayley,
    complete_cayley,
    cycle_cayley,
    dihedral_cayley,
    hypercube_cayley,
    torus_cayley,
)
from ..graphs.network import AnonymousNetwork
from ..obs import flight
from ..perf import ParallelBatteryRunner


@dataclass(frozen=True)
class Instance:
    """One election problem instance ``(G, p)`` with provenance."""

    network: AnonymousNetwork
    placement: Placement
    family: str

    @property
    def label(self) -> str:
        return f"{self.family}[{','.join(map(str, self.placement.homes))}]"


def evaluate_battery(
    instances: Sequence[Instance],
    evaluate: Callable[[Instance], object],
    runner: Optional["ParallelBatteryRunner"] = None,
    workers: Optional[int] = 1,
) -> List[object]:
    """Apply ``evaluate`` to every instance, optionally in parallel.

    Results come back in input order regardless of the executor, so callers
    can reduce them exactly as a serial loop would (the Table 1 cells are
    byte-identical for any worker count).  ``evaluate`` must be a picklable
    module-level callable when ``workers > 1`` with the process executor.

    Batteries are runs of consecutive instances over the same network (see
    :func:`instances_for`); each network crosses into process workers once
    as shared-memory flat buffers via
    :meth:`~repro.perf.parallel.ParallelBatteryRunner.map_on_networks`,
    and workers rebuild the ``Instance`` around the attached network — the
    per-task payload shrinks to ``(placement, family)`` plus any extra
    tuple elements.  The whole battery goes out in one fan-out.  Items may
    be bare instances or tuples whose first element is the instance (the
    ``(instance, seed)`` shape of the Table 1 batteries); anything else
    falls back to the plain pickled map.
    """
    if runner is None:
        runner = ParallelBatteryRunner(workers=workers)
    instances = list(instances)
    with flight.entrypoint_span(
        "evaluate_battery", len(instances), items=len(instances)
    ):
        if runner.is_serial or len(instances) <= 1:
            return runner.map(evaluate, instances)
        anchors = [_instance_of(item) for item in instances]
        if any(anchor is None for anchor in anchors):
            return runner.map(evaluate, instances)
        tasks = [
            (anchor.network, _strip_network(item, anchor))
            for item, anchor in zip(instances, anchors)
        ]
        return runner.map_on_networks(_EvaluateOnNetwork(evaluate), tasks)


def _instance_of(item: object) -> Optional[Instance]:
    """The instance anchoring an item (bare, or first element of a tuple)."""
    if isinstance(item, Instance):
        return item
    if isinstance(item, tuple) and item and isinstance(item[0], Instance):
        return item[0]
    return None


def _strip_network(item: object, anchor: Instance) -> Tuple:
    """The network-free payload shipped per task: (placement, family, rest).

    ``rest`` is ``None`` for a bare instance and the trailing tuple elements
    otherwise, so the worker can rebuild the exact original item shape.
    """
    rest = None if isinstance(item, Instance) else tuple(item[1:])
    return (anchor.placement, anchor.family, rest)


class _EvaluateOnNetwork:
    """Picklable adapter rebuilding the original item worker-side."""

    def __init__(self, evaluate: Callable[[Instance], object]):
        self.evaluate = evaluate

    def __call__(self, network: AnonymousNetwork, item: Tuple) -> object:
        placement, family, rest = item
        instance = Instance(network, placement, family)
        if rest is None:
            return self.evaluate(instance)
        return self.evaluate((instance, *rest))


def instances_for(
    network: AnonymousNetwork,
    family: str,
    agent_counts: Sequence[int],
    max_per_count: Optional[int] = None,
    seed: int = 0,
) -> List[Instance]:
    """All (or a seeded sample of) placements with the given agent counts."""
    rng = random.Random(seed)
    out: List[Instance] = []
    for r in agent_counts:
        if r > network.num_nodes:
            continue
        placements = all_placements(network, r)
        if max_per_count is not None and len(placements) > max_per_count:
            placements = rng.sample(placements, max_per_count)
        out.extend(Instance(network, p, family) for p in placements)
    return out


def small_cayley_graphs(extended: bool = False) -> List[CayleyGraph]:
    """The Cayley battery for the Theorem 4.1 effectualness sweep.

    ``extended=True`` adds the larger interconnection families (CCC,
    wrapped butterfly, quaternion Cayley graph) used by the full benches.
    """
    battery = [
        cycle_cayley(4),
        cycle_cayley(5),
        cycle_cayley(6),
        cycle_cayley(7),
        complete_cayley(4),
        complete_cayley(5),
        circulant_cayley(8, [1, 2]),
        hypercube_cayley(3),
        dihedral_cayley(3),
        torus_cayley([3, 3]),
    ]
    if extended:
        from ..graphs.cayley import (
            cube_connected_cycles,
            star_graph_cayley,
            wrapped_butterfly_cayley,
        )
        from ..groups.quaternion import quaternion_cayley

        battery += [
            quaternion_cayley(),
            cube_connected_cycles(3),
            wrapped_butterfly_cayley(3),
            star_graph_cayley(4),
        ]
    return battery


def cayley_effectualness_instances(
    agent_counts: Sequence[int] = (1, 2, 3),
    max_per_count: int = 12,
    seed: int = 0,
    extended: bool = False,
) -> List[Instance]:
    """Instances for the exhaustive/sampled Theorem 4.1 verification."""
    out: List[Instance] = []
    for cg in small_cayley_graphs(extended=extended):
        out.extend(
            instances_for(
                cg.network,
                cg.name,
                agent_counts,
                max_per_count=max_per_count,
                seed=seed,
            )
        )
    return out


def asymmetric_instances(seed: int = 0) -> List[Instance]:
    """Instances on graphs with little or no symmetry (ELECT succeeds)."""
    rng = random.Random(seed)
    out: List[Instance] = []
    for n in (5, 7, 9):
        net = path_graph(n)
        out.extend(instances_for(net, f"P_{n}", (1, 2, 3), max_per_count=8, seed=seed))
    grid = grid_graph(3, 4)
    out.extend(instances_for(grid, "Grid3x4", (2, 3), max_per_count=8, seed=seed))
    for i in range(3):
        net = random_connected_graph(8, 0.4, rng=random.Random(seed + i))
        out.extend(
            instances_for(net, f"GNP8#{i}", (2, 3), max_per_count=6, seed=seed + i)
        )
    return out


def impossibility_instances() -> List[Instance]:
    """Canonical impossible instances (gcd > 1 with certificates)."""
    return [
        Instance(complete_graph(2), Placement.of([0, 1]), "K_2"),
        Instance(cycle_graph(4), Placement.of([0, 2]), "C_4-antipodal"),
        Instance(cycle_graph(4), Placement.of([0, 1]), "C_4-adjacent"),
        Instance(cycle_graph(6), Placement.of([0, 3]), "C_6-antipodal"),
        Instance(cycle_graph(6), Placement.of([0, 2, 4]), "C_6-thirds"),
        Instance(hypercube_cayley(3).network, Placement.of([0, 7]), "Q_3-antipodal"),
    ]


def petersen_duel_instances() -> List[Instance]:
    """The Figure 5 setting: two adjacent agents on the Petersen graph."""
    net = petersen_graph()
    pairs = []
    for (u, _, v, _) in net.edges():
        pairs.append(Instance(net, Placement.of([u, v]), "Petersen-adjacent"))
    return pairs


def quantitative_battery(seed: int = 0) -> List[Instance]:
    """Instances where the quantitative protocol must elect although the
    qualitative one cannot (plus a few easy cases)."""
    out = impossibility_instances()
    out += [
        Instance(cycle_graph(5), Placement.of([0, 1]), "C_5"),
        Instance(complete_bipartite_graph(2, 3), Placement.of(range(5)), "K_2,3"),
        Instance(petersen_graph(), Placement.of([0, 1]), "Petersen-adjacent"),
    ]
    return out


#: Named battery registry: every sweep the CLI layers (``repro.analysis``,
#: ``repro.serve warm``) can address by name.  Each value is a zero-config
#: callable returning a deterministic instance list.
BATTERIES: dict = {
    "impossibility": impossibility_instances,
    "asymmetric": asymmetric_instances,
    "petersen-duel": petersen_duel_instances,
    "quantitative": quantitative_battery,
    "cayley-effectualness": cayley_effectualness_instances,
}


def battery_by_name(name: str) -> List[Instance]:
    """Instances of the named battery (see :data:`BATTERIES`).

    Raises ``KeyError``-free :class:`ValueError` with the known names, so
    CLI callers can surface it verbatim.
    """
    try:
        builder = BATTERIES[name]
    except KeyError:
        raise ValueError(
            f"unknown battery {name!r}; one of {', '.join(sorted(BATTERIES))}"
        )
    return builder()
