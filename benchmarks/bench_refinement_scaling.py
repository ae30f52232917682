"""Perf — refinement backend sweep: numpy kernel vs worklist vs seed baseline.

Sweeps cycles, hypercubes and tori through every view-refinement backend,
each called directly (``refine_numpy`` / ``_refine_worklist`` /
``view_refinement_baseline``), up to n ≈ 2000 for the three-way
comparison and up to n ≈ 50 000 for the flat-array kernel alone (the
Python backends would take minutes there).  The benchmarked call is the
public ``view_refinement(network, colors)``, which the size rule runs on
the numpy kernel at every size swept here.

Every instance uses a *pointed* coloring (one distinguished node): the
uniform coloring of a vertex-transitive graph is a refinement fixpoint
after a single round for every backend, so the pointed case is the one
that exercises the splitter/accelerator machinery — it drives the seed
baseline to its Norris-bound worst case (Θ(diameter) full rounds).  Each
timing rep points a *different* node — the families are vertex-transitive,
so the instances are isomorphic (identical cost) — while the per-network
flat buffers stay warm (their build is amortized across every query on
the network, so it is warmed up front exactly like the worklist's
adjacency tables).

Asserts all timed backends induce the same partition, that the worklist
beats the seed baseline by ≥ 3× wherever the baseline is timed, and that
the numpy kernel beats the worklist by ≥ 10× on every family at n ≥ 2000.
The measured times and speedups land in the benchmark JSON
(``extra_info``) for the regression comparator.
"""

import time

import pytest

from repro.graphs.builders import cycle_graph
from repro.graphs.cayley import hypercube_cayley, torus_cayley
from repro.graphs.views import (
    _normalize_colors,
    _refine_worklist,
    refinement_adjacency,
    view_refinement,
    view_refinement_baseline,
)
from repro.perf import flat_network, invalidate, refine_numpy

#: Every backend, as ``(network, colors) -> class ids``.
BACKENDS = {
    "numpy": lambda net, colors: refine_numpy(net, _normalize_colors(net, colors)),
    "worklist": lambda net, colors: _refine_worklist(
        net, _normalize_colors(net, colors)
    ),
    "baseline": view_refinement_baseline,
}

#: (family, display size, constructor, backends to time).  The three-way
#: rows stop at n ≈ 2000; the large rows are numpy-only.
FULL = tuple(BACKENDS)  # ("numpy", "worklist", "baseline")
SWEEP = [
    ("cycle", 500, lambda: cycle_graph(500), FULL),
    ("cycle", 2000, lambda: cycle_graph(2000), FULL),
    ("hypercube", 512, lambda: hypercube_cayley(9).network, FULL),
    ("hypercube", 1024, lambda: hypercube_cayley(10).network, FULL),
    ("hypercube", 2048, lambda: hypercube_cayley(11).network, FULL),
    ("torus", 506, lambda: torus_cayley([22, 23]).network, FULL),
    ("torus", 2025, lambda: torus_cayley([45, 45]).network, FULL),
    ("cycle", 50000, lambda: cycle_graph(50000), ("numpy",)),
    ("hypercube", 32768, lambda: hypercube_cayley(15).network, ("numpy",)),
    ("torus", 50176, lambda: torus_cayley([224, 224]).network, ("numpy",)),
]

MIN_NUMPY_SPEEDUP = 10.0  # numpy vs worklist, n >= 2000
MIN_WORKLIST_SPEEDUP = 3.0  # worklist vs seed baseline, wherever timed
_NUMPY_ASSERT_NODES = 2000

#: Timing reps per backend, by (backend, small instance?).
_REPS = {
    ("numpy", True): 5,
    ("numpy", False): 3,
    ("worklist", True): 5,
    ("worklist", False): 3,
    ("baseline", True): 2,
    ("baseline", False): 1,
}


def partition_of(ids):
    buckets = {}
    for node, cid in enumerate(ids):
        buckets.setdefault(cid, []).append(node)
    return sorted(tuple(members) for members in buckets.values())


def _pointed(n, node):
    colors = [0] * n
    colors[node] = 1
    return colors


def _time_backend(net, backend, reps):
    """Best-of-``reps`` seconds; returns (ids of the node-0 instance, best).

    Rep ``k`` points node ``k`` — an isomorphic instance on these
    vertex-transitive families.
    """
    n = net.num_nodes
    best = float("inf")
    ids0 = None
    for k in range(reps):
        colors = _pointed(n, k)
        start = time.perf_counter()
        ids = BACKENDS[backend](net, colors)
        best = min(best, time.perf_counter() - start)
        if k == 0:
            ids0 = ids
    return ids0, best


@pytest.mark.parametrize(
    "family,size,build,backends",
    SWEEP,
    ids=[f"{f}-{n}" for f, n, _, _ in SWEEP],
)
def test_bench_refinement_scaling(benchmark, family, size, build, backends):
    net = build()
    small = size < 1500
    # Warm the per-network tables each backend amortizes across queries.
    flat_network(net)
    if "worklist" in backends or "baseline" in backends:
        refinement_adjacency(net)

    seconds = {}
    partitions = {}
    for backend in backends:
        ids, best = _time_backend(net, backend, _REPS[(backend, small)])
        seconds[backend] = best
        partitions[backend] = partition_of(ids)
    reference = partitions["numpy"]
    for backend in backends:
        assert partitions[backend] == reference, (
            f"{family} n={size}: {backend} disagrees with numpy partition"
        )

    numpy_ids = benchmark.pedantic(
        view_refinement,
        args=(net, _pointed(size, size - 1)),
        rounds=1,
        iterations=1,
    )
    assert partition_of(numpy_ids) == reference

    benchmark.extra_info["family"] = family
    benchmark.extra_info["nodes"] = size
    for backend in backends:
        benchmark.extra_info[f"{backend}_seconds"] = seconds[backend]
    line = f"\n{family} n={size}: " + ", ".join(
        f"{b} {seconds[b]:.4f}s" for b in backends
    )

    if "worklist" in seconds:
        numpy_speedup = seconds["worklist"] / seconds["numpy"]
        benchmark.extra_info["numpy_speedup"] = round(numpy_speedup, 2)
        line += f", numpy {numpy_speedup:.1f}x vs worklist"
        if size >= _NUMPY_ASSERT_NODES:
            assert numpy_speedup >= MIN_NUMPY_SPEEDUP, (
                f"{family} n={size}: numpy kernel only {numpy_speedup:.2f}x "
                f"faster than the worklist (need >= {MIN_NUMPY_SPEEDUP}x)"
            )
    if "baseline" in seconds and "worklist" in seconds:
        worklist_speedup = seconds["baseline"] / seconds["worklist"]
        benchmark.extra_info["worklist_speedup"] = round(worklist_speedup, 2)
        line += f", worklist {worklist_speedup:.1f}x vs seed"
        assert worklist_speedup >= MIN_WORKLIST_SPEEDUP, (
            f"{family} n={size}: worklist only {worklist_speedup:.2f}x faster "
            f"than the seed refinement (need >= {MIN_WORKLIST_SPEEDUP}x)"
        )
    print(line)
    invalidate(net)
