"""Flat-array refinement kernel: vectorized canonical/view pipeline.

The refinement machinery in :mod:`repro.graphs.views` and
:mod:`repro.graphs.canonical` bottoms out in per-node Python tuple lists —
fine at n ≈ 500, hopeless at n ≈ 50 000.  This module re-architects that
hot path on flat integer arrays:

* :class:`FlatNetwork` — a CSR-style numpy image of an
  :class:`~repro.graphs.network.AnonymousNetwork`: one ``int64`` buffer per
  column of the ``(exit symbol, entry symbol, neighbor)`` edge-end table,
  plus the dense rank of each ``(exit, entry)`` pair and the scatter
  indices a vectorized round needs.  Built once per network and memoized
  alongside ``refinement_adjacency``.
* :func:`refine_numpy` — partition refinement to fixpoint as array passes:
  each round packs the per-end ``(pair rank, neighbor class)`` signature
  into a single integer column, segment-sorts it (a plain ``np.sort`` row
  sort for regular graphs, a ``np.lexsort`` for irregular ones), scatters
  the sorted triples into a padded per-node signature matrix and re-ranks
  densely with ``np.unique(axis=0, return_inverse=True)``.  Ids are
  assigned by sorted signature only — never by node index — so the kernel
  honors the same equivariant class-numbering contract as
  ``_refine_worklist``.
* a **distance accelerator**: a synchronized round propagates information
  one hop, so a pointed cycle of n nodes needs n/2 rounds no matter how
  fast each round is.  The kernel therefore interleaves rounds with
  *distance-to-class refinement*: BFS distances to whole classes of the
  current partition (C-speed via ``scipy.sparse.csgraph`` when available,
  pure-Python otherwise) are appended to the signature and re-ranked.
  This is sound — in the coarsest stable partition every class has uniform
  distance to any class of any coarser partition (induction on the
  distance: a node at distance k has a neighbor in a class of uniform
  distance k−1, and stability makes "has a neighbor in class D" a class
  property) — and it collapses the diameter-bound round count to a
  handful on the long-diameter families.
* :func:`digraph_refine_numpy` — the equitable digraph refinement of
  :func:`repro.graphs.canonical.digraph_refinement` as the same padded
  unique-rank pass.  Unlike the view kernel this reproduces the Python
  numbering **exactly** (the padded-row lexicographic order equals the
  Python tuple order because the pad ``-1`` sorts before every class id,
  matching the shorter-tuple-first rule), so canonical encodings,
  ``canonical_key`` values and the pinned ``canonical_hash`` goldens are
  bit-for-bit unchanged under the numpy backend.

Backend selection
-----------------
Each function picks its backend by node count: Python below a measured
crossover, numpy at or above it (:func:`resolve_kernel`).  The Python
backend is the Paige–Tarjan splitter queue for view refinement and the
per-node reference for digraph refinement.  There is one crossover per
function: :data:`DIGRAPH_NUMPY_MIN_NODES` for ``digraph_refinement`` and
the canonical search, :data:`VIEW_NUMPY_MIN_NODES` for ``view_refinement``
and ``surrounding``.  The rule depends on the size only, so isomorphic
copies always take the same backend.  The parity oracles and
``benchmarks/bench_refinement_scaling.py`` call the backends directly
(:func:`refine_numpy`, :class:`DigraphKernel`, and the Python ones in
:mod:`repro.graphs.views` / :mod:`repro.graphs.canonical`, including the
seed all-nodes-every-round ``view_refinement_baseline``).

Measured per call (best of 5, ms; Xeon @ 2.1 GHz, Python 3.11, numpy
with scipy).  Instances: ``random_connected_graph(n, 8/n,
rng=Random(n))``, the k×k grid with k = round(√n), and the n-cycle, two
nodes colored.  "digraph" is ``digraph_refinement`` of the surrounding
``S(0)``, built fresh; "in search" re-refines an individualized partition
with the buffers prebuilt, as the canonical search does; "view" is
``view_refinement`` with the flat buffers built fresh; "surr." is
``surrounding`` with the flat buffers already built.  Python | numpy:

=====  ======  =============  ===========  ===========  ===========
n      family  digraph        in search    view         surr.
=====  ======  =============  ===========  ===========  ===========
16     random  0.17 | 1.25    0.09 | 0.74  0.13 | 0.55  0.05 | 0.15
16     cycle   0.13 | 0.49    0.06 | 0.17  0.12 | 0.29  0.02 | 0.09
64     random  0.51 | 1.48    0.34 | 1.05  0.66 | 1.50  0.18 | 0.23
64     grid    0.79 | 0.80    0.23 | 0.19  0.63 | 0.45  0.10 | 0.14
64     cycle   2.14 | 1.90    0.20 | 0.18  0.42 | 0.35  0.08 | 0.12
100    random  0.88 | 1.87    0.58 | 1.12  0.65 | 1.06  0.31 | 0.40
100    grid    0.98 | 0.73    2.21 | 1.34  0.90 | 0.54  0.15 | 0.21
100    cycle   4.99 | 3.12    0.31 | 0.18  0.64 | 0.39  0.11 | 0.17
144    random  1.23 | 2.73    0.84 | 1.51  1.10 | 1.31  —
144    grid    4.32 | 2.47    0.51 | 0.25  1.36 | 0.71  —
196    random  2.11 | 4.08    1.80 | 2.36  1.62 | 1.67  0.58 | 0.54
196    grid    7.39 | 3.17    1.22 | 0.43  2.00 | 0.83  0.27 | 0.32
400    random  3.79 | 4.49    2.64 | 2.47  5.10 | 4.54  1.66 | 1.66
400    grid    11.9 | 4.28    1.46 | 0.44  6.31 | 2.17  0.68 | 0.65
1024   random  —              —            18.2 | 13.0  4.53 | 3.88
=====  ======  =============  ===========  ===========  ===========

Numpy's fixed cost per call (array set-up, ``np.unique``) makes it lose
on every family at 16 nodes.  Structured graphs (grids, cycles) cross
over between 64 and 144 nodes, random sparse graphs between 200 and
400.  Both crossovers are set at 128: an election's maps (tens of nodes)
always run in Python, the large single refinements the kernel was built
for (n ≥ 500, 16–46× faster) always run on numpy.

Degenerate guard: the padded signature matrix is Θ(n · Δ).  On irregular
graphs with a huge hub (``n · Δ`` beyond ``DENSE_LIMIT`` cells) the numpy
view backend transparently delegates to the worklist — a deterministic,
size-only decision, so isomorphic copies take the same path and
equivariance is preserved.
"""

from __future__ import annotations

import functools
from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import cache as _cache



@functools.lru_cache(maxsize=None)
def _scipy() -> Optional[Tuple[Any, Any]]:
    """``(csr_matrix, dijkstra)`` for the distance accelerator, or None.

    Imported on first use: scipy.sparse costs ~33 MB of resident memory
    and ~0.1 s, and only the numpy backend needs it — which the size rule
    runs on large graphs only.  Without scipy the accelerator falls back
    to a pure-Python BFS.
    """
    try:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra
    except ImportError:  # pragma: no cover - exercised via the fallback tests
        return None
    return csr_matrix, dijkstra


#: Padded-signature cell budget before the numpy view backend delegates to
#: the worklist (n · (Δ+1) int64 cells ≈ 8 bytes each; 64e6 ≈ 512 MB is
#: far above every benchmark family but guards hub-dominated graphs).
DENSE_LIMIT = 64_000_000

#: Distance-accelerator tuning: BFS sources per invocation and invocations
#: per refinement (it re-arms before every round until the budget is spent).
ACCEL_SOURCES = 8
ACCEL_BUDGET = 4

#: Largest ``classes × column-span`` product the packed int64 re-ranking
#: accepts before falling back to ``np.unique(axis=0)``.
_PACK_LIMIT = 2**62

_PAD = np.int64(-1)

#: Node count from which ``digraph_refinement`` and the canonical search
#: run on numpy (see the table above).
DIGRAPH_NUMPY_MIN_NODES = 128

#: Node count from which ``view_refinement`` and ``surrounding`` run on
#: numpy (see the table above).
VIEW_NUMPY_MIN_NODES = 128


def default_kernel() -> str:
    """The backend rule, as a label."""
    return (
        f"by size (numpy from {DIGRAPH_NUMPY_MIN_NODES} nodes for digraphs, "
        f"{VIEW_NUMPY_MIN_NODES} for views; Python below)"
    )


def resolve_kernel(n: int, numpy_min_nodes: int) -> str:
    """The backend for an ``n``-node input: ``"numpy"`` from the calling
    function's crossover ``numpy_min_nodes`` on
    (:data:`DIGRAPH_NUMPY_MIN_NODES` or :data:`VIEW_NUMPY_MIN_NODES`),
    ``"worklist"`` (the Python backend) below it."""
    return "numpy" if n >= numpy_min_nodes else "worklist"


# ----------------------------------------------------------------------
# Flat network image
# ----------------------------------------------------------------------


class FlatNetwork:
    """CSR-style numpy buffers for one network's refinement structure.

    Edge-ends are grouped contiguously per owner node (CSR layout):
    ``indptr[x] : indptr[x + 1]`` slices every per-end column.  All buffers
    are immutable in spirit (never written after construction) so the
    memoized instance is shared freely across refinement calls, the
    surroundings fast path and the benchmarks.
    """

    __slots__ = (
        "n",
        "indptr",
        "owner",
        "exit_sym",
        "entry_sym",
        "nbr",
        "pair_rank",
        "num_pairs",
        "col",
        "max_degree",
        "regular_degree",
        "edge_u",
        "edge_v",
        "_bfs_csr",
        "_wbfs_csr",
        "_py_adjacency",
    )

    def __init__(self, network: Any):
        from ..graphs.views import refinement_adjacency

        adjacency = refinement_adjacency(network)
        n = network.num_nodes
        degrees = np.fromiter(
            (len(row) for row in adjacency), dtype=np.int64, count=n
        )
        total = int(degrees.sum())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        exit_sym = np.empty(total, dtype=np.int64)
        entry_sym = np.empty(total, dtype=np.int64)
        nbr = np.empty(total, dtype=np.int64)
        pos = 0
        for row in adjacency:
            for (so, si, y) in row:
                exit_sym[pos] = so
                entry_sym[pos] = si
                nbr[pos] = y
                pos += 1
        owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
        # Dense rank of the (exit, entry) pair per edge-end: the ranking
        # respects lexicographic (exit, entry) order, so packing
        # (pair_rank, neighbor class) preserves the Python triple order.
        if total:
            span = int(entry_sym.max()) + 1 if total else 1
            packed = exit_sym * np.int64(span) + entry_sym
            pairs, pair_rank = np.unique(packed, return_inverse=True)
            pair_rank = pair_rank.reshape(-1).astype(np.int64, copy=False)
            num_pairs = len(pairs)
        else:
            pair_rank = np.empty(0, dtype=np.int64)
            num_pairs = 1
        self.n = n
        self.indptr = indptr
        self.owner = owner
        self.exit_sym = exit_sym
        self.entry_sym = entry_sym
        self.nbr = nbr
        self.pair_rank = pair_rank
        self.num_pairs = num_pairs
        #: Scatter column of each edge-end inside its owner's segment.
        self.col = np.arange(total, dtype=np.int64) - indptr[owner]
        self.max_degree = int(degrees.max()) if n else 0
        uniq_deg = np.unique(degrees)
        self.regular_degree = int(uniq_deg[0]) if len(uniq_deg) == 1 else None
        edges = network.edges()
        self.edge_u = np.fromiter((u for (u, _, _, _) in edges), dtype=np.int64, count=len(edges))
        self.edge_v = np.fromiter((v for (_, _, v, _) in edges), dtype=np.int64, count=len(edges))
        self._bfs_csr: Any = None
        self._wbfs_csr: Any = None
        self._py_adjacency: Optional[List[List[int]]] = None

    # -- BFS distances --------------------------------------------------

    def _ensure_bfs(self) -> Any:
        scipy = _scipy()
        if self._bfs_csr is None and scipy is not None:
            # float64 data up front: csgraph validates-and-converts any
            # other dtype on *every* call, which dominates small BFS runs.
            data = np.ones(len(self.nbr), dtype=np.float64)
            self._bfs_csr = scipy[0](
                (data, self.nbr, self.indptr), shape=(self.n, self.n)
            )
        return self._bfs_csr

    def _ensure_weighted_bfs(self) -> Any:
        scipy = _scipy()
        if self._wbfs_csr is None and scipy is not None:
            # Arc weight = B^pair_rank: an equivariant, port-aware metric.
            # Plain BFS is blind to any reflection that is an isometry of
            # the *unlabeled* graph (on a torus, distance from every
            # near-axis class is constant across diagonal twin pairs);
            # weighting arcs by their (exit, entry) pair makes the metric
            # see the port labels.  The geometric base B is picked so a
            # cheapest path's per-pair step counts occupy disjoint digit
            # ranges (no carries while counts stay below B), which makes
            # the column injective on the product-structured families —
            # one Dijkstra from the pointed class discretizes a torus —
            # while every sum stays an exact integer below 2^52 in
            # float64.  B depends only on (n, number of pairs): the same
            # deterministic value on every isomorphic copy.
            pairs = self.num_pairs
            if pairs <= 1:
                base = 1.0  # single pair: the metric degenerates to BFS
            else:
                base = float(int((2.0**52 / max(self.n, 2)) ** (1.0 / (pairs - 1))))
                base = max(1.0, min(base, float(self.n + 1)))
            data = base ** self.pair_rank.astype(np.float64)
            self._wbfs_csr = scipy[0](
                (data, self.nbr, self.indptr), shape=(self.n, self.n)
            )
        return self._wbfs_csr

    def weighted_distances_to_set(self, sources: np.ndarray) -> np.ndarray:
        """Min port-weighted distance from every node to the source set.

        Arc weights are a function of the arc's pair rank (class-uniform by
        stability), so the result is uniform on every class of the coarsest
        stable partition — same equitable-quotient induction as the
        unweighted case, with Dijkstra's value-order induction in place of
        BFS layers.  Falls back to the unweighted column without scipy (a
        strictly coarser but still sound signal).
        """
        scipy = _scipy()
        if scipy is None:
            return self._bfs_python(sources)
        dist = scipy[1](
            self._ensure_weighted_bfs(),
            directed=True,
            indices=sources,
            min_only=True,
        )
        # Finite path weights are exact integers < 2^52 by the base choice.
        dist = np.where(np.isfinite(dist), dist, np.float64(2.0**53))
        return dist.astype(np.int64, copy=False)

    def distances_to_set(self, sources: np.ndarray) -> np.ndarray:
        """Min BFS distance from every node to the source set.

        Unreachable nodes (pathological disconnected fixtures) get the
        sentinel ``n + 1``, which is class-uniform in any stable partition
        just like a finite distance.
        """
        n = self.n
        scipy = _scipy()
        if scipy is not None:
            # The CSR image already stores both directions of every edge,
            # so directed=True is exact and skips the symmetrization pass.
            dist = scipy[1](
                self._ensure_bfs(),
                directed=True,
                unweighted=True,
                indices=sources,
                min_only=True,
            )
            dist = np.where(np.isfinite(dist), dist, n + 1)
            return dist.astype(np.int64, copy=False)
        return self._bfs_python(sources)

    def _bfs_python(self, sources: np.ndarray) -> np.ndarray:
        if self._py_adjacency is None:
            self._py_adjacency = [
                self.nbr[self.indptr[x] : self.indptr[x + 1]].tolist()
                for x in range(self.n)
            ]
        adjacency = self._py_adjacency
        dist = [self.n + 1] * self.n
        queue: List[int] = []
        for s in sources.tolist():
            dist[s] = 0
            queue.append(s)
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            dx = dist[x] + 1
            for y in adjacency[x]:
                if dist[y] > dx:
                    dist[y] = dx
                    queue.append(y)
        return np.asarray(dist, dtype=np.int64)


def flat_network(network: Any) -> FlatNetwork:
    """The memoized flat image of a network (built once, shared)."""
    return _cache.memo(network, "flat_network", None, lambda: FlatNetwork(network))


# ----------------------------------------------------------------------
# Vectorized view refinement
# ----------------------------------------------------------------------


def _rank_rows(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ids by lexicographic row order (the equivariant re-ranking)."""
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


def _rank1d(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ids by value order for one column (the 1-D fast path)."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniq)


def _rank_cols(
    comb: np.ndarray, num: int, cols: Any
) -> Tuple[np.ndarray, int]:
    """Dense ids by lexicographic order of the rows ``(comb, *cols)``.

    ``comb`` must already be dense (values in ``[0, num)``).  Each column is
    folded in with one order-preserving integer pack — ``comb · span + col``
    — and a 1-D re-rank.  Packing is strictly monotone in ``(comb, col)``
    lexicographic order, so by induction the result equals the row rank of
    the full matrix, while each pass sorts plain ``int64`` keys instead of
    ``np.unique(axis=0)``'s void-dtype records (severalfold faster on the
    narrow rows every refinement round produces).
    """
    for col in cols:
        if not len(col):
            continue
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if num * span > _PACK_LIMIT:  # pragma: no cover - astronomic spans
            comb, num = _rank_rows(np.column_stack((comb, col)))
            continue
        comb, num = _rank1d(comb * np.int64(span) + (col - np.int64(lo)))
    return comb, num


def _one_round(flat: FlatNetwork, cls: np.ndarray, num: int) -> Tuple[np.ndarray, int]:
    """One synchronized signature round: returns re-ranked (cls, count)."""
    trip = flat.pair_rank * np.int64(num) + cls[flat.nbr]
    if flat.regular_degree is not None:
        mat = np.sort(trip.reshape(flat.n, flat.regular_degree), axis=1)
    else:
        mat = np.full((flat.n, flat.max_degree), _PAD, dtype=np.int64)
        order = np.lexsort((trip, flat.owner))
        # ``owner`` is already sorted, so the reordered trips stay grouped
        # by owner and land at their in-segment rank; the -1 pad sorts
        # before every trip, which is the shorter-tuple-first rule.
        mat[flat.owner, flat.col] = trip[order]
    return _rank_cols(cls, num, mat.T)


def _accelerate(
    flat: FlatNetwork,
    cls: np.ndarray,
    num: int,
    used_sources: Set[bytes],
) -> Tuple[np.ndarray, int]:
    """Refine by BFS distances to up to ``ACCEL_SOURCES`` classes.

    Classes are chosen by ascending (size, class id) — a class-level,
    node-index-free criterion, so the choice is equivariant across
    isomorphic copies.  Each chosen class contributes one multi-source
    min-distance column, folded into the dense ranking as soon as it is
    computed (so a refinement that goes discrete mid-way skips the
    remaining BFS runs).  Classes holding more than half the nodes are
    skipped: their distance columns are near-constant, and skipping by
    size alone keeps the choice equivariant.  Soundness: every class of
    the coarsest stable partition has uniform distance to any class of the
    current (coarser) partition, so this splits no class that the fixpoint
    keeps together — and skipping sources only forgoes splits the plain
    rounds recover later.
    """
    base = cls  # source classes come from the *entry* partition throughout
    sizes = np.bincount(base, minlength=num)
    order = np.lexsort((np.arange(num, dtype=np.int64), sizes))
    half = flat.n // 2
    picked = 0
    fruitless = 0
    for cid in order:
        if picked >= ACCEL_SOURCES or num >= flat.n or fruitless >= 2:
            break
        if sizes[cid] > half:
            break  # order is ascending by size: all remaining are bigger
        members = np.flatnonzero(base == cid)
        key = members.tobytes()
        if key in used_sources:
            continue
        used_sources.add(key)
        picked += 1
        before = num
        cls, num = _rank_cols(
            cls, num, (flat.weighted_distances_to_set(members),)
        )
        # Split counts are class-level data, so bailing after two
        # fruitless sources is as equivariant as the source choice itself.
        fruitless = fruitless + 1 if num == before else 0
    return cls, num


def refine_numpy(network: Any, colors: Sequence[int]) -> List[int]:
    """The coarsest signature-stable partition, as vectorized array passes.

    ``colors`` must already be normalized to ints (the views layer's
    ``_normalize_colors`` contract).  Returns dense, equivariant class ids:
    every ordering decision is made on (class id, signature, size) only.
    Partition-equal to ``_refine_worklist`` and
    ``view_refinement_baseline``; the numbering is its own (each backend's
    numbering is canonical — only the partition is cross-backend contract).
    """
    n = network.num_nodes
    if n <= 1:
        return [0] * n
    flat = flat_network(network)
    if flat.n * (flat.max_degree + 1) > DENSE_LIMIT:
        # Hub-dominated irregular graph: the padded signature matrix would
        # not fit; the worklist is the better algorithm there anyway.
        from ..graphs.views import _refine_worklist

        return _refine_worklist(network, list(colors))
    cls, num = _rank1d(np.asarray(colors, dtype=np.int64))
    used_sources: Set[bytes] = set()
    accel_left = ACCEL_BUDGET
    while num < n:
        before = num
        if accel_left:
            accel_left -= 1
            cls, num = _accelerate(flat, cls, num, used_sources)
            if num >= n:
                break
        cls, num = _one_round(flat, cls, num)
        if num == before:
            break  # refinement only splits: equal count ⇒ fixpoint
    return cls.tolist()


# ----------------------------------------------------------------------
# Vectorized digraph refinement (exact-parity with the Python reference)
# ----------------------------------------------------------------------


class DigraphKernel:
    """Flat buffers for one :class:`~repro.graphs.canonical.Digraph`.

    Prebuilt once per individualization–refinement search and reused by
    every :func:`digraph_refine_numpy` call in the recursion (the search
    re-refines the same digraph hundreds of times with different initial
    cells).
    """

    __slots__ = (
        "n",
        "out_idx",
        "out_owner",
        "out_col",
        "max_out",
        "in_idx",
        "in_owner",
        "in_col",
        "max_in",
    )

    def __init__(self, g: Any):
        n = g.num_nodes
        self.n = n

        def build(neighbor_sets: Sequence[Any]) -> Tuple[np.ndarray, ...]:
            degrees = np.fromiter(
                (len(s) for s in neighbor_sets), dtype=np.int64, count=n
            )
            total = int(degrees.sum())
            idx = np.empty(total, dtype=np.int64)
            pos = 0
            for s in neighbor_sets:
                for y in s:
                    idx[pos] = y
                    pos += 1
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(degrees, out=indptr[1:])
            owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
            col = np.arange(total, dtype=np.int64) - indptr[owner]
            return idx, owner, col, int(degrees.max()) if n else 0

        self.out_idx, self.out_owner, self.out_col, self.max_out = build(g.out_edges)
        self.in_idx, self.in_owner, self.in_col, self.max_in = build(g.in_edges())

    def refine(self, initial: Sequence[int]) -> List[int]:
        """Exact vectorized replica of ``digraph_refinement``.

        Signature rows are ``[class | sorted out-classes | sorted
        in-classes]`` with ``-1`` padding; padded lexicographic row order
        equals the Python ``(class, out tuple, in tuple)`` order (the pad
        sorts before every id, which is the shorter-tuple-first rule), so
        each round's dense ranking — and hence the final numbering — is
        identical to the reference.
        """
        n = self.n
        cls = np.asarray(list(initial), dtype=np.int64)
        mat = np.empty((n, self.max_out + self.max_in), dtype=np.int64)
        while True:
            mat[:] = _PAD
            if len(self.out_idx):
                vals = cls[self.out_idx]
                order = np.lexsort((vals, self.out_owner))
                mat[self.out_owner, self.out_col] = vals[order]
            if len(self.in_idx):
                vals = cls[self.in_idx]
                order = np.lexsort((vals, self.in_owner))
                mat[self.in_owner, self.in_col + self.max_out] = vals[order]
            comb, num = _rank1d(cls)
            new_cls, _ = _rank_cols(comb, num, mat.T)
            if np.array_equal(new_cls, cls):
                return cls.tolist()
            cls = new_cls


def digraph_refine_numpy(g: Any, initial: Sequence[int]) -> List[int]:
    """One-shot vectorized equitable refinement of a digraph."""
    return DigraphKernel(g).refine(initial)


# ----------------------------------------------------------------------
# Vectorized surroundings support
# ----------------------------------------------------------------------


def surrounding_arcs_numpy(network: Any, u: int) -> List[Tuple[int, int]]:
    """The Definition 3.1 arc list of ``S(u)``, via flat-array BFS.

    Same arc *set* as the per-edge Python loop (Digraph.build collapses
    duplicates into frozensets, so ordering differences are invisible).
    """
    flat = flat_network(network)
    dist = flat.distances_to_set(np.asarray([u], dtype=np.int64))
    du = dist[flat.edge_u]
    dv = dist[flat.edge_v]
    forward = du <= dv
    backward = dv <= du
    arcs: List[Tuple[int, int]] = []
    eu, ev = flat.edge_u, flat.edge_v
    arcs.extend(zip(eu[forward].tolist(), ev[forward].tolist()))
    arcs.extend(zip(ev[backward].tolist(), eu[backward].tolist()))
    return arcs
