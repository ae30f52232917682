"""Canonical forms and a total order for bi-colored digraphs (Lemma 3.1).

Lemma 3.1 needs a deterministic total order ``≺`` on (isomorphism classes
of) bi-colored digraphs: the paper sketches a brute-force minimum over all
``n!`` adjacency-matrix permutations.  We implement the equivalent but
practical *individualization–refinement* canonical form:

1. compute the coarsest **equitable partition** of the digraph refining the
   node coloring (signatures use both out- and in-neighbor class multisets);
2. while some cell is non-singleton, individualize each member of the first
   such cell in turn and recurse;
3. every leaf yields a discrete ordering and hence a matrix encoding; the
   canonical encoding is the minimum over leaves.

The encoding is invariant under digraph isomorphism and distinguishes
non-isomorphic digraphs, so the lexicographic order on encodings induces the
required total order ``≺``.  Keys returned by :func:`canonical_key` sort
first by node count (as the paper's order does), then by encoding.

Nothing here is agent-visible magic: protocol ELECT's agents each run this
deterministic procedure on their own locally-drawn map, and because the maps
are isomorphic the computed *class order* is identical for all agents.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from ..errors import GraphError
from ..perf import cache as _cache
from ..perf.kernel import DIGRAPH_NUMPY_MIN_NODES, DigraphKernel, resolve_kernel

if False:  # pragma: no cover - typing only
    from .network import AnonymousNetwork

CanonicalKey = Tuple[int, Tuple[int, ...], bytes]
#: (canonical colors row, canonical adjacency bits).
Encoding = Tuple[Tuple[int, ...], bytes]

#: Version tag mixed into :func:`canonical_hash`.  Bump whenever the
#: canonical encoding changes shape: persisted stores keyed by the hash
#: (``repro.serve.store``) must never serve values computed under a
#: different encoding.
CANONICAL_HASH_VERSION = 1


@dataclass(frozen=True)
class Digraph:
    """A small directed graph with hashable node colors.

    ``out_edges[i]`` is the set of successors of node ``i``.  Parallel arcs
    are not modeled (Definition 3.1 surroundings never produce them); a
    2-cycle ``x → y → x`` represents the "equidistant" double arc.
    """

    num_nodes: int
    colors: Tuple[Hashable, ...]
    out_edges: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.num_nodes:
            raise GraphError("color count must equal node count")
        if len(self.out_edges) != self.num_nodes:
            raise GraphError("out_edges count must equal node count")
        for i, succ in enumerate(self.out_edges):
            for j in succ:
                if not 0 <= j < self.num_nodes:
                    raise GraphError(f"arc {i}->{j} out of range")

    @staticmethod
    def build(
        num_nodes: int,
        arcs: Sequence[Tuple[int, int]],
        colors: Optional[Sequence[Hashable]] = None,
    ) -> "Digraph":
        """Construct from an arc list (duplicates collapse)."""
        out: List[Set[int]] = [set() for _ in range(num_nodes)]
        for u, v in arcs:
            out[u].add(v)
        palette = tuple(colors) if colors is not None else tuple([0] * num_nodes)
        return Digraph(num_nodes, palette, tuple(frozenset(s) for s in out))

    def in_edges(self) -> Tuple[FrozenSet[int], ...]:
        """Predecessor sets (computed on demand)."""
        preds: List[Set[int]] = [set() for _ in range(self.num_nodes)]
        for u, succ in enumerate(self.out_edges):
            for v in succ:
                preds[v].add(u)
        return tuple(frozenset(s) for s in preds)

    def relabeled(self, perm: Sequence[int]) -> "Digraph":
        """Digraph with node ``i`` renamed ``perm[i]``."""
        if sorted(perm) != list(range(self.num_nodes)):
            raise GraphError("relabeling must be a bijection")
        colors: List[Hashable] = [None] * self.num_nodes
        out: List[Set[int]] = [set() for _ in range(self.num_nodes)]
        for i in range(self.num_nodes):
            colors[perm[i]] = self.colors[i]
            out[perm[i]] = {perm[j] for j in self.out_edges[i]}
        return Digraph(
            self.num_nodes, tuple(colors), tuple(frozenset(s) for s in out)
        )


def _normalize_palette(colors: Sequence[Hashable]) -> List[int]:
    """Map node colors to dense ints in an isomorphism-invariant way.

    Integer colors (the bi-colored 0/1 palette of the paper) are used as-is.
    Other hashable palettes are ranked by ``repr`` string, which is
    deterministic across processes for value-like colors; callers that need
    full rigor should pre-normalize to ints.
    """
    if all(isinstance(c, int) for c in colors):
        return [int(c) for c in colors]
    palette = set(colors)
    by_repr: Dict[str, Hashable] = {}
    for c in palette:
        other = by_repr.setdefault(repr(c), c)
        if other is not c:
            raise GraphError(
                f"ambiguous digraph color palette: distinct colors {other!r} "
                f"and {c!r} share a repr; pre-normalize the palette to ints"
            )
    ranked = {c: i for i, c in enumerate(sorted(palette, key=repr))}
    return [ranked[c] for c in colors]


def digraph_refinement(g: Digraph, initial: Sequence[int]) -> List[int]:
    """Coarsest equitable partition of a digraph refining ``initial``.

    Node signature = (class, sorted out-neighbor classes, sorted in-neighbor
    classes).  New class ids are assigned by sorted signature so the result
    is isomorphism-invariant: isomorphic digraphs (with matching initial
    colorings) receive identical class-id structures.

    Runs on the numpy kernel from
    :data:`~repro.perf.kernel.DIGRAPH_NUMPY_MIN_NODES` nodes on and on the
    Python reference below; the kernel reproduces the reference's
    numbering bit-for-bit, so canonical encodings — and the pinned
    ``canonical_hash`` goldens — do not depend on the size rule.
    """
    if resolve_kernel(g.num_nodes, DIGRAPH_NUMPY_MIN_NODES) == "numpy":
        return DigraphKernel(g).refine(initial)
    return _digraph_refinement_python(g, initial)


def _digraph_refinement_python(
    g: Digraph,
    initial: Sequence[int],
    preds: Optional[Tuple[FrozenSet[int], ...]] = None,
) -> List[int]:
    """The per-node tuple/sort reference implementation (parity oracle).

    ``preds`` (``g.in_edges()``) may be passed in by callers that refine
    the same digraph many times.
    """
    classes = list(initial)
    if preds is None:
        preds = g.in_edges()
    while True:
        sigs = []
        for x in range(g.num_nodes):
            sigs.append(
                (
                    classes[x],
                    tuple(sorted(classes[y] for y in g.out_edges[x])),
                    tuple(sorted(classes[y] for y in preds[x])),
                )
            )
        ordered = sorted(set(sigs))
        palette = {sig: i for i, sig in enumerate(ordered)}
        new_classes = [palette[sig] for sig in sigs]
        if new_classes == classes:
            return classes
        classes = new_classes


def _encode_ordering(g: Digraph, order: Sequence[int]) -> Encoding:
    """Encoding of g under a node ordering: (colors row, adjacency bitstring).

    ``order[i]`` = node placed at position i.  The adjacency component packs
    the row-major boolean matrix into bytes (the paper's w(M) word).
    """
    n = g.num_nodes
    palette = _normalize_palette(g.colors)
    colors_row = tuple(palette[order[i]] for i in range(n))
    bits = bytearray((n * n + 7) // 8)
    position = {node: i for i, node in enumerate(order)}
    for u in range(n):
        pu = position[u]
        base = pu * n
        for v in g.out_edges[u]:
            idx = base + position[v]
            bits[idx >> 3] |= 1 << (idx & 7)
    return colors_row, bytes(bits)


def _make_refiner(g: Digraph):
    """One refinement callable for a whole individualization–refinement
    search: the numpy backend prebuilds the flat digraph buffers once and
    reuses them across the hundreds of re-refinements the recursion makes.
    """
    if resolve_kernel(g.num_nodes, DIGRAPH_NUMPY_MIN_NODES) == "numpy":
        return DigraphKernel(g).refine
    preds = g.in_edges()
    return lambda classes: _digraph_refinement_python(g, classes, preds)


def canonical_search(g: Digraph) -> Tuple[Encoding, Tuple[int, ...]]:
    """The canonical encoding of ``g`` and a node order that attains it.

    Individualization–refinement: leaves are discrete partitions, each
    giving a candidate encoding; the minimum is canonical.  The order is
    the first leaf reaching that minimum (``order[i]`` is the node at
    canonical position ``i``).  Ties across automorphic nodes are broken
    arbitrarily but consistently: on isomorphic inputs the orders are
    related by an isomorphism, which is what lets results computed in
    canonical coordinates be mapped back onto any copy.

    Memoized on the (hashable, immutable) digraph under the cache kind
    ``"canonical_key"``: the search is by far the most expensive step of
    the Lemma 3.1 ordering, and :func:`canonical_key`,
    :func:`canonical_hash` and the shared class structure
    (:func:`repro.core.ordering.compute_class_structure`) all start from
    it.  The result is backend-independent (the kernels agree
    bit-for-bit, so they walk the same search tree).

    Automorphisms found on the way prune the tree.  Two leaves with the
    same encoding give an automorphism ``γ``; a subtree is skipped only
    when some such ``γ`` (checked explicitly, never assumed) fixes the
    subtree's path prefix pointwise and maps an already-explored sibling
    onto it.  The refinement is equivariant, so the skipped subtree is the
    ``γ``-image of one explored earlier and holds no encoding that was not
    met before.  In particular the first leaf of the minimum encoding is
    never skipped: the result is exactly that of the unpruned search.
    Two rules use this: at every tree node, siblings in one orbit of the
    automorphisms fixing the prefix are explored once; and a leaf equal to
    the first leaf abandons the rest of its branch back to the level where
    it left the first path (McKay's rule).  On K_{3,7} with every node
    colored alike this takes 9 leaves instead of 3!·7! = 30 240.
    """
    return _cache.memo_value("canonical_key", g, lambda: _canonical_search(g))


def _canonical_search(g: Digraph) -> Tuple[Encoding, Tuple[int, ...]]:
    n = g.num_nodes
    refine = _make_refiner(g)
    best: Optional[Tuple[Encoding, Tuple[int, ...]]] = None
    first: Optional[Tuple[Encoding, List[int], Tuple[int, ...]]] = None
    autos: List[List[int]] = []  # automorphisms, as node -> image

    def automorphism(a: Sequence[int], b: Sequence[int]) -> List[int]:
        """The node map carrying leaf order ``a`` onto leaf order ``b``."""
        gamma = [0] * n
        for x, y in zip(a, b):
            gamma[x] = y
        return gamma

    def orbit(seeds: List[int], path: Tuple[int, ...]) -> Set[int]:
        """Closure of ``seeds`` under the automorphisms fixing ``path``."""
        gens = [gm for gm in autos if all(gm[x] == x for x in path)]
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            x = frontier.pop()
            for gm in gens:
                y = gm[x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    def recurse(classes: List[int], path: Tuple[int, ...]) -> Optional[int]:
        """Search below ``path``; returns the level to unwind to, if any."""
        nonlocal best, first
        classes = refine(classes)
        cells: Dict[int, List[int]] = {}
        for node, cid in enumerate(classes):
            cells.setdefault(cid, []).append(node)
        target_cell = None
        for cid in sorted(cells):
            if len(cells[cid]) > 1:
                target_cell = cells[cid]
                break
        if target_cell is None:
            # Discrete: class ids are a permutation of 0..n-1; order by id.
            order = sorted(range(n), key=lambda x: classes[x])
            enc = _encode_ordering(g, order)
            if first is None:
                first = (enc, order, path)
                best = (enc, tuple(order))
                return None
            assert best is not None
            if enc < best[0]:
                best = (enc, tuple(order))
            elif enc == best[0] and best[0] != first[0]:
                autos.append(automorphism(best[1], order))
            if enc == first[0]:
                gamma = automorphism(first[1], order)
                autos.append(gamma)
                first_path = first[2]
                level = 0
                while path[level] == first_path[level]:
                    level += 1
                if gamma[first_path[level]] == path[level] and all(
                    gamma[x] == x for x in path[:level]
                ):
                    return level
            return None
        next_id = n  # a fresh class id, strictly above existing ones
        explored: List[int] = []
        for node in target_cell:
            if explored and node in orbit(explored, path):
                continue
            explored.append(node)
            child = list(classes)
            child[node] = next_id
            unwind = recurse(child, path + (node,))
            if unwind is not None and unwind < len(path):
                return unwind
        return None

    recurse(_normalize_palette(g.colors), ())
    assert best is not None
    return best


def canonical_key(g: Digraph) -> CanonicalKey:
    """Total-order key: (node count, canonical colors row, canonical matrix).

    ``canonical_key(g1) == canonical_key(g2)`` iff the colored digraphs are
    isomorphic; keys of non-isomorphic digraphs compare consistently in
    every process, giving the ``≺`` of Lemma 3.1.  Memoized through
    :func:`canonical_search`.
    """
    encoding, _ = canonical_search(g)
    return (g.num_nodes, *encoding)


def digraphs_isomorphic(a: Digraph, b: Digraph) -> bool:
    """Colored-digraph isomorphism via canonical keys."""
    if a.num_nodes != b.num_nodes:
        return False
    return canonical_key(a) == canonical_key(b)


# ----------------------------------------------------------------------
# Content-addressed network hashing (the persistent-cache key)
# ----------------------------------------------------------------------


def underlying_digraph(network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None) -> Digraph:
    """The node-colored underlying graph of a network, as a :class:`Digraph`.

    Every undirected edge becomes a 2-cycle of arcs; port labels are
    dropped.  This is exactly the object Definition 2.1 quantifies over:
    equivalence classes, surroundings, free-automorphism certificates and
    the Theorem 4.1 regular-subgroup criterion are all functions of it, so
    its isomorphism class determines every feasibility-layer answer.

    Simple networks only (as everywhere in the canonical machinery).
    """
    if not network.is_simple:
        raise GraphError("underlying_digraph requires a simple network")
    colors: Sequence[Hashable]
    if node_colors is None:
        colors = tuple([0] * network.num_nodes)
    else:
        if len(node_colors) != network.num_nodes:
            raise GraphError(
                f"node coloring has {len(node_colors)} entries for "
                f"{network.num_nodes} nodes"
            )
        colors = tuple(node_colors)
    arcs: List[Tuple[int, int]] = []
    for (u, _, v, _) in network.edges():
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph.build(network.num_nodes, arcs, colors)


def canonical_form_bytes(
    network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None
) -> bytes:
    """Deterministic byte serialization of the canonical form.

    The layout is ``version | n | canonical colors row | canonical
    adjacency bits``, each length-prefixed, so distinct canonical forms
    never serialize to the same bytes.
    """
    n, colors_row, bits = canonical_key(underlying_digraph(network, node_colors))
    head = f"repro-canonical-v{CANONICAL_HASH_VERSION}|{n}|".encode("ascii")
    palette = ",".join(map(str, colors_row)).encode("ascii")
    return head + str(len(palette)).encode("ascii") + b"|" + palette + b"|" + bits


def canonical_hash(
    network: "AnonymousNetwork", node_colors: Optional[Sequence[Hashable]] = None
) -> str:
    """SHA-256 content address of the colored underlying graph.

    Two networks share a hash iff their node-colored underlying graphs are
    isomorphic — the hash is invariant under node relabeling
    (``with_nodes_permuted``, with the coloring permuted alongside) and
    under arbitrary port relabelings (``with_ports_relabeled``), and stable
    across processes and machines (no ``PYTHONHASHSEED`` dependence).

    This is the cache key of :mod:`repro.serve.store`: every query the
    service answers is a pure function of exactly this isomorphism class
    (pass the placement's bicoloring as ``node_colors``), so persisted
    answers can be shared between all isomorphic copies of an instance.
    """
    return hashlib.sha256(canonical_form_bytes(network, node_colors)).hexdigest()
