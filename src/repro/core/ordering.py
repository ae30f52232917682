"""COMPUTE & ORDER: equivalence classes of ``(G, p)`` in the ``≺`` order.

Every ELECT agent runs this computation on its privately-drawn map.  The
output is *physically canonical*: class membership of a node is determined
by the isomorphism class of its surrounding (Lemma 3.1), and the class
order is the canonical-key order — so agents with different private node
numberings of the same network agree on which physical node lies in which
class, and on the class order.  That is exactly the paper's "all agents
agree on the classes … and on the order ≺".

Per the protocol (Figure 3), the ``ℓ`` classes containing home-bases come
first (in ``≺`` order among themselves), followed by the node-only classes
(in ``≺`` order among themselves).

Because the result is isomorphism-invariant, the simulator computes it once
per isomorphism class of bicolored map, not once per agent: the structure
is stored in the canonical coordinates of the map's canonical form and
mapped back through each agent's own numbering (:func:`shared_form`).  Each
agent still *semantically* computes from its own map — the answer it gets
is exactly the one its own computation would give — and ``uncached()``
turns the sharing off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import GraphError
from ..graphs.automorphisms import equivalence_classes
from ..graphs.canonical import CanonicalKey, canonical_search, underlying_digraph
from ..graphs.network import AnonymousNetwork
from ..graphs.surroundings import order_equivalence_classes
from ..perf import cache as _cache


@dataclass(frozen=True)
class ClassStructure:
    """The ordered equivalence classes of a bi-colored instance.

    Attributes
    ----------
    classes:
        All classes, agent classes first: ``classes[:num_agent_classes]``
        are ``C_1 ≺ … ≺ C_ℓ`` (contain home-bases), the rest are
        ``C_{ℓ+1} ≺ … ≺ C_k``.
    num_agent_classes:
        ``ℓ``.
    """

    classes: Tuple[Tuple[int, ...], ...]
    num_agent_classes: int

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def agent_classes(self) -> Tuple[Tuple[int, ...], ...]:
        return self.classes[: self.num_agent_classes]

    @property
    def node_classes(self) -> Tuple[Tuple[int, ...], ...]:
        return self.classes[self.num_agent_classes :]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @property
    def gcd(self) -> int:
        """``gcd(|C_1|, …, |C_k|)`` — ELECT's feasibility threshold."""
        return math.gcd(*self.sizes) if len(self.sizes) > 1 else self.sizes[0]

    def class_of_node(self, node: int) -> int:
        """Index (into ``classes``) of the class containing ``node``."""
        for idx, cls in enumerate(self.classes):
            if node in cls:
                return idx
        raise GraphError(f"node {node} is in no class")


def shared_form(
    network: AnonymousNetwork, bicoloring: Sequence[int]
) -> Optional[Tuple[CanonicalKey, Tuple[int, ...]]]:
    """The canonical key and canonical node order of a bicolored map.

    ``order[i]`` is the node at canonical position ``i``; two maps with
    equal keys are isomorphic through ``order_a[i] ↦ order_b[i]``.  Returns
    ``None`` when results are not shared: inside ``uncached()``, and for a
    map that is not simple (the canonical machinery rejects it, and the
    direct computation raises as it always has).
    """
    if not (_cache.cache_enabled() and network.is_simple):
        return None
    encoding, order = canonical_search(underlying_digraph(network, bicoloring))
    return (network.num_nodes, *encoding), order


def compute_class_structure(
    network: AnonymousNetwork,
    bicoloring: Sequence[int],
) -> ClassStructure:
    """Classes of Definition 2.1 in the order protocol ELECT uses.

    ``bicoloring[v]`` is 1 for home-bases (black), 0 otherwise.  Because
    color-preserving automorphisms map black to black, every class is
    monochromatic; classes are split into agent classes and node classes
    accordingly.

    Shared per isomorphism class (cache kind ``"class_structure"``): the
    first map of a class computes the structure and stores it in canonical
    coordinates; every isomorphic map gets it relabeled through its own
    canonical order — the same classes, in the same order, that its own
    computation would produce.
    """
    form = shared_form(network, bicoloring)
    if form is None:
        return _compute_class_structure(network, bicoloring)
    key, order = form

    def compute() -> ClassStructure:
        position = [0] * len(order)
        for i, node in enumerate(order):
            position[node] = i
        return _relabeled(_compute_class_structure(network, bicoloring), position)

    canonical = _cache.memo_value("class_structure", key, compute)
    return _relabeled(canonical, order)


def _relabeled(structure: ClassStructure, mapping: Sequence[int]) -> ClassStructure:
    """The structure with node ``v`` renamed ``mapping[v]`` (classes re-sorted)."""
    classes = tuple(
        tuple(sorted(mapping[v] for v in cls)) for cls in structure.classes
    )
    return ClassStructure(classes=classes, num_agent_classes=structure.num_agent_classes)


def _compute_class_structure(
    network: AnonymousNetwork,
    bicoloring: Sequence[int],
) -> ClassStructure:
    """The direct computation (no sharing)."""
    raw = equivalence_classes(network, bicoloring)
    ordered = order_equivalence_classes(network, raw, bicoloring)
    agent_classes = [c for c in ordered if bicoloring[c[0]] == 1]
    node_classes = [c for c in ordered if bicoloring[c[0]] == 0]
    for cls in ordered:
        colors = {bicoloring[v] for v in cls}
        if len(colors) != 1:
            raise GraphError(
                f"class {cls} mixes home-bases and plain nodes; "
                "equivalence classes must be monochromatic"
            )
    classes = tuple(tuple(c) for c in agent_classes + node_classes)
    return ClassStructure(classes=classes, num_agent_classes=len(agent_classes))
