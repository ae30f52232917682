"""The effectual election protocol for Cayley graphs (Theorem 4.1).

The paper modifies ELECT so that, after MAP-DRAWING, each agent tests
whether its map is a Cayley graph ("time-consuming, but decidable") and, if
so, decides feasibility using *translation* classes instead of arbitrary
automorphism classes.

Concretely (see DESIGN.md §"Theorem 4.1 fidelity"):

* Because left-translations act **freely**, every translation class of a
  regular subgroup ``R ≤ Aut(G)`` has the same size
  ``d_R = |{γ ∈ R : γ(blacks) = blacks}|``, so the paper's
  ``gcd(|C_1|,…,|C_k|)`` for that subgroup is just ``d_R``.
* A Cayley graph may admit several non-conjugate regular subgroups whose
  ``d_R`` values *differ* (e.g. C₄ with two adjacent agents: ℤ₄ gives
  ``d = 1``, the Klein subgroup gives ``d = 2``).  Any subgroup with
  ``d_R > 1`` yields a Theorem 2.1 impossibility certificate via its
  natural labeling, so the agent declares failure if **any** regular
  subgroup does.
* When every regular subgroup has ``d_R = 1``, election is possible, and —
  as verified exhaustively by the Theorem 4.1 experiment (bench E8) — the
  generic gcd condition holds as well, so the agent proceeds with the
  ordinary ELECT reduction stages (whose class agreement is
  isomorphism-invariant and therefore unproblematic).  Should the two
  criteria ever diverge, the agent reports ``AMBIGUOUS`` instead of
  electing; the experiments assert this never fires.

The protocol is *generic*: a :class:`CayleyElectAgent` dropped on a
non-Cayley network reports ``NOT_CAYLEY`` (it is only claimed effectual for
the Cayley class).

The multiset of ``d_R`` values (or "not Cayley") depends only on the
isomorphism class of the bicolored map, so the simulator computes it once
per class and shares it between agents (:func:`stabilizer_sizes`).
The verdict itself is decided per agent, because it also depends on the
agent's schedule.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..graphs.automorphisms import color_preserving_automorphisms
from ..graphs.network import AnonymousNetwork
from ..groups.permgroup import find_regular_subgroups
from ..perf import cache as _cache
from ..sim.traversal import LocalMap
from .elect import ElectAgent
from .ordering import ClassStructure, shared_form
from .reduce_phases import Schedule
from .result import AgentReport, Verdict


def stabilizer_sizes(
    network: AnonymousNetwork, bicoloring: Sequence[int], limit: int
) -> Optional[Tuple[int, ...]]:
    """Sorted ``d_R`` over the regular subgroups ``R ≤ Aut(G)``, or ``None``
    if there are none (the map is not a Cayley graph).

    Shared per isomorphism class of the bicolored map (cache kind
    ``"cayley_stabilizers"``; see :func:`repro.core.ordering.shared_form`);
    ``limit`` caps the automorphism search.  Exceptions are not stored.
    """
    form = shared_form(network, bicoloring)
    if form is None:
        return _stabilizer_sizes(network, bicoloring, limit)
    key, _ = form
    return _cache.memo_value(
        "cayley_stabilizers",
        (key, limit),
        lambda: _stabilizer_sizes(network, bicoloring, limit),
    )


def _stabilizer_sizes(
    network: AnonymousNetwork, bicoloring: Sequence[int], limit: int
) -> Optional[Tuple[int, ...]]:
    autos = color_preserving_automorphisms(network, node_colors=None, limit=limit)
    subgroups = find_regular_subgroups(autos, network.num_nodes)
    if not subgroups:
        return None
    blacks = {v for v, c in enumerate(bicoloring) if c == 1}
    return tuple(sorted(
        sum(
            1
            for phi in subgroup
            if all((phi[v] in blacks) == (v in blacks) for v in network.nodes())
        )
        for subgroup in subgroups
    ))


class CayleyElectAgent(ElectAgent):
    """ELECT with the Theorem 4.1 feasibility test for Cayley graphs."""

    def __init__(self, *args, automorphism_limit: int = 1_000_000, **kwargs):
        super().__init__(*args, **kwargs)
        self.automorphism_limit = automorphism_limit

    def _check_feasibility(
        self,
        local_map: LocalMap,
        structure: ClassStructure,
        schedule: Schedule,
    ) -> Optional[AgentReport]:
        sizes = stabilizer_sizes(
            local_map.network, local_map.bicoloring(), self.automorphism_limit
        )
        if sizes is None:
            return AgentReport(verdict=Verdict.NOT_CAYLEY)

        if any(d > 1 for d in sizes):
            # Theorem 4.1 impossibility: the natural labeling of that
            # subgroup's presentation has label classes of size d > 1.
            return AgentReport(verdict=Verdict.FAILED)

        if not schedule.succeeds:
            # All translation certificates say "possible" but the generic
            # gcd condition fails: outside the empirically-verified
            # equivalence (never observed; see bench E8).  Refuse to guess.
            return AgentReport(verdict=Verdict.AMBIGUOUS)
        return None
