"""The three benchmark workloads: inputs, passes, timed ops and answer checks.

A workload turns a seed into a stream of *passes*.  Every pass starts from
``repro.perf.cache.invalidate()`` with fresh network objects and, where the
workload has them, a fresh SQLite store or run ledger, so no pass can reuse
work done by an earlier one.  Reuse *within* an op (the k agents of one
election) or a pass (campaign cases, warm requests) is intended: it is what
later optimisations target.

Inputs are plain data (edge lists, homes, request bytes) derived only from
the seed and the pass index; the program sees nothing else.  Answers are
recorded during the timed region and checked after it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.serve.wire as wire
from repro import (
    Placement,
    cycle_graph,
    grid_graph,
    hypercube_cayley,
    path_graph,
    run_cayley_elect,
    run_elect,
    torus_cayley,
)
from repro.adversary import FuzzConfig, run_fuzz
from repro.adversary.specs import table1_battery
from repro.core.feasibility import cayley_election_possible, elect_prediction
from repro.core.result import Verdict
from repro.graphs.builders import from_networkx
from repro.graphs.canonical import canonical_hash
from repro.graphs.cayley import dihedral_cayley
from repro.graphs.network import AnonymousNetwork
from repro.obs.ledger import RunLedger
from repro.perf import cache
from repro.serve.service import ElectionService, compute_payload
from repro.serve.store import CanonicalStore
from repro.trace.invariants import THEOREM31_CONSTANT

from calib import CAL_REF_MS, Calibrator

Edges = Tuple[Tuple[int, Any, int, Any], ...]

def _walls(ops: Sequence[Op]) -> Tuple[float, float]:
    """Raw and scaled timed wall time (s) of ops timed one by one."""
    return sum(op.ms for op in ops) / 1000.0, sum(op.norm_ms for op in ops) / 1000.0


@dataclass
class Op:
    """One timed operation and what the checks need to judge it."""

    pass_index: int
    kind: str  # the op kind the workload reports separately
    #: "cold" or "warm" feed cold_p50_ms / warm_p50_ms; elect's Cayley ops
    #: ("once": one placement per graph and pass) feed neither.
    tier: str
    ms: float = 0.0
    answer: Any = None
    error: Optional[str] = None
    ok: bool = True
    #: Agent moves of the op's election divided by r·|E| (agents times
    #: edges), the quantity Theorem 3.1 bounds by a constant.
    cost: Optional[float] = None
    #: Calibration-loop time measured next to the op (see Calibrator).
    cal: float = CAL_REF_MS

    @property
    def norm_ms(self) -> float:
        """The op's latency at the reference calibration speed."""
        return self.ms * CAL_REF_MS / self.cal


@dataclass
class Pass:
    """The per-pass state: inputs plus the fresh objects the ops run on."""

    index: int
    items: List[Any]
    networks: List[AnonymousNetwork] = field(default_factory=list)
    store: Optional[CanonicalStore] = None
    service: Optional[ElectionService] = None
    ledger: Optional[RunLedger] = None
    path: Optional[str] = None


def _rng(workload: str, seed: int, *parts: Any) -> random.Random:
    return random.Random(":".join(str(p) for p in ("electbench", workload, seed) + parts))


def _class_key(network: AnonymousNetwork, homes: Sequence[int]) -> str:
    """Isomorphism class of a bicolored instance, computed without caching
    so that input generation leaves nothing behind for the timed ops."""
    with cache.uncached():
        return canonical_hash(network, Placement.of(homes).bicoloring(network))


def _by_pass(ops: Sequence[Op]) -> Dict[int, List[Op]]:
    by_pass: Dict[int, List[Op]] = {}
    for op in ops:
        by_pass.setdefault(op.pass_index, []).append(op)
    return by_pass


def _describe(exc: BaseException) -> str:
    """An exception and the program line that raised it, for failed ops."""
    frames = traceback.extract_tb(exc.__traceback__)
    where = ""
    if frames:
        last = frames[-1]
        where = f" at {os.path.relpath(last.filename)}:{last.lineno} in {last.name}"
    return f"{type(exc).__name__}: {exc}{where}"


def _fresh_pass_state() -> None:
    cache.invalidate()
    gc.collect()


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# elect
# ----------------------------------------------------------------------

#: Ladder slots of one pass: (family, node counts, edges, agents).  Each
#: slot draws one graph and elects on it twice, with two placements of
#: distinct isomorphism classes (the second op is the "warm" one: same
#: graph, new placement).  Sizes, edge counts and agent counts are fixed
#: per slot, so every pass has the same shape and only the drawn instances
#: vary; the op_tail_ms percentile falls inside the n=22 random slot.
LADDER = (
    ("random", (10, 10), 14, 3),
    ("random", (16, 16), 26, 4),
    ("random", (22, 22), 42, 5),
    ("grid", (16, 16), None, 4),
    ("cycle", (16, 18), None, 4),
    ("path", (16, 18), None, 4),
)
GRIDS = {16: (4, 4)}

#: Cayley graphs of the Cayley ops.  Every pass runs two light ones in
#: rotation; every other pass also runs a heavy (16-node) one, alternating
#: Q4 and the 4x4 torus.  The 8-node quaternion graph is left out: ~5 s per
#: op would swamp a pass.
CAYLEY_BUILDERS = {
    "Q3": lambda: hypercube_cayley(3).network,
    "T3x4": lambda: torus_cayley((3, 4)).network,
    "D6": lambda: dihedral_cayley(6).network,
    "Q4": lambda: hypercube_cayley(4).network,
    "T4x4": lambda: torus_cayley((4, 4)).network,
}
CAYLEY_LIGHT = ("Q3", "T3x4", "D6")
CAYLEY_HEAVY = ("Q4", "T4x4")
CAYLEY_AGENTS = {"Q3": (2, 5), "T3x4": (2, 4), "D6": (2, 4), "Q4": (3, 5), "T4x4": (3, 5)}

_FAMILY_BUILDERS = {"cycle": cycle_graph, "path": path_graph}


def random_connected(rng: random.Random, n: int, m: int) -> AnonymousNetwork:
    """A random connected graph with exactly ``n`` nodes and ``m`` edges:
    a random spanning tree plus uniformly drawn extra edges."""
    import networkx as nx

    order = rng.sample(range(n), n)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(pairs) < m:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(sorted(pairs))
    return from_networkx(graph)


@dataclass(frozen=True)
class ElectItem:
    """One elect op as plain data."""

    kind: str  # "elect" (run_elect) or "cayley" (run_cayley_elect)
    tier: str
    graph: str  # ladder family or Cayley graph name
    num_nodes: int
    edges: Edges  # empty for Cayley graphs (rebuilt from their builder)
    homes: Tuple[int, ...]
    seed: int


class ElectWorkload:
    """``run_elect`` over a seeded ladder plus a fixed share of Cayley ops."""

    name = "elect"
    tail_q = 0.90

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.seen: set = set()  # classes used so far in this run
        self._check_nets: Dict[str, AnonymousNetwork] = {}
        self.calibrator = Calibrator()

    # -- inputs -----------------------------------------------------------

    def _draw_graph(self, rng: random.Random, slot: Tuple) -> AnonymousNetwork:
        family, (lo, hi), num_edges, _ = slot
        if family == "random":
            return random_connected(rng, rng.randint(lo, hi), num_edges)
        if family == "grid":
            return grid_graph(*GRIDS[rng.randint(lo, hi)])
        return _FAMILY_BUILDERS[family](rng.randint(lo, hi))

    def _draw_homes(
        self, rng: random.Random, network: AnonymousNetwork, k: int
    ) -> Optional[Tuple[Tuple[int, ...], str]]:
        """Homes of a class not used yet in this run, and that class."""
        for _ in range(200):
            homes = tuple(sorted(rng.sample(range(network.num_nodes), k)))
            key = _class_key(network, homes)
            if key not in self.seen:
                self.seen.add(key)
                return homes, key
        return None

    def items(self, index: int) -> List[ElectItem]:
        """The ops of pass ``index`` (call in pass order: classes never repeat)."""
        rng = _rng(self.name, self.seed, index)
        firsts: List[ElectItem] = []
        seconds: List[ElectItem] = []
        for slot in LADDER:
            while True:
                network = self._draw_graph(rng, slot)
                edges = tuple(network.edges())
                picks = []
                for _ in range(2):
                    drawn = self._draw_homes(rng, network, slot[3])
                    if drawn is None:
                        break
                    picks.append(drawn)
                if len(picks) == 2:
                    break
                for _, key in picks:  # this graph is exhausted: draw another
                    self.seen.discard(key)
            for tier, (homes, _), out in zip(("cold", "warm"), picks, (firsts, seconds)):
                out.append(
                    ElectItem("elect", tier, slot[0], network.num_nodes, edges,
                              homes, rng.randrange(2**31))
                )
        cayley = [CAYLEY_LIGHT[(2 * index + i) % 3] for i in range(2)]
        if index % 2 == 0:
            cayley.append(CAYLEY_HEAVY[(index // 2) % 2])
        for name in cayley:
            network = CAYLEY_BUILDERS[name]()
            drawn = self._draw_homes(rng, network, rng.randint(*CAYLEY_AGENTS[name]))
            if drawn is None:
                continue
            firsts.append(
                ElectItem("cayley", "once", name, network.num_nodes, (), drawn[0],
                          rng.randrange(2**31))
            )
        rng.shuffle(firsts)
        rng.shuffle(seconds)
        return firsts + seconds

    @staticmethod
    def build(item: ElectItem) -> AnonymousNetwork:
        if item.kind == "cayley":
            return CAYLEY_BUILDERS[item.graph]()
        return AnonymousNetwork(item.num_nodes, item.edges)

    # -- passes -----------------------------------------------------------

    def prepare(self, index: int) -> Pass:
        items = self.items(index)
        p = Pass(index, items, networks=[self.build(it) for it in items])
        _fresh_pass_state()
        return p

    def run(self, p: Pass, span: Any = None) -> Tuple[List[Op], float, float]:
        ops: List[Op] = []
        before = self.calibrator.sample()
        for item, network in zip(p.items, p.networks):
            op = Op(p.index, item.kind, item.tier)
            runner = run_cayley_elect if item.kind == "cayley" else run_elect
            t0 = time.perf_counter()
            try:
                if span is None:
                    outcome = runner(network, Placement.of(item.homes), seed=item.seed)
                else:
                    with span(item.kind):
                        outcome = runner(network, Placement.of(item.homes), seed=item.seed)
            except Exception as exc:  # a crashed op is a failed op, not a crashed run
                op.error = _describe(exc)
            else:
                op.answer = (
                    [(r.verdict, r.leader_color) for r in outcome.reports],
                    outcome.total_moves,
                )
                op.cost = outcome.total_moves / (len(item.homes) * network.num_edges)
            op.ms = (time.perf_counter() - t0) * 1000.0
            after = self.calibrator.sample()
            op.cal = (before + after) / 2.0
            before = after
            ops.append(op)
        return (ops,) + _walls(ops)

    def finish(self, p: Pass) -> None:
        pass

    # -- checks -----------------------------------------------------------

    def _expected(self, item: ElectItem) -> bool:
        placement = Placement.of(item.homes)
        if item.kind == "cayley":
            # One network object per Cayley graph: its regular subgroups are
            # memoized per network, so the search runs once per graph.
            network = self._check_nets.get(item.graph)
            if network is None:
                network = self._check_nets[item.graph] = self.build(item)
            return cayley_election_possible(network, placement)
        return elect_prediction(self.build(item), placement).succeeds

    def check(self, p_items: Dict[int, List[Any]], ops: List[Op]) -> None:
        """Judge every op against reference answers; sets ``op.ok``."""
        for index, pass_ops in _by_pass(ops).items():
            for item, op in zip(p_items[index], pass_ops):
                op.ok = op.error is None and self.judge(item, op.answer)

    def judge(self, item: ElectItem, answer: Any) -> bool:
        reports, moves = answer
        verdicts = [v for v, _ in reports]
        if any(v in (Verdict.NOT_CAYLEY, Verdict.AMBIGUOUS) for v in verdicts):
            return False
        elected = Verdict.LEADER in verdicts
        if elected != self._expected(item):
            return False
        if elected:
            leaders = {c for v, c in reports}
            if verdicts.count(Verdict.LEADER) != 1 or len(leaders) != 1:
                return False
        elif any(v is not Verdict.FAILED for v in verdicts):
            return False
        budget = THEOREM31_CONSTANT * len(item.homes) * max(1, len(self.build(item).edges()))
        return moves <= budget

    def moves_per_rE(self, ops: List[Op]) -> float:
        return trimmed_cost(op for op in ops if op.pass_index == 0)


def trimmed_cost(ops: Any) -> float:
    """Mean move cost of the ops' elections with the top and bottom fifth
    left out: the rare election whose reduction runs many search rounds
    would otherwise decide the figure."""
    costs = sorted(op.cost for op in ops if op.cost is not None)
    cut = len(costs) // 5
    kept = costs[cut:len(costs) - cut]
    return sum(kept) / len(kept)


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------

#: Cases per pass: 2 scheduler specs over the 14 Table-1 instances (one
#: cold and one warm ledger commit).  Short passes let the calibration
#: samples between them follow the machine.
CAMPAIGN_CASES = 28
#: Every 5th case carries a random crash-fault plan (watchdog supervised).
CAMPAIGN_FAULT_EVERY = 5
#: Passes cycle through this many fuzz configs (seeds derived from the
#: benchmark seed), so a run covers 16 x 28 distinct cases; each config's
#: later passes must reproduce its first pass's ledger digest exactly.
CAMPAIGN_CONFIGS = 16
#: One ledger commit per sweep row (one scheduler spec over all 14
#: instances), so each row's per-case ``wall_ms`` is that row's mean and the
#: first commit holds exactly the cases that meet each instance first.
CAMPAIGN_CHUNK = 14
_BAD_OUTCOMES = ("silent-wrong-answer", "schedule-failure")


class CampaignWorkload:
    """``run_fuzz`` over the Table-1 battery with crash faults and a ledger."""

    name = "campaign"
    tail_q = 0.90

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.calibrator = Calibrator()

    def items(self, index: int) -> Tuple[FuzzConfig, List[Any]]:
        config_seed = self.seed * CAMPAIGN_CONFIGS + index % CAMPAIGN_CONFIGS
        return FuzzConfig(seed=config_seed, fault_every=CAMPAIGN_FAULT_EVERY), table1_battery()

    def prepare(self, index: int) -> Pass:
        path = os.path.join(self.workdir, f"campaign-{index}.db")
        p = Pass(index, self.items(index), ledger=RunLedger(path), path=path)
        _fresh_pass_state()
        return p

    def _speed(self) -> float:
        return statistics.median(self.calibrator.sample() for _ in range(3))

    def run(self, p: Pass, span: Any = None) -> Tuple[List[Op], float, float]:
        before = self._speed()
        started = time.perf_counter()
        error = None
        try:
            if span is None:
                self._sweep(p)
            else:
                with span("pass"):
                    self._sweep(p)
        except Exception as exc:
            error = f"{_describe(exc)} (FuzzConfig seed {p.items[0].seed})"
        wall = time.perf_counter() - started
        cal = (before + self._speed()) / 2.0
        assert p.ledger is not None
        rows = p.ledger.rows(kind="fuzz")
        digest = p.ledger.digest(kind="fuzz")
        ops = []
        for row in rows:
            tier = "cold" if row["case_index"] < CAMPAIGN_CHUNK else "warm"
            op = Op(p.index, "case", tier, ms=float(row["wall_ms"]), error=error, cal=cal)
            op.answer = (row["outcome"], (p.items[0].seed, digest))
            if row["steps"]:
                # The ledger's budget column is THEOREM31_CONSTANT·r·|E|.
                op.cost = row["moves"] * THEOREM31_CONSTANT / row["budget"]
            ops.append(op)
        for _ in range(CAMPAIGN_CASES - len(rows)):  # cases the sweep never logged
            ops.append(Op(p.index, "case", "warm", error=error or "case missing from ledger"))
        return ops, wall, wall * CAL_REF_MS / cal

    def _sweep(self, p: Pass) -> None:
        config, battery = p.items
        run_fuzz(
            battery,
            runs=CAMPAIGN_CASES,
            config=config,
            workers=1,
            stream=True,
            ledger=p.ledger,
            checkpoint_every=CAMPAIGN_CHUNK,
        )

    def finish(self, p: Pass) -> None:
        if p.ledger is not None:
            p.ledger.close()
        if p.path is not None:
            os.remove(p.path)

    def check(self, p_items: Dict[int, List[Any]], ops: List[Op]) -> None:
        reference: Dict[int, str] = {}  # config seed -> first pass's digest
        for op in sorted(ops, key=lambda o: o.pass_index):
            if op.answer is not None:
                reference.setdefault(*op.answer[1])
        for op in ops:
            op.ok = self.judge(op.answer, reference) and op.error is None

    @staticmethod
    def judge(answer: Any, reference: Dict[int, str]) -> bool:
        if answer is None:
            return False
        outcome, (config_seed, digest) = answer
        return outcome not in _BAD_OUTCOMES and digest == reference.get(config_seed)

    def moves_per_rE(self, ops: List[Op]) -> float:
        return trimmed_cost(op for op in ops if op.pass_index < CAMPAIGN_CONFIGS)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

SERVE_REQUESTS = 100
#: Every 5th request is cold (a class not answered yet in this pass).
SERVE_COLD_EVERY = 5
#: Memory-tier capacity, below the 20 classes of a pass, so warm requests
#: for evicted classes are answered by the SQLite tier.
SERVE_MEMORY_LIMIT = 8
SERVE_OPS = ("feasibility", "elect", "classify")
#: Requests between two calibration samples.
SERVE_CAL_EVERY = 10


def connected_atlas() -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """Connected graphs of the networkx atlas with 3 to 7 nodes."""
    import networkx as nx

    return [
        (g.number_of_nodes(), tuple(sorted(g.edges())))
        for g in nx.graph_atlas_g()
        if 3 <= g.number_of_nodes() <= 7 and nx.is_connected(g)
    ]


def _port_edges(
    rng: random.Random, n: int, pairs: Sequence[Tuple[int, int]], perm: Sequence[int]
) -> List[List[int]]:
    """Edge records of a renumbered copy with randomly permuted ports."""
    degree = [0] * n
    for u, v in pairs:
        degree[perm[u]] += 1
        degree[perm[v]] += 1
    ports = [rng.sample(range(d), d) for d in degree]
    used = [0] * n
    edges = []
    for u, v in rng.sample(list(pairs), len(pairs)):
        a, b = perm[u], perm[v]
        edges.append([a, ports[a][used[a]], b, ports[b][used[b]]])
        used[a] += 1
        used[b] += 1
    return edges


@dataclass(frozen=True)
class ServeItem:
    """One request as the bytes a client would send."""

    tier: str
    body: bytes
    sibling: int  # index of the cold request of the same class
    op: str


class ServeWorkload:
    """In-process requests through parse_query, answer_batch, canonical_json."""

    name = "serve"
    tail_q = 0.95
    #: Passes whose cold requests are also answered by a real election.
    reference_passes = 3

    def __init__(self, seed: int, workdir: str, atlas: Optional[List] = None):
        self.seed = seed
        self.workdir = workdir
        self.atlas = atlas if atlas is not None else connected_atlas()
        self.calibrator = Calibrator()

    def items(self, index: int) -> List[ServeItem]:
        rng = _rng(self.name, self.seed, index)
        out: List[ServeItem] = []
        colds: List[Tuple[int, int, Tuple, Tuple[int, ...], str]] = []
        seen: set = set()
        for i in range(SERVE_REQUESTS):
            if i % SERVE_COLD_EVERY == 0:
                op = SERVE_OPS[len(colds) % len(SERVE_OPS)]
                while True:
                    n, pairs = rng.choice(self.atlas)
                    homes = tuple(sorted(rng.sample(range(n), rng.randint(2, min(4, n - 1)))))
                    edges = _port_edges(rng, n, pairs, list(range(n)))
                    key = (op, _class_key(AnonymousNetwork(n, [tuple(e) for e in edges]), homes))
                    if key not in seen:
                        seen.add(key)
                        break
                colds.append((i, n, pairs, homes, op))
                sibling, perm = i, list(range(n))
            else:
                sibling, n, pairs, homes, op = rng.choice(colds)
                perm = rng.sample(range(n), n)
                edges = _port_edges(rng, n, pairs, perm)
            if sibling != i:
                homes_out = sorted(perm[h] for h in homes)
            else:
                homes_out = list(homes)
            body = json.dumps(
                {"op": op, "network": {"num_nodes": n, "edges": edges}, "homes": homes_out}
            ).encode("utf-8")
            out.append(ServeItem("cold" if sibling == i else "warm", body, sibling, op))
        return out

    def prepare(self, index: int) -> Pass:
        path = os.path.join(self.workdir, f"serve-{index}.db")
        store = CanonicalStore(path)
        service = ElectionService(store=store, memory_limit=SERVE_MEMORY_LIMIT)
        p = Pass(index, self.items(index), store=store, service=service, path=path)
        _fresh_pass_state()
        return p

    @staticmethod
    def request(service: ElectionService, body: bytes) -> Tuple[bytes, str]:
        """One request, end to end: wire bytes in, canonical bytes out."""
        query = wire.parse_query(json.loads(body))
        sources: List[str] = []
        answer = service.answer_batch([query], sources=sources)[0]
        return wire.canonical_json(answer), sources[0]

    def run(self, p: Pass, span: Any = None) -> Tuple[List[Op], float, float]:
        assert p.service is not None
        ops: List[Op] = []
        before = self.calibrator.sample()
        for i, item in enumerate(p.items):
            op = Op(p.index, item.tier, item.tier)
            t0 = time.perf_counter()
            try:
                if span is None:
                    op.answer = self.request(p.service, item.body)
                else:
                    with span(item.tier):
                        op.answer = self.request(p.service, item.body)
            except Exception as exc:
                op.error = _describe(exc)
            op.ms = (time.perf_counter() - t0) * 1000.0
            if op.answer is not None:
                # The tier that answered decides the reported latency class.
                op.tier = "cold" if op.answer[1] == "compute" else "warm"
            ops.append(op)
            if (i + 1) % SERVE_CAL_EVERY == 0 or i + 1 == len(p.items):
                after = self.calibrator.sample()
                for done in ops[-(i % SERVE_CAL_EVERY + 1):]:
                    done.cal = (before + after) / 2.0
                before = after
        return (ops,) + _walls(ops)

    def finish(self, p: Pass) -> None:
        if p.service is not None:
            p.service.close()
        if p.store is not None:
            p.store.close()
        if p.path is not None:
            os.remove(p.path)

    def check(self, p_items: Dict[int, List[Any]], ops: List[Op]) -> None:
        by_pass = _by_pass(ops)
        reference = sorted(by_pass)[: self.reference_passes]
        self._elections: List[float] = []
        for index, pass_ops in by_pass.items():
            items = p_items[index]
            for item, op in zip(items, pass_ops):
                op.ok = op.error is None and self.judge(item, op.answer, pass_ops[item.sibling].answer)
                if op.ok and index in reference and item.tier == "cold":
                    op.ok = self._reference(item, op.answer[0])
                    op.cost = self._elections[-1] if op.ok else None

    @staticmethod
    def judge(item: ServeItem, answer: Any, sibling: Any) -> bool:
        if answer is None or sibling is None:
            return False
        body, source = answer
        if (source == "compute") != (item.tier == "cold"):
            return False
        if item.tier == "warm" and body != sibling[0]:
            return False
        value = json.loads(body)
        gcd = math.gcd(*value["class_sizes"])
        if value.get("gcd", gcd) != gcd:
            return False
        if item.op == "feasibility":
            return value["elects"] == (gcd == 1)
        if item.op == "elect":
            return value["succeeds"] == (gcd == 1)
        return (value["verdict"] == "possible") == (gcd == 1)

    def _reference(self, item: ServeItem, body: bytes) -> bool:
        """Recompute a cold answer directly, and elect on the instance."""
        op, network, placement = wire.parse_query(json.loads(item.body))
        if wire.canonical_json(compute_payload(op, network, placement)) != body:
            return False
        outcome = run_elect(network, placement, seed=0)
        self._elections.append(
            outcome.total_moves / (placement.num_agents * network.num_edges)
        )
        return outcome.elected == (math.gcd(*json.loads(body)["class_sizes"]) == 1)

    def moves_per_rE(self, ops: List[Op]) -> float:
        return trimmed_cost(ops)


WORKLOADS = {w.name: w for w in (ElectWorkload, CampaignWorkload, ServeWorkload)}
