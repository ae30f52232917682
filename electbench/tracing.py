"""The traced run: spans around calls into each layer, and per-layer metrics.

Wrappers are installed from this file only, and only for the traced run.
Each function is wrapped at the name its caller looks up (a module
attribute or a class attribute), never where it is defined, so a call made
through another import path is not double counted.  A span records its
name, start, end, parent span and the op it belongs to; spans stay in
memory and are written out when the run ends.  A layer's self time is its
span minus its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: (module or class path, attribute, span name).  The span names are the
#: layers the per-layer metrics are reported for.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.runtime:Simulation", "run", "sim.run"),
    ("repro.core.elect", "compute_class_structure", "compute_order"),
    ("repro.core.feasibility", "compute_class_structure", "compute_order"),
    ("repro.core.ordering", "equivalence_classes", "equiv_classes"),
    ("repro.core.ordering", "order_equivalence_classes", "surroundings.order"),
    ("repro.graphs.surroundings", "surrounding_profile", "surroundings.profile"),
    ("repro.graphs.surroundings", "surrounding_key", "surroundings.key"),
    ("repro.graphs.surroundings", "digraph_refinement", "canonical.refine"),
    ("repro.graphs.surroundings", "canonical_key", "canonical.key"),
    ("repro.serve.service", "canonical_hash", "canonical.hash"),
    ("repro.core.cayley_elect", "find_regular_subgroups", "regular_subgroups"),
    ("repro.core.feasibility", "find_regular_subgroups", "regular_subgroups"),
    ("repro.core.cayley_elect", "color_preserving_automorphisms", "automorphisms"),
    ("repro.obs.ledger:RunLedger", "append_with_checkpoint", "ledger.commit"),
    ("repro.serve.wire", "parse_query", "serve.parse"),
    ("repro.serve.store:CanonicalStore", "get", "store.get"),
    ("repro.serve.store:CanonicalStore", "put", "store.put"),
    ("repro.serve.service", "compute_payload", "serve.compute"),
)

#: Per-layer metrics: name -> unit.  Times and counts are means per op.
PER_LAYER: Dict[str, str] = {
    "sim.self_ms": "ms/op",
    "sim.steps": "steps/op",
    "sim.accesses": "accesses/op",
    "sim.us_per_step": "us/step",
    "compute_order.ms": "ms/op",
    "compute_order.calls": "calls/op",
    "compute_order.share": "share",
    "compute_order.repeat_ratio": "ratio",
    "equiv_classes.ms": "ms/op",
    "equiv_classes.calls": "calls/op",
    "surroundings.order_ms": "ms/op",
    "surroundings.profile_ms": "ms/op",
    "surroundings.key_ms": "ms/op",
    "canonical.refine_ms": "ms/op",
    "canonical.key_ms": "ms/op",
    "canonical.hash_ms": "ms/op",
    "cache.hit_ratio": "ratio",
    "regular_subgroups.ms": "ms/op",
    "regular_subgroups.calls": "calls/op",
    "automorphisms.ms": "ms/op",
    "automorphisms.calls": "calls/op",
    "ledger.commit_ms": "ms/op",
    "ledger.commits": "commits/op",
    "ledger.rows": "rows/commit",
    "campaign.self_ms": "ms/op",
    "serve.parse_ms": "ms/op",
    "store.get_ms": "ms/op",
    "store.put_ms": "ms/op",
    "serve.compute_ms": "ms/op",
    "serve.tier.memory": "share",
    "serve.tier.sqlite": "share",
    "serve.tier.compute": "share",
    "trace.ops_per_s_ratio": "ratio",
}

def _resolve(path: str) -> Any:
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder.

    A span is ``[id, parent, name, op, start, end]``; ``op`` is the id of
    the op span it belongs to, so all spans of one op share it.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.op_kind: Dict[int, str] = {}
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self.structure_args: List[Tuple[Any, Tuple[int, ...]]] = []
        self.sim_counts: List[Tuple[int, int]] = []  # (steps, accesses) per run
        self._installed: List[Tuple[Any, str, Any]] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, self._op, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str) -> Iterator[None]:
        """The span of one op; every span opened inside shares its id."""
        sid = len(self.spans)
        self._op = sid
        self.op_kind[sid] = kind
        self._open("op")
        try:
            yield
        finally:
            self._close(sid)
            self._op = None

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "compute_order":
                # Keep the arguments; their class keys are computed after
                # the run, outside every span.
                tracer.structure_args.append((args[0], tuple(args[1])))
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if name == "sim.run":
                tracer.sim_counts.append((result.steps, result.total_accesses))
            return result

        return wrapper

    def install(self) -> None:
        for path, attr, name in WRAPPED:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, op, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "op": op,
                    "op_kind": self.op_kind.get(op), "start": start, "end": end,
                }) + "\n")


class Analysis:
    """Inclusive and self times per layer, overall and per op kind."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.tracer = tracer
        child_time = [0.0] * len(spans)
        self.violations = 0
        for sid, parent, name, op, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
                p = spans[parent]
                if start < p[4] or end > p[5]:
                    self.violations += 1
        for sid, parent, name, op, start, end in spans:
            if child_time[sid] > (end - start):
                self.violations += 1
        # (op kind, layer) -> [inclusive s, self s, calls]
        self.by_kind: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        self.ops_by_kind: Dict[str, int] = defaultdict(int)
        for sid, parent, name, op, start, end in spans:
            kind = tracer.op_kind.get(op, "?")
            if name == "op":
                self.ops_by_kind[kind] += 1
            cell = self.by_kind[(kind, name)]
            cell[0] += end - start
            cell[1] += (end - start) - child_time[sid]
            cell[2] += 1

    def total(self, name: str, kinds: Optional[Sequence[str]] = None, field: int = 0) -> float:
        return sum(
            v[field] for (kind, layer), v in self.by_kind.items()
            if layer == name and (kinds is None or kind in kinds)
        )

    def layer_table(self, kinds: Sequence[str]) -> List[Tuple[str, float, float]]:
        """(layer, inclusive ms, self ms) over ops of ``kinds``, largest
        self time first."""
        layers = {layer for (_, layer) in self.by_kind if layer != "op"}
        rows = [
            (layer, self.total(layer, kinds) * 1000.0, self.total(layer, kinds, field=1) * 1000.0)
            for layer in layers
        ]
        return sorted(rows, key=lambda r: -r[2])


def class_repeat_ratio(tracer: Tracer) -> float:
    """COMPUTE & ORDER calls per distinct bicolored class among them."""
    from repro.graphs.canonical import canonical_hash
    from repro.perf import cache

    if not tracer.structure_args:
        return 0.0
    with cache.uncached():
        keys = {canonical_hash(net, list(colors)) for net, colors in tracer.structure_args}
    return len(tracer.structure_args) / len(keys)


def per_layer_metrics(
    a: Analysis,
    ops: int,
    counts: Dict[str, int],
    cache_delta: Tuple[int, int],
    ops_per_s_ratio: float,
    workload: str,
) -> Dict[str, float]:
    """Every per-layer metric as a mean per op over the traced run."""
    tracer = a.tracer

    def ms(name: str) -> float:
        return a.total(name) * 1000.0 / ops

    def calls(name: str) -> float:
        return a.total(name, field=2) / ops

    op_time = a.total("op")
    steps = sum(s for s, _ in tracer.sim_counts)
    accesses = sum(x for _, x in tracer.sim_counts)
    sim_self = a.total("sim.run", field=1)
    hits, misses = cache_delta
    tiers = {t: counts.get(t, 0) for t in ("memory", "sqlite", "compute")}
    requests = sum(tiers.values()) or 1
    commits = a.total("ledger.commit", field=2)
    return {
        "sim.self_ms": sim_self * 1000.0 / ops,
        "sim.steps": steps / ops,
        "sim.accesses": accesses / ops,
        "sim.us_per_step": sim_self * 1e6 / steps if steps else 0.0,
        "compute_order.ms": ms("compute_order"),
        "compute_order.calls": calls("compute_order"),
        "compute_order.share": a.total("compute_order") / op_time if op_time else 0.0,
        "compute_order.repeat_ratio": class_repeat_ratio(tracer),
        "equiv_classes.ms": ms("equiv_classes"),
        "equiv_classes.calls": calls("equiv_classes"),
        "surroundings.order_ms": ms("surroundings.order"),
        "surroundings.profile_ms": ms("surroundings.profile"),
        "surroundings.key_ms": ms("surroundings.key"),
        "canonical.refine_ms": ms("canonical.refine"),
        "canonical.key_ms": ms("canonical.key"),
        "canonical.hash_ms": ms("canonical.hash"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "regular_subgroups.ms": ms("regular_subgroups"),
        "regular_subgroups.calls": calls("regular_subgroups"),
        "automorphisms.ms": ms("automorphisms"),
        "automorphisms.calls": calls("automorphisms"),
        "ledger.commit_ms": ms("ledger.commit"),
        "ledger.commits": calls("ledger.commit"),
        "ledger.rows": counts.get("ledger_rows", 0) / commits if commits else 0.0,
        "campaign.self_ms": (
            a.total("op", field=1) * 1000.0 / ops if workload == "campaign" else 0.0
        ),
        "serve.parse_ms": ms("serve.parse"),
        "store.get_ms": ms("store.get"),
        "store.put_ms": ms("store.put"),
        "serve.compute_ms": ms("serve.compute"),
        "serve.tier.memory": tiers["memory"] / requests,
        "serve.tier.sqlite": tiers["sqlite"] / requests,
        "serve.tier.compute": tiers["compute"] / requests,
        "trace.ops_per_s_ratio": ops_per_s_ratio,
    }
