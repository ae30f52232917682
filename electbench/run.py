"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 electbench/run.py --workload elect --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a separate traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every answer
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import tracing
from calib import CAL_REF_MS, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Child processes that repeat the set-up; setup_s is the median of these
#: and the measuring process's own set-up.
SETUP_REPEATS = 2

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cold_p50_ms": "ms",
    "warm_p50_ms": "ms",
    "moves_per_rE": "moves/rE",
    "peak_rss_mb": "MB",
}


class Walls(NamedTuple):
    """Timed wall time of a run (s): as measured, and at reference speed."""

    raw: float
    scaled: float


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("elect", "campaign", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="time the set-up, print it in seconds and exit (used for setup_s)",
    )
    return ap.parse_args(argv)


def _import_program() -> Any:
    """Import the benchmark's workloads, and with them ``repro`` from src/."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")
    return workloads


def _machine_facts() -> str:
    from repro.perf.kernel import default_kernel

    return (
        f"machine: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"refinement kernel {default_kernel()}"
    )


def measure(
    wl: Any, first: Any, seconds: float, span: Any = None
) -> Tuple[List[Any], Dict[int, List[Any]], Walls]:
    """Run whole passes until ``seconds`` of timed work are done.

    Returns the ops, the inputs of each pass (for the checks) and the timed
    wall time.  Only the ops themselves are timed; preparing a pass (fresh
    inputs, store, ledger) and the calibration samples are not.
    """
    ops: List[Any] = []
    items: Dict[int, List[Any]] = {}
    timed = scaled = 0.0
    p = first
    while True:
        pass_ops, wall, scaled_wall = wl.run(p, span)
        wl.finish(p)
        ops.extend(pass_ops)
        items[p.index] = p.items
        timed += wall
        scaled += scaled_wall
        if timed >= seconds:
            return ops, items, Walls(timed, scaled)
        p = wl.prepare(p.index + 1)


def _setup_children(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """Scaled set-up times of fresh processes (imports included)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        scaled, raw = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(scaled), float(raw)))
    return samples


def end_to_end(
    wl: Any, ops: List[Any], walls: Walls, setup: List[float], rss_mb: float,
    raw: bool = False,
) -> Dict[str, float]:
    """The end-to-end metrics; timings at reference speed unless ``raw``."""
    from workloads import percentile

    ms = [op.ms if raw else op.norm_ms for op in ops]
    cold = [m for m, op in zip(ms, ops) if op.tier == "cold"]
    warm = [m for m, op in zip(ms, ops) if op.tier == "warm"]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / (walls.raw if raw else walls.scaled),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": percentile(ms, wl.tail_q),
        "cold_p50_ms": statistics.median(cold),
        "warm_p50_ms": statistics.median(warm),
        "moves_per_rE": wl.moves_per_rE(ops),
        "peak_rss_mb": rss_mb,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_e2e(
    wl: Any, ops: List[Any], metrics: Dict[str, float], raw: Dict[str, float]
) -> None:
    beyond = sum(1 for op in ops if op.norm_ms > metrics["op_tail_ms"])
    kinds: Dict[str, int] = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    print(f"ops: {len(ops)} ({', '.join(f'{k} {n}' for k, n in sorted(kinds.items()))})")
    print(f"op_tail_ms is p{wl.tail_q * 100:g}: {beyond} samples beyond it")
    cal = statistics.median(op.cal for op in ops)
    print(f"calibration loop: median {cal:.3f} ms (reference {CAL_REF_MS} ms)")
    print(f"{'metric':20s} {'reported':>14s} {'as measured':>14s}")
    for name, unit in END_TO_END.items():
        print(f"{name:20s} {metrics[name]:14.4f} {raw[name]:14.4f} {unit}")


def _traced(args: argparse.Namespace, wl: Any, first: Any) -> Tuple[List[Any], Dict[str, float], bool]:
    """Untraced then traced halves; per-layer metrics from the traced one."""
    from repro.perf import cache

    half = args.seconds / 2.0
    base_ops, base_items, base_walls = measure(wl, first, half)
    tracer = tracing.Tracer()
    stats0 = cache.cache_stats()
    tracer.install()
    try:
        nxt = wl.prepare(max(base_items) + 1)
        ops, items, walls = measure(wl, nxt, half, span=tracer.op)
    finally:
        tracer.uninstall()
    stats1 = cache.cache_stats()
    hits = sum(v["hits"] - stats0.get(k, {}).get("hits", 0) for k, v in stats1.items())
    misses = sum(v["misses"] - stats0.get(k, {}).get("misses", 0) for k, v in stats1.items())
    all_ops = base_ops + ops
    items.update(base_items)
    wl.check(items, all_ops)

    counts: Dict[str, int] = {}
    for op in ops:
        if args.workload == "serve" and op.answer is not None:
            counts[op.answer[1]] = counts.get(op.answer[1], 0) + 1
    if args.workload == "campaign":
        counts["ledger_rows"] = len(ops)
    ratio = (len(ops) / walls.scaled) / (len(base_ops) / base_walls.scaled)
    analysis = tracing.Analysis(tracer)
    metrics = tracing.per_layer_metrics(
        analysis, len(ops), counts, (hits, misses), ratio, args.workload
    )
    print(f"traced ops: {len(ops)}; untraced ops: {len(base_ops)}")
    for kind, count in sorted(analysis.ops_by_kind.items()):
        kinds = (kind,)
        table = analysis.layer_table(kinds)
        op_s = analysis.total("op", kinds)
        share = analysis.total("compute_order", kinds) / op_s
        print(f"[{kind}] {count} op spans, {op_s * 1000.0:.1f} ms; "
              f"compute_order share {share:.3f}; compute_order calls "
              f"{analysis.total('compute_order', kinds, field=2):.0f}")
        print(f"    {'layer':22s} {'self ms':>10s} {'incl. ms':>10s}")
        for layer, incl, own in table[:6]:
            print(f"    {layer:22s} {own:10.1f} {incl:10.1f}")
    print(f"span nesting violations: {analysis.violations}")
    for name, unit in tracing.PER_LAYER.items():
        print(f"{name:28s} {metrics[name]:14.6f} {unit}")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return all_ops, metrics, analysis.violations == 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    calibrator = Calibrator()
    try:
        before = calibrator.sample()
        t0 = time.perf_counter()
        workloads = _import_program()
        workdir.mkdir(parents=True)
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        first = wl.prepare(0)
        setup = time.perf_counter() - t0
        setup_scaled = setup * CAL_REF_MS / ((before + calibrator.sample()) / 2.0)
        if args.setup_only:
            wl.finish(first)
            print(repr(setup_scaled), repr(setup))
            return 0
        print(_machine_facts())
        if args.trace:
            ops, metrics, sound = _traced(args, wl, first)
        else:
            ops, items, walls = measure(wl, first, args.seconds)
            rss = _peak_rss_mb()
            wl.check(items, ops)
            children = _setup_children(args)
            metrics = end_to_end(wl, ops, walls, [setup_scaled] + [c for c, _ in children], rss)
            raw = end_to_end(wl, ops, walls, [setup] + [r for _, r in children], rss, raw=True)
            _report_e2e(wl, ops, metrics, raw)
            sound = True
    except BenchError as exc:
        print(f"electbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if not op.ok)
    for op in ops:
        if not op.ok:
            line = f"failed op: pass {op.pass_index} {op.kind} {op.error or 'wrong answer'}"
            print(line)
            print(f"electbench: {failed} of {len(ops)} ops failed; first {line}", file=sys.stderr)
            break
    units = tracing.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0 and sound,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
