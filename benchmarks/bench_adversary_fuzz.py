"""E12 — adversarial schedule exploration: fuzz throughput and coverage.

DESIGN.md §8.5: the interleaving fuzzer sweeps (instance × scheduler ×
optional fault plan) cases and deduplicates explored interleavings by
schedule signature.  The benchmark measures sweep wall-time while the
assertions check the coverage shape: a seeded full-battery sweep reaches
hundreds of distinct interleavings with zero silent wrong answers, and the
ddmin minimizer shrinks an injected-regression schedule to a small pinned
core that replays byte-identically.
"""

import resource
import sys

from repro.adversary import (
    FuzzConfig,
    InstanceSpec,
    minimize_row,
    run_fuzz,
)

K23 = InstanceSpec("complete_bipartite", (2, 3), (0, 1, 2, 3, 4), "K_2,3")


def _max_rss_mib() -> float:
    """Peak RSS of this process so far, in MiB (ru_maxrss is KiB on Linux,
    bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return peak / divisor


def run_sweep():
    return run_fuzz(runs=400, workers=4)


def run_regression_hunt():
    config = FuzzConfig(seed=1, agent_kwargs=(("matching", "toctou"),))
    report = run_fuzz(instances=[K23], runs=120, config=config, workers=4)
    results = [
        minimize_row(row, config=config) for row in report.failures[:2]
    ]
    return report, results


def test_bench_fuzz_sweep_coverage(once):
    report = once(run_sweep)
    assert report.ok
    assert report.counts["silent-wrong-answer"] == 0
    assert report.distinct_schedules >= 250
    print(
        f"\nfuzz sweep: {report.total_cases} cases, "
        f"{report.distinct_schedules} distinct interleavings "
        f"({report.duplicate_schedules} dedup hits)"
    )


STREAM_CHILD = r"""
import json, resource
from repro.adversary.fuzz import FuzzConfig, run_fuzz

report = run_fuzz(runs=600, config=FuzzConfig(seed=2), quick=True)
print(json.dumps({
    "rows": len(report.rows),
    "total": report.total_cases,
    "distinct": report.distinct_schedules,
    "ok": report.ok,
    "peak_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def run_streamed_sweep():
    import json
    import os
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-c", STREAM_CHILD],
        capture_output=True,
        text=True,
        env=os.environ.copy(),
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_streamed_sweep_max_rss(once):
    """The memory contract of the streaming engine: a sweep retains no
    rows and its peak RSS stays flat (measured in a fresh subprocess so
    other benchmarks' high-water marks don't pollute ``ru_maxrss``)."""
    stream = once(run_streamed_sweep)
    assert stream["ok"]
    assert stream["total"] == 600
    assert 0 < stream["distinct"] <= stream["total"]
    assert stream["rows"] == 0  # only failures are retained, and there are none
    peak_mib = stream["peak_kib"] / 1024.0
    assert peak_mib < 256.0, f"streamed sweep peaked at {peak_mib:.0f} MiB"
    print(
        f"\nstreamed sweep peak RSS {peak_mib:.0f} MiB, "
        f"{stream['distinct']} distinct interleavings"
    )


def test_bench_regression_hunt_and_minimize(once):
    report, results = once(run_regression_hunt)
    assert not report.ok and report.failures
    for result in results:
        assert result.verified
        assert result.reduction <= 0.25
    best = min(results, key=lambda r: r.minimized_len)
    print(
        f"\nregression hunt: {len(report.failures)} failures in "
        f"{report.total_cases} cases; best reproducer "
        f"{best.minimized_len}/{best.original_len} pins "
        f"({100 * best.reduction:.1f}%)"
    )
