"""Property test: the streaming engine is observationally equal to a
serial in-memory sweep, for any worker count and shard split.

For random grid specs the engine's streamed classification counts (and
schedule-coverage counters, restart/stall totals, and retained failure
rows) must equal what the test-side oracle computes: ``build_cases`` /
``build_pairs`` materialized and evaluated serially.  Sharded runs must
*partition* the oracle totals — per-shard counters sum to the whole.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.fuzz import (
    FuzzCampaignSpec,
    FuzzConfig,
    _evaluate_case,
    build_cases,
    run_fuzz,
)
from repro.campaign import CampaignEngine, Shard
from repro.fault.campaign import (
    CampaignConfig,
    _evaluate_pair,
    build_pairs,
    run_campaign,
)

SWEEP_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _legacy_fuzz(runs: int, cfg: FuzzConfig):
    """The pre-engine reference: materialize, map serially, dedup in order."""
    spec = FuzzCampaignSpec(runs=runs, config=cfg, quick=True)
    tasks = build_cases(spec.instances, runs, cfg)
    rows = [_evaluate_case(t) for t in tasks]
    seen: set = set()
    for row in rows:
        row.distinct = row.signature not in seen
        seen.add(row.signature)
    counts: dict = {}
    for row in rows:
        counts[row.outcome] = counts.get(row.outcome, 0) + 1
    return rows, counts, len(seen)


@given(
    runs=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    fault_every=st.sampled_from([0, 2, 3]),
    workers=st.sampled_from([1, 2]),
)
@SWEEP_SETTINGS
def test_streamed_fuzz_counts_equal_legacy(runs, seed, fault_every, workers):
    cfg = FuzzConfig(seed=seed, fault_every=fault_every)
    legacy_rows, legacy_counts, legacy_distinct = _legacy_fuzz(runs, cfg)

    report = run_fuzz(runs=runs, config=cfg, quick=True, workers=workers)
    assert {k: v for k, v in report.counts.items() if v} == legacy_counts
    assert report.distinct_schedules == legacy_distinct
    assert report.total_cases == runs
    assert [r.index for r in report.rows] == [
        r.index for r in legacy_rows if r.failed
    ]


@given(
    runs=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.sampled_from([2, 3]),
)
@SWEEP_SETTINGS
def test_sharded_fuzz_counters_partition_legacy_totals(runs, seed, shards):
    cfg = FuzzConfig(seed=seed)
    _rows, legacy_counts, _distinct = _legacy_fuzz(runs, cfg)

    summed: dict = {}
    observed = 0
    for i in range(shards):
        spec = FuzzCampaignSpec(runs=runs, config=cfg, quick=True)
        result = CampaignEngine(spec, shard=Shard(i, shards)).run()
        observed += result.processed
        for name, n in result.counts.items():
            summed[name] = summed.get(name, 0) + n
    assert observed == runs
    assert {k: v for k, v in summed.items() if v} == legacy_counts


@given(
    pairs=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.sampled_from([1, 2]),
)
@SWEEP_SETTINGS
def test_streamed_fault_counts_equal_legacy(pairs, seed, workers):
    cfg = CampaignConfig(seed=seed)
    spec_instances = None  # quick battery in both paths

    from repro.fault.campaign import standard_battery

    instances = standard_battery(quick=True)
    tasks = build_pairs(instances, pairs, cfg)
    legacy_rows = [_evaluate_pair(t) for t in tasks]
    legacy_counts: dict = {}
    for row in legacy_rows:
        legacy_counts[row.outcome] = legacy_counts.get(row.outcome, 0) + 1

    report = run_campaign(
        pairs=pairs,
        config=cfg,
        quick=True,
        workers=workers,
        instances=spec_instances,
    )
    assert {k: v for k, v in report.counts.items() if v} == legacy_counts
    assert report.total_pairs == pairs
    assert report.audit_failure_count == sum(
        1 for r in legacy_rows if r.audit_failures
    )
    assert report.restarts == sum(r.restarts for r in legacy_rows)
    assert report.stalls == sum(r.stalls for r in legacy_rows)
    assert [r.index for r in report.rows] == [
        r.index
        for r in legacy_rows
        if r.outcome == "silent-wrong-answer" or r.audit_failures
    ]
