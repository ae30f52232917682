"""Interleaving fuzzer: determinism, dedup, classification, coverage."""

import json

import pytest

from repro.adversary import (
    FuzzConfig,
    InstanceSpec,
    build_cases,
    build_scheduler,
    fuzz_stats,
    run_fuzz,
    schedule_signature,
    scheduler_specs,
    table1_battery,
)
from repro.adversary.fuzz import _evaluate_case
from repro.adversary.metrics import reset as reset_metrics
from repro.errors import AdversaryError
from repro.obs.ledger import RunLedger
from repro.sim import PCTScheduler


class TestSpecs:
    def test_table1_battery_builds_every_instance(self):
        specs = table1_battery()
        assert len(specs) >= 12
        for spec in specs:
            network, placement = spec.build()
            assert network.num_nodes >= 2
            assert placement.num_agents >= 1

    def test_quick_battery_is_a_subset(self):
        labels = {s.label for s in table1_battery()}
        quick = table1_battery(quick=True)
        assert 0 < len(quick) < len(labels)
        assert {s.label for s in quick} <= labels

    def test_instance_spec_round_trip(self):
        spec = table1_battery()[0]
        assert InstanceSpec.from_dict(spec.to_dict()) == spec

    def test_build_scheduler_rejects_unknown_kind(self):
        with pytest.raises(AdversaryError):
            build_scheduler({"kind": "clairvoyant"})

    def test_build_scheduler_rejects_bad_kwargs(self):
        with pytest.raises(AdversaryError):
            build_scheduler({"kind": "pct", "depth": 0})

    def test_scheduler_specs_cover_pct(self):
        specs = scheduler_specs(10, seed=0)
        assert len(specs) == 10
        kinds = {s["kind"] for s in specs}
        assert "pct" in kinds and "round-robin" in kinds
        for spec in specs:
            sched = build_scheduler(spec)
            assert sched.choose([0, 1], 0) in (0, 1)

    def test_pct_spec_builds_pct(self):
        sched = build_scheduler({"kind": "pct", "seed": 4, "depth": 2})
        assert isinstance(sched, PCTScheduler)
        assert (sched.seed, sched.depth) == (4, 2)


class TestSignatures:
    def test_signature_is_content_addressed(self):
        assert schedule_signature([0, 1, 2]) == schedule_signature((0, 1, 2))
        assert schedule_signature([0, 1, 2]) != schedule_signature([0, 2, 1])
        assert len(schedule_signature([0])) == 16


class TestGrid:
    def test_build_cases_needs_instances_and_runs(self):
        with pytest.raises(AdversaryError):
            build_cases([], 10, FuzzConfig())
        with pytest.raises(AdversaryError):
            build_cases(table1_battery(quick=True), 0, FuzzConfig())

    def test_fault_pairing_cadence(self):
        cfg = FuzzConfig(seed=1, fault_every=3)
        cases = build_cases(table1_battery(quick=True), 12, cfg)
        plans = [plan for (_, _, _, plan, _) in cases]
        assert sum(p is not None for p in plans) == 4
        assert all(
            (p is not None) == ((i + 1) % 3 == 0)
            for i, p in enumerate(plans)
        )


def _oracle_rows(runs, config=FuzzConfig()):
    """Every row of a quick sweep, evaluated serially on the test side
    (the report itself keeps only failing rows)."""
    tasks = build_cases(table1_battery(quick=True), runs, config)
    return [_evaluate_case(t) for t in tasks]


class TestSweep:
    def test_fuzz_is_deterministic_across_worker_counts(self):
        reports, digests = [], []
        for workers in (1, 2):
            ledger = RunLedger(":memory:")
            reports.append(
                run_fuzz(runs=24, quick=True, workers=workers, ledger=ledger)
            )
            digests.append(ledger.digest(kind="fuzz"))
            ledger.close()
        assert reports[0].to_dict() == reports[1].to_dict()
        assert digests[0] == digests[1]

    def test_fault_free_sweep_is_green(self):
        report = run_fuzz(runs=30, quick=True)
        assert report.ok
        assert report.counts["elected-correctly"] == 30
        assert report.counts["silent-wrong-answer"] == 0
        assert not report.failures

    def test_dedup_marks_repeated_interleavings(self):
        report = run_fuzz(runs=60, quick=True)
        assert (
            report.distinct_schedules + report.duplicate_schedules
            == report.total_cases
            == 60
        )
        assert report.duplicate_schedules > 0
        signatures = [row.signature for row in _oracle_rows(60)]
        assert report.distinct_schedules == len(set(signatures))

    def test_faulted_cases_reuse_campaign_vocabulary(self):
        cfg = FuzzConfig(seed=2, fault_every=2)
        report = run_fuzz(runs=20, quick=True, config=cfg)
        faulted = [r for r in _oracle_rows(20, cfg) if r.plan is not None]
        assert faulted
        for row in faulted:
            assert row.outcome in (
                "elected-correctly",
                "recovered",
                "detected-stall",
            )
        assert report.counts["silent-wrong-answer"] == 0

    def test_metrics_collector_counts_the_sweep(self):
        reset_metrics()
        report = run_fuzz(runs=20, quick=True)
        stats = fuzz_stats()
        assert sum(stats["runs"].values()) == 20
        assert (
            stats["schedules"].get("distinct", 0)
            == report.distinct_schedules
        )

    def test_report_json_round_trips(self):
        report = run_fuzz(runs=12, quick=True)
        data = json.loads(report.to_json())
        assert data["cases"] == 12
        assert data["ok"] is True
        # Only failing rows are kept, and a green sweep has none.
        assert data["rows"] == []
        assert "distinct_schedules" in data

    def test_render_mentions_verdict(self):
        report = run_fuzz(runs=6, quick=True)
        text = report.render()
        assert "verdict: OK" in text
        assert "distinct interleavings" in text
