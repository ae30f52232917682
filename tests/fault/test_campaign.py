"""Campaign runner: classification, determinism, CLI contract."""

import json

import pytest

from repro.fault.campaign import (
    IMPOSSIBLE,
    OUTCOMES,
    CampaignConfig,
    _evaluate_pair,
    build_pairs,
    run_campaign,
    standard_battery,
)
from repro.obs.ledger import RunLedger


@pytest.fixture(scope="module")
def quick_report():
    return run_campaign(pairs=16, workers=1, quick=True)


@pytest.fixture(scope="module")
def oracle_rows():
    """Every row of the same sweep, evaluated serially on the test side
    (the report itself keeps only failing rows)."""
    tasks = build_pairs(standard_battery(quick=True), 16, CampaignConfig())
    return [_evaluate_pair(t) for t in tasks]


def _swept(**kwargs):
    """Run a quick campaign into an in-memory ledger: (report, digest)."""
    ledger = RunLedger(":memory:")
    try:
        report = run_campaign(quick=True, ledger=ledger, **kwargs)
        return report, ledger.digest(kind="fault")
    finally:
        ledger.close()


class TestBattery:
    def test_standard_battery_mixes_feasibility(self):
        from repro.core.feasibility import elect_prediction

        instances = standard_battery()
        verdicts = {
            elect_prediction(i.network, i.placement).succeeds
            for i in instances
        }
        assert verdicts == {True, False}

    def test_build_pairs_trims_to_exact_count(self):
        instances = standard_battery(quick=True)
        tasks = build_pairs(instances, 13, CampaignConfig())
        assert len(tasks) == 13
        assert [t[0] for t in tasks] == list(range(13))
        # Trimming keeps battery breadth: more than one instance survives.
        assert len({t[1].label for t in tasks}) > 1

    def test_build_pairs_requires_instances(self):
        with pytest.raises(ValueError):
            build_pairs([], 10, CampaignConfig())


class TestClassification:
    def test_no_silent_wrong_answer(self, quick_report):
        assert quick_report.impossible_rows == []
        assert quick_report.ok

    def test_counts_cover_every_row(self, quick_report, oracle_rows):
        assert sum(quick_report.counts.values()) == quick_report.total_pairs
        assert quick_report.total_pairs == len(oracle_rows) == 16
        assert all(row.outcome in OUTCOMES for row in oracle_rows)
        oracle_counts = {name: 0 for name in OUTCOMES}
        for row in oracle_rows:
            oracle_counts[row.outcome] += 1
        assert quick_report.counts == oracle_counts
        assert quick_report.counts[IMPOSSIBLE] == 0

    def test_rows_carry_run_evidence(self, quick_report, oracle_rows):
        completed = [r for r in oracle_rows if r.outcome != "detected-stall"]
        assert completed, "quick battery must complete some runs"
        assert all(r.steps > 0 and r.moves >= 0 for r in completed)
        recovered = [r for r in oracle_rows if r.outcome == "recovered"]
        assert all(r.restarts > 0 for r in recovered)
        assert quick_report.restarts == sum(r.restarts for r in oracle_rows)
        assert quick_report.stalls == sum(r.stalls for r in oracle_rows)

    def test_structural_audits_green(self, quick_report):
        assert quick_report.audit_failures == []
        assert quick_report.audit_failure_count == 0

    def test_report_json_round_trips(self, quick_report):
        data = json.loads(quick_report.to_json())
        assert data["pairs"] == quick_report.total_pairs == 16
        assert data["ok"] is True
        assert data["restarts"] == quick_report.restarts
        # Only failing rows are kept, and a green sweep has none.
        assert data["rows"] == [] == quick_report.rows

    def test_render_mentions_verdict(self, quick_report):
        text = quick_report.render()
        assert "verdict: OK" in text
        for name in OUTCOMES:
            assert name in text

    def test_fooled_rows_fail_the_verdict_and_show_in_render(self):
        # Byzantine-mixed sweeps route rows through the extended outcome
        # vocabulary; a silently-fooled row must sink the campaign even
        # though it is not IMPOSSIBLE, and render must not hide it.
        import dataclasses

        from repro.fault.campaign import CampaignReport, _FOOLED

        task = build_pairs(standard_battery(quick=True), 1, CampaignConfig())[0]
        fooled_row = dataclasses.replace(_evaluate_pair(task), outcome=_FOOLED)
        report = CampaignReport(
            seed=0,
            rows=[fooled_row],
            total_pairs=1,
            outcome_counts={_FOOLED: 1},
        )
        assert not report.ok
        assert _FOOLED in report.render()


class TestDeterminism:
    @pytest.fixture(scope="class")
    def reference(self):
        return _swept(pairs=16, workers=1)

    def test_same_config_same_report(self, reference):
        report, digest = reference
        again, again_digest = _swept(pairs=16, workers=1)
        assert again.to_dict() == report.to_dict()
        assert again_digest == digest

    def test_worker_count_does_not_change_the_report(self, reference):
        report, digest = reference
        parallel, parallel_digest = _swept(pairs=16, workers=2)
        assert parallel.to_dict() == report.to_dict()
        assert parallel_digest == digest

    def test_seed_changes_the_sweep(self, reference):
        _, digest = reference
        other, other_digest = _swept(
            pairs=16, workers=1, config=CampaignConfig(seed=99)
        )
        assert other_digest != digest
        assert other.impossible_rows == []


class TestMetrics:
    def test_campaign_outcomes_counted(self):
        from repro.fault import metrics

        metrics.reset()
        report = run_campaign(pairs=8, workers=1, quick=True)
        snap = metrics._metrics.snapshot()["metrics"]
        series = snap["campaign_outcomes_total"]["series"]
        total = sum(int(s["value"]) for s in series)
        assert total == report.total_pairs == 8


class TestCli:
    def test_cli_quick_run_writes_report(self, tmp_path):
        from repro.fault.__main__ import main

        out = tmp_path / "campaign.json"
        code = main(["--quick", "--pairs", "8", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["pairs"] == 8
        assert data["counts"][IMPOSSIBLE] == 0
