"""Ledger digests pinned as fixed values.

The other digest tests compare runs with each other (worker counts,
shards, resume); these compare one small seeded sweep per campaign kind
against a constant.  Any change to what an election does — verdicts,
leaders, moves, steps, detections, canonical hashes — changes a digest,
so a change that claims "same outputs" must leave all three unchanged.
"""

import pytest

from repro.adversary.fuzz import FuzzConfig, run_fuzz
from repro.fault.byzantine_campaign import ByzantineConfig, run_byzantine_campaign
from repro.fault.campaign import CampaignConfig, run_campaign
from repro.obs.ledger import RunLedger


def _fuzz(path):
    return run_fuzz(
        runs=56, config=FuzzConfig(seed=11, fault_every=3),
        workers=1, ledger=path,
    )


def _fault(path):
    return run_campaign(
        pairs=24, config=CampaignConfig(seed=5),
        workers=1, ledger=path,
    )


def _byzantine(path):
    return run_byzantine_campaign(
        cases=16, powers=(0, 1, 2),
        config=ByzantineConfig(seed=3, timeout=200, max_restarts=2),
        quick=True, workers=1, ledger=path,
    )


GOLDENS = [
    (
        "fuzz", _fuzz, 56,
        {"elected-correctly": 53, "recovered": 3},
        "d0f1ff551bbac2e167f63c33bce71cb43dc575fac70ce13a11547b78383fa3b6",
    ),
    (
        "fault", _fault, 24,
        {"elected-correctly": 20, "recovered": 4},
        "095510222bde269919899589e54a211227fd43011ed0a27e094f24287389ace7",
    ),
    (
        "byzantine", _byzantine, 16,
        {"elected-correctly": 11, "detected": 5},
        "7c37aeb183ae0937f7291218f3517b301ce0763db325f4e98e40ea7703a6c5af",
    ),
]


@pytest.mark.parametrize(
    "kind,sweep,rows,counts,digest", GOLDENS, ids=[g[0] for g in GOLDENS]
)
def test_ledger_digest_matches_golden(kind, sweep, rows, counts, digest, tmp_path):
    path = str(tmp_path / f"{kind}.db")
    report = sweep(path)
    assert {k: v for k, v in report.counts.items() if v} == counts
    with RunLedger(path) as led:
        assert led.count(kind=kind) == rows
        assert led.digest(kind=kind) == digest
