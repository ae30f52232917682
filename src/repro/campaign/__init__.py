"""repro.campaign — the streaming, checkpointed, resumable sweep engine.

One engine, three frontends: :mod:`repro.fault` campaigns,
:mod:`repro.adversary` fuzzing, and :mod:`repro.analysis` batteries all
describe their sweeps as :class:`CampaignSpec` grids and let
:class:`CampaignEngine` stream the cases through workers into the
:class:`~repro.obs.ledger.RunLedger`.  See :mod:`repro.campaign.engine`
for the determinism/checkpoint contract and ``python -m repro.campaign``
for the CLI (``run`` / ``merge`` / ``digest`` / ``status``).
"""

from .engine import (
    CampaignEngine,
    CampaignRunResult,
    CampaignSpec,
    FailureKeeper,
    MetricsStage,
    OutcomeCounter,
    PredicateCounter,
    Shard,
    SignatureDedup,
    Stage,
    read_spill,
    run_spec,
)

__all__ = [
    "CampaignEngine",
    "CampaignRunResult",
    "CampaignSpec",
    "FailureKeeper",
    "MetricsStage",
    "OutcomeCounter",
    "PredicateCounter",
    "Shard",
    "SignatureDedup",
    "Stage",
    "read_spill",
    "run_spec",
]
