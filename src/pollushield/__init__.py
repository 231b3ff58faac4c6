"""Trust-managed P2P streaming simulator.

A deterministic round-based simulator of a mesh streaming overlay where
every peer runs its own trust manager, plus the adversary strategies and
canned experiments used to evaluate the pipeline against pollution attacks.
"""

__version__ = "0.7.0"

from .behaviors import (
    BehaviorKind,
    PeerBehavior,
    recommendation_value,
    upload_quality,
)
from .metrics import MetricsReport, PeerSummary, emit_csv
from .scenarios import (
    EXPERIMENT_IDS,
    ScenarioConfig,
    build_experiment,
    build_world,
    config_digest,
    dump_config,
    load_config,
    mean_requester_goodput,
    run_grid,
    run_scenario,
    save_config,
)
from .sim_engine import (
    PeerRecord,
    TransactionOutcome,
    TrustComponents,
    World,
    run_round,
    score_candidates,
    select_providers,
)
from .trust_core import (
    CFModel,
    ChunkQuality,
    DTModel,
    OnOffMargin,
    TrustParams,
    TrustState,
    combine_trust,
    confidence_factor,
    direct_trust,
    onoff_resistance_margin,
    record_delivery,
    replace,
    transaction_probability,
)

__all__ = [
    "__version__",
    "BehaviorKind",
    "PeerBehavior",
    "recommendation_value",
    "upload_quality",
    "MetricsReport",
    "PeerSummary",
    "emit_csv",
    "EXPERIMENT_IDS",
    "ScenarioConfig",
    "build_experiment",
    "build_world",
    "config_digest",
    "dump_config",
    "load_config",
    "mean_requester_goodput",
    "run_grid",
    "run_scenario",
    "save_config",
    "PeerRecord",
    "TransactionOutcome",
    "TrustComponents",
    "World",
    "run_round",
    "score_candidates",
    "select_providers",
    "CFModel",
    "ChunkQuality",
    "DTModel",
    "OnOffMargin",
    "TrustParams",
    "TrustState",
    "combine_trust",
    "confidence_factor",
    "direct_trust",
    "onoff_resistance_margin",
    "record_delivery",
    "replace",
    "transaction_probability",
]
