"""Experiment library: declarative configs for the six canned experiments,
world construction, scenario execution, and the scenario file format.

Configs are fully explicit: builders materialize candidate sets and peer
roles up front, so a config saved to disk reloads bit-identically and a
(config, seed) pair always replays the same run.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import lru_cache
from itertools import groupby
from typing import (
    Any, Dict, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints,
)

from . import __version__
from .behaviors import BehaviorKind, PeerBehavior
from .metrics import MetricsReport, PeerSummary
from .sim_engine import DETECTION_THRESHOLD, TrustMemo, World, run_round, score_candidates
from .trust_core import CFModel, ChunkQuality, DTModel, TrustParams


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n_peers: int
    rounds: int
    seed: int
    behavior_mix: Tuple[Tuple[PeerBehavior, int], ...]
    params: TrustParams
    param_overrides: Tuple[Tuple[int, TrustParams], ...] = ()
    loss_rate_range: Optional[Tuple[float, float]] = None
    observed_pairs: Tuple[Tuple[int, int], ...] = ()
    requesters: Tuple[int, ...] = ()
    candidate_map: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    request_budgets: Tuple[Tuple[int, int], ...] = ()  # non-default (peer, budget)
    warmup_rounds: int = 0       # rounds with the threshold policy disabled
    warmup_budget: int = 0       # minimum per-round deliveries during warmup
    detection_threshold: float = DETECTION_THRESHOLD  # trust below this flags a peer
    measure_from: Optional[int] = None           # None: warmup_rounds
    ads_per_round: Optional[int] = None          # None: every candidate advertises

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        # the name becomes the stem of each output file
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"name must be a file-name stem, got {self.name!r}")
        if self.n_peers < 1:
            raise ValueError("n_peers must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        total = sum(count for _, count in self.behavior_mix)
        if total != self.n_peers:
            raise ValueError(
                f"behavior mix counts sum to {total}, expected n_peers={self.n_peers}"
            )
        if any(count < 0 for _, count in self.behavior_mix):
            raise ValueError("behavior mix counts must be non-negative")
        ids = range(self.n_peers)
        for observer, subject in self.observed_pairs:
            if observer not in ids or subject not in ids or observer == subject:
                raise ValueError(f"invalid observed pair ({observer}, {subject})")
        for pid in self.requesters:
            if pid not in ids:
                raise ValueError(f"invalid requester id {pid}")
        # run_round walks the requesters only: any other entry would be ignored
        for name in ("candidate_map", "request_budgets"):
            strays = sorted({pid for pid, _ in getattr(self, name)} - set(self.requesters))
            if strays:
                raise ValueError(f"{name} has entries for non-requesters {strays}")
        for pid, cands in self.candidate_map:
            for c in cands:
                if c not in ids or c == pid:
                    raise ValueError(f"invalid candidate {c} for peer {pid}")
        for pid, budget in self.request_budgets:
            if budget < 1:
                raise ValueError(f"invalid request budget ({pid}, {budget})")
        for pid, _ in self.param_overrides:
            if pid not in ids:
                raise ValueError(f"param override references unknown peer {pid}")
        if self.loss_rate_range is not None:
            lo, hi = self.loss_rate_range
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError("loss_rate_range must satisfy 0 <= lo <= hi <= 1")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError("warmup_rounds must lie in [0, rounds)")
        if self.measure_from is not None and not 0 <= self.measure_from < self.rounds:
            raise ValueError("measure_from must lie in [0, rounds)")
        if self.ads_per_round is not None and self.ads_per_round < 1:
            raise ValueError("ads_per_round must be >= 1 when set")
        if not 0.0 <= self.detection_threshold <= 1.0:
            raise ValueError("detection_threshold must lie in [0, 1]")
        # a repeated entry would be double-counted or silently overwritten
        keyed = {"observed_pairs": self.observed_pairs, "requesters": self.requesters}
        for name in ("candidate_map", "request_budgets", "param_overrides"):
            keyed[name] = [pid for pid, _ in getattr(self, name)]
        for pid, cands in self.candidate_map:
            keyed[f"candidate_map[{pid}]"] = cands
        for name, keys in keyed.items():
            if len(set(keys)) < len(keys):
                repeated = sorted(k for k, n in Counter(keys).items() if n > 1)
                raise ValueError(f"{name} repeats {repeated}")
        groups = {b.group for b, n in self.behavior_mix if b.group and n > 0}
        seen: set = set()
        for group in groups:
            members = set(group)
            if members & seen:
                raise ValueError("a peer may appear in at most one collusion group")
            seen |= members


# --- serialization -----------------------------------------------------------

@lru_cache(maxsize=None)
def _field_types(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """(name, resolved annotation) of each field of a config dataclass."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


_SCALARS = frozenset({type(None), bool, int, float, str})


def _encode(value: Any) -> Any:
    """JSON-ready form of a config value: enums by value, tuples as lists,
    dataclasses as objects keyed by field name. Scalars are tested first,
    and tuple items inline, because configs hold thousands of peer ids."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    if cls is tuple:
        return [v if type(v) in _SCALARS else _encode(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return {name: _encode(getattr(value, name)) for name, _ in _field_types(cls)}


def _decode(tp: Any, value: Any, where: str) -> Any:
    """Rebuild a value of annotation `tp` from its JSON form, or raise
    ValueError naming the offending field."""
    if tp is int or tp is float or tp is str:
        # JSON numbers may fill float fields; bool is never an int
        if type(value) is tp or (tp is float and type(value) is int):
            return value
        raise ValueError(f"{where}: expected {tp.__name__}, got {value!r}")
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (inner,) = [a for a in get_args(tp) if a is not type(None)]
        return _decode(inner, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        args = get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise ValueError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(
            _decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise ValueError(f"{where}: unknown {tp.__name__} {value!r}") from None
    # a config dataclass
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    types = _field_types(tp)
    names = {name for name, _ in types}
    unknown = set(value) - names
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")
    missing = names - set(value)
    if missing:
        raise ValueError(f"missing {where} fields: {sorted(missing)}")
    return tp(**{name: _decode(t, value[name], f"{where}.{name}") for name, t in types})


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return _encode(cfg)


def config_from_dict(d: dict) -> ScenarioConfig:
    return _decode(ScenarioConfig, d, "config")


def dump_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def save_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_digest(cfg: ScenarioConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()


# --- experiment builders -----------------------------------------------------
#
# Each builder's keyword parameters are its overrides: the one place that
# declares an override's name, default and type.

def _sample_candidates(
    rng: random.Random, pid: int, pool: Sequence[int], count: int
) -> Tuple[int, ...]:
    eligible = [p for p in pool if p != pid]
    if count >= len(eligible):
        return tuple(eligible)
    return tuple(sorted(rng.sample(eligible, count)))


def build_e1(*, seed: int = 1, rounds: int = 50) -> ScenarioConfig:
    """Constant vs dynamic confidence weighting under bad-mouthing.

    Two observers watch one spotless uploader whose reputation is slandered
    by 8 of 10 recommenders. Peer 0 uses the dynamic weight, peer 1 a fixed
    0.5. Transactions are forced (thresholds zeroed) so trust trajectories
    run for the full horizon.
    """
    n_recommenders = 10
    n_liars = 8
    subject = 2
    recommenders = tuple(range(3, 3 + n_recommenders))
    params = TrustParams(
        dt_model=DTModel.DTMA,
        theta_p=0.0,
        theta_g=0.0,
        k_providers=1 + n_recommenders,
        k_recommenders=n_recommenders,
    )
    ccfs = replace(params, cf_model=CFModel.CONSTANT, cf_constant=0.5)
    mix = (
        (PeerBehavior.honest(), 3),
        (PeerBehavior.badmouther((subject,), slander_prob=1.0), n_liars),
        (PeerBehavior.honest(), n_recommenders - n_liars),
    )
    observer_candidates = (subject,) + recommenders
    cand_map = [(0, observer_candidates), (1, observer_candidates)]
    cand_map += [(k, (subject,)) for k in recommenders]
    return ScenarioConfig(
        name="e1",
        n_peers=3 + n_recommenders,
        rounds=rounds,
        seed=seed,
        behavior_mix=mix,
        params=params,
        param_overrides=((1, ccfs),),
        observed_pairs=((0, subject), (1, subject)),
        requesters=(0, 1) + recommenders,
        candidate_map=tuple(cand_map),
        request_budgets=((0, 1 + n_recommenders), (1, 1 + n_recommenders)),
        measure_from=0,
    )


def build_e2(*, seed: int = 1, rounds: int = 50) -> ScenarioConfig:
    """Direct trust models against on-off uploaders at 50/20/10 percent.

    One victim scores with the exponential-penalty model, a second with the
    plain clean/total ratio; both receive one chunk per attacker per round.
    """
    attackers = (2, 3, 4)
    params = TrustParams(theta_p=0.0, theta_g=0.0, k_providers=3)
    dtma = replace(params, dt_model=DTModel.DTMA)
    mix = (
        (PeerBehavior.honest(), 2),
        (PeerBehavior.onoff(0.5), 1),
        (PeerBehavior.onoff(0.2), 1),
        (PeerBehavior.onoff(0.1), 1),
    )
    observed = tuple((v, a) for v in (0, 1) for a in attackers)
    return ScenarioConfig(
        name="e2",
        n_peers=5,
        rounds=rounds,
        seed=seed,
        behavior_mix=mix,
        params=params,
        param_overrides=((1, dtma),),
        observed_pairs=observed,
        requesters=(0, 1),
        candidate_map=((0, attackers), (1, attackers)),
        request_budgets=((0, 3), (1, 3)),
        measure_from=0,
    )


_POP_CANDIDATES = 10

# PeerTrust baseline (Xiong & Liu, IEEE TKDE 2004): ratio-based direct
# trust, fixed half/half weight between direct and indirect evidence, no
# decay, one threshold at 0.5.
_PEERTRUST_BASELINE = TrustParams(
    cf_model=CFModel.CONSTANT,
    cf_constant=0.5,
    dt_model=DTModel.DTMA,
    theta_p=0.5,
    theta_g=0.5,
    k_providers=_POP_CANDIDATES,
    k_recommenders=5,
)


def _admission_params(policy: str, params: TrustParams, single_theta: float) -> TrustParams:
    """Trust parameters for a builder's `policy` override: "proposed" keeps
    the double threshold, "single" collapses it to one threshold at
    single_theta, "peertrust" swaps in the PeerTrust baseline pipeline."""
    if policy == "proposed":
        return params
    if policy == "single":
        return replace(params, theta_p=single_theta, theta_g=single_theta)
    if policy == "peertrust":
        return _PEERTRUST_BASELINE
    raise ValueError(f"unknown policy {policy!r}")


def _population_config(
    name: str,
    seed: int,
    rounds: int,
    behaviors: Sequence[PeerBehavior],
    params: TrustParams,
    loss_range: Tuple[float, float],
    measure_from: Optional[int] = None,
) -> ScenarioConfig:
    """A lossy population with one behaviour per peer id, in id order. The
    first 150 honest peers request, each from 10 sampled candidates; the
    first 24 rounds are warmup with a budget of 3 deliveries."""
    if rounds < 25:
        raise ValueError(f"rounds must be >= 25 (24 warmup rounds + 1), got {rounds}")
    requesters = tuple(
        [pid for pid, b in enumerate(behaviors) if b.kind is BehaviorKind.HONEST][:150]
    )
    rng = random.Random(f"{seed}:topology:{name}")
    pool = range(len(behaviors))
    cand_map = tuple(
        (rid, _sample_candidates(rng, rid, pool, _POP_CANDIDATES)) for rid in requesters
    )
    return ScenarioConfig(
        name=name,
        n_peers=len(behaviors),
        rounds=rounds,
        seed=seed,
        behavior_mix=tuple((b, sum(1 for _ in run)) for b, run in groupby(behaviors)),
        params=params,
        loss_rate_range=loss_range,
        requesters=requesters,
        candidate_map=cand_map,
        warmup_rounds=24,
        warmup_budget=3,
        measure_from=measure_from,
    )


def build_e3(
    *, seed: int = 1, rounds: int = 44, loss_rate: float = 0.02, policy: str = "proposed"
) -> ScenarioConfig:
    """Double thresholds vs a single 0.8 threshold under uniform loss.

    500 peers, 20% malicious (half persistent, half 20% on-off). The loss
    rate applies identically to every honest upload; sweep it to compare
    how each policy treats good peers with degraded records.
    """
    # Loss-sweep tuning: slow forgetting keeps honest evidence deep; the
    # forgiving rate is set so light loss leaves honest trust above the
    # unconditional-accept threshold while sustained loss pulls it through
    # the gray zone, where only probabilistic probing keeps serving. Other
    # experiments pick their own decay rates.
    params = TrustParams(
        forgetting=0.01,
        forgiving=0.066,
        k_providers=_POP_CANDIDATES,
        k_recommenders=5,
    )
    behaviors = (
        [PeerBehavior.honest()] * 400
        + [PeerBehavior.persistent()] * 50
        + [PeerBehavior.onoff(0.2)] * 50
    )
    return _population_config(
        "e3", seed, rounds, behaviors,
        _admission_params(policy, params, 0.8),
        loss_range=(loss_rate, loss_rate),
    )


def build_e4(
    *, seed: int = 1, rounds: int = 200, mode: str = "rotating", group_size: int = 10
) -> ScenarioConfig:
    """Collaborative attack on one victim: rotating or static polluter duty.

    The victim receives one chunk from every group member each round;
    members exchange chunks among themselves so each has first-hand history
    to lie about. Transactions are forced so trajectories run to the end.
    """
    if mode not in ("rotating", "static"):
        raise ValueError(f"unknown collaboration mode {mode!r}")
    min_size = 2 if mode == "static" else 1
    if group_size < min_size:
        raise ValueError(f"group_size must be >= {min_size} in {mode} mode, got {group_size}")
    members = tuple(range(1, group_size + 1))
    if mode == "rotating":
        behavior = PeerBehavior.collab_rotating(members, period=1)
        observed = ((0, members[0]),)
    else:
        behavior = PeerBehavior.collab_static(members, designated=members[0])
        observed = ((0, members[0]), (0, members[1]))
    params = TrustParams(
        theta_p=0.0,
        theta_g=0.0,
        k_providers=group_size,
        k_recommenders=group_size,
    )
    member_k1 = replace(params, k_providers=1)
    cand_map = [(0, members)]
    cand_map += [(m, tuple(x for x in members if x != m)) for m in members]
    return ScenarioConfig(
        name="e4",
        n_peers=1 + group_size,
        rounds=rounds,
        seed=seed,
        behavior_mix=((PeerBehavior.honest(), 1), (behavior, group_size)),
        params=params,
        param_overrides=tuple((m, member_k1) for m in members),
        observed_pairs=observed,
        requesters=(0,) + members,
        candidate_map=tuple(cand_map),
        request_budgets=((0, group_size),),
        measure_from=0,
    )


def build_e5(*, seed: int = 1, rounds: int = 50) -> ScenarioConfig:
    """Do high-trust peers attract more data requests?

    100 providers with spread trust profiles (lossy honest peers plus both
    attacker types) serve 30 active requesters. A newcomer (the last peer)
    downloads only from the requesters, so its view of every provider is
    built purely from recommendations; final trust from that viewpoint is
    compared against how many requests each provider served. Per-round
    advertisement subsets spread demand across providers in proportion to
    their local trust ranking.
    """
    n_honest_prov, n_persistent, n_onoff, n_req = 60, 20, 20, 30
    providers = tuple(range(100))
    reqs = tuple(range(100, 100 + n_req))
    newcomer = 100 + n_req
    params = TrustParams(
        forgetting=0.0,
        forgiving=0.15,
        k_providers=12,
        k_recommenders=10,
    )
    newcomer_params = replace(params, k_providers=n_req)
    mix = (
        (PeerBehavior.honest(), n_honest_prov),
        (PeerBehavior.persistent(), n_persistent),
        (PeerBehavior.onoff(0.2), n_onoff),
        (PeerBehavior.honest(), n_req),
        (PeerBehavior.honest(), 1),
    )
    rng = random.Random(f"{seed}:topology:e5")
    cand_map = [
        (rid, _sample_candidates(rng, rid, providers, 20)) for rid in reqs
    ]
    cand_map.append((newcomer, reqs))
    return ScenarioConfig(
        name="e5",
        n_peers=newcomer + 1,
        rounds=rounds,
        seed=seed,
        behavior_mix=mix,
        params=params,
        param_overrides=((newcomer, newcomer_params),),
        loss_rate_range=(0.0, 0.08),
        observed_pairs=tuple((newcomer, p) for p in providers),
        requesters=reqs + (newcomer,),
        candidate_map=tuple(cand_map),
        request_budgets=tuple((rid, 3) for rid in reqs) + ((newcomer, n_req),),
        warmup_rounds=10,
        warmup_budget=3,
        ads_per_round=6,
    )


def build_e6(
    *,
    seed: int = 1,
    rounds: int = 56,
    malicious_fraction: float = 0.2,
    policy: str = "proposed",
) -> ScenarioConfig:
    """Proposed pipeline vs the fixed-weight single-threshold baseline while
    the malicious fraction sweeps from 0 to 50 percent.

    Per-peer loss is drawn uniformly from [0%, 2%]; half the malicious peers
    pollute persistently, half run a 20% on-off pattern. Malicious ids are
    scattered across the population so deterministic tie-breaks carry no
    information about who is clean. The whole run is measured: the decisive
    difference is how long each pipeline keeps feeding from an on-off
    uploader it has already been burned by.
    """
    if not 0.0 <= malicious_fraction <= 0.9:
        raise ValueError("malicious_fraction must lie in [0, 0.9]")
    n_peers = 500
    n_malicious = round(n_peers * malicious_fraction)
    layout_rng = random.Random(f"{seed}:layout:e6")
    malicious = sorted(layout_rng.sample(range(n_peers), n_malicious))
    persistent = set(layout_rng.sample(malicious, n_malicious // 2))
    onoff = set(malicious) - persistent
    behaviors = [
        PeerBehavior.persistent() if pid in persistent
        else PeerBehavior.onoff(0.2) if pid in onoff
        else PeerBehavior.honest()
        for pid in range(n_peers)
    ]
    params = TrustParams(
        forgetting=0.0,
        forgiving=0.03,
        k_providers=_POP_CANDIDATES,
        k_recommenders=5,
    )
    return _population_config(
        "e6", seed, rounds, behaviors,
        _admission_params(policy, params, 0.5),
        loss_range=(0.0, 0.02),
        measure_from=0,
    )


_BUILDERS = {
    "e1": build_e1,
    "e2": build_e2,
    "e3": build_e3,
    "e4": build_e4,
    "e5": build_e5,
    "e6": build_e6,
}
EXPERIMENT_IDS = tuple(_BUILDERS)

# experiment id -> {override name: type}, read from the builder signatures
EXPERIMENT_OVERRIDES: Dict[str, Dict[str, type]] = {
    exp: {name: tp for name, tp in get_type_hints(builder).items() if name != "return"}
    for exp, builder in _BUILDERS.items()
}


def build_experiment(exp_id: str, **overrides) -> ScenarioConfig:
    """Deterministic config for one of the canned experiments
    e1..e6. Overrides are the builder's keyword parameters (listed per
    experiment in EXPERIMENT_OVERRIDES); any other key raises ValueError,
    and an unknown experiment id raises KeyError."""
    key = exp_id.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown experiment id {exp_id!r}")
    unknown = set(overrides) - set(EXPERIMENT_OVERRIDES[key])
    if unknown:
        raise ValueError(f"unsupported overrides: {sorted(unknown)}")
    return _BUILDERS[key](**overrides)


# --- execution ---------------------------------------------------------------

def build_world(cfg: ScenarioConfig) -> World:
    """Materialize a World from a config."""
    world = World(
        seed=cfg.seed,
        detection_threshold=cfg.detection_threshold,
        warmup_rounds=cfg.warmup_rounds,
        warmup_budget=cfg.warmup_budget,
        ads_per_round=cfg.ads_per_round,
    )
    behaviors: List[PeerBehavior] = []
    for behavior, count in cfg.behavior_mix:
        behaviors.extend([behavior] * count)
    loss_rng = random.Random(f"{cfg.seed}:loss")
    if cfg.loss_rate_range is not None:
        lo, hi = cfg.loss_rate_range
        lossy = (BehaviorKind.HONEST, BehaviorKind.BADMOUTH)
        behaviors = [
            replace(b, loss_rate=loss_rng.uniform(lo, hi)) if b.kind in lossy else b
            for b in behaviors
        ]
    overrides = dict(cfg.param_overrides)
    budgets = dict(cfg.request_budgets)
    cand_map = dict(cfg.candidate_map)
    requesters = set(cfg.requesters)
    for pid, behavior in enumerate(behaviors):
        world.add_peer(
            pid,
            behavior,
            overrides.get(pid, cfg.params),
            is_requester=pid in requesters,
            budget=budgets.get(pid, 1),
            candidates=cand_map.get(pid, ()),
        )
    return world


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Run the configured world for cfg.rounds and collect the report."""
    world = build_world(cfg)
    trajectories: Dict[Tuple[int, int], List] = {pair: [] for pair in cfg.observed_pairs}
    # each observer's subjects, scored in one batch per round
    watched: Dict[int, List[int]] = {}
    for observer, subject in cfg.observed_pairs:
        watched.setdefault(observer, []).append(subject)
    memo = TrustMemo()  # one for the run: see its docstring for when entries expire
    for _ in range(cfg.rounds):
        run_round(world, memo)
        for observer, subjects in watched.items():
            for subject, comp in zip(subjects, score_candidates(world, observer, subjects, memo)):
                trajectories[(observer, subject)].append((world.round, *comp))
    measure_from = cfg.measure_from if cfg.measure_from is not None else cfg.warmup_rounds
    measured_rounds = cfg.rounds - measure_from
    clean_measured: Dict[int, int] = {}
    polluted_total: Dict[int, int] = {}
    served: Dict[int, int] = {}
    for ev in world.event_log:
        served[ev.provider] = served.get(ev.provider, 0) + 1
        if ev.quality is ChunkQuality.POLLUTED:
            polluted_total[ev.requester] = polluted_total.get(ev.requester, 0) + 1
        elif ev.round_no > measure_from:
            clean_measured[ev.requester] = clean_measured.get(ev.requester, 0) + 1
    summary = [
        PeerSummary(
            peer=pid,
            behavior=world.peers[pid].behavior.label,
            goodput=clean_measured.get(pid, 0) / measured_rounds,
            polluted_accepted=polluted_total.get(pid, 0),
            detection_round=world.detections.get(pid),
            requests_received=served.get(pid, 0),
        )
        for pid in sorted(world.peers)
    ]
    param_sets = [cfg.params] + [p for _, p in cfg.param_overrides]
    run_meta = {
        "name": cfg.name,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "measure_from": measure_from,
        "config_digest": config_digest(cfg),
        "engine_version": __version__,
        # distinct messages over every parameter set, in order of appearance
        "diagnostics": list(dict.fromkeys(msg for p in param_sets for msg in p.diagnostics())),
    }
    return MetricsReport(trajectories=trajectories, summary=summary, run_meta=run_meta)


def mean_requester_goodput(cfg: ScenarioConfig, report: MetricsReport) -> float:
    """Average goodput over the served population: the honest requesters."""
    rows = {s.peer: s for s in report.summary}
    values = [rows[pid].goodput for pid in cfg.requesters if rows[pid].behavior == "honest"]
    return sum(values) / len(values) if values else 0.0
