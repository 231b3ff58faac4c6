"""Experiment library: declarative configs for the six canned experiments,
world construction, scenario execution, and the scenario file format.

Configs are fully explicit: builders materialize candidate sets and peer
roles up front, so a config saved to disk reloads bit-identically and a
(config, seed) pair always replays the same run.
"""

import json
import random
from collections import Counter
from enum import Enum
from itertools import groupby, product
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

try:  # hashlib is pretty heavy to load (OpenSSL), as CPython's `random` notes for sha512
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .behaviors import LOSSY_KINDS, BehaviorKind, PeerBehavior
from .metrics import MetricsReport, PeerSummary
from .sim_engine import World, run_round, score_candidates
from .trust_core import (CFModel, ChunkQuality, DTModel, FieldTypeError, Record, TrustParams,
                         canonical, replace)


class ScenarioConfig(Record):
    name: str
    rounds: int
    seed: int
    behavior_mix: Tuple[Tuple[PeerBehavior, int], ...]
    params: TrustParams
    param_overrides: Tuple[Tuple[int, TrustParams], ...] = ()
    # each LOSSY_KINDS peer's loss rate, drawn uniformly from [lo, hi]
    loss_rate_range: Tuple[float, float] = (0.0, 0.0)
    observed_pairs: Tuple[Tuple[int, int], ...] = ()
    # (requester, candidates, chunks it takes per round): the peers with an
    # entry are the requesters
    candidate_map: Tuple[Tuple[int, Tuple[int, ...], int], ...] = ()
    warmup_rounds: int = 0       # rounds with the threshold policy disabled
    measure_from: int = 0                        # rounds before goodput is counted
    ads_per_round: Optional[int] = None          # None: every candidate advertises

    @property
    def n_peers(self) -> int:
        """The behaviour mix's total; build_world numbers the peers 0.. in mix order."""
        return sum(count for _, count in self.behavior_mix)

    def validate(self) -> None:
        # the name becomes the stem of each output file
        if not self.name or any(c in self.name for c in "/\\\0"):
            raise ValueError(f"name must be a file-name stem, got {self.name!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if any(count < 0 for _, count in self.behavior_mix):
            raise ValueError("behavior mix counts must be non-negative ints")
        ids = range(self.n_peers)
        if not ids:
            raise ValueError("behavior mix counts must sum to a positive number of peers")
        for observer, subject in self.observed_pairs:
            if observer not in ids or subject not in ids or observer == subject:
                raise ValueError(f"invalid observed pair ({observer}, {subject})")
        for pid, cands, budget in self.candidate_map:
            if pid not in ids:
                raise ValueError(f"invalid requester id {pid}")
            if not cands:
                raise ValueError(f"requester {pid} has no candidates")
            for c in cands:
                if c not in ids or c == pid:
                    raise ValueError(f"invalid candidate {c} for peer {pid}")
            if budget < 1:
                raise ValueError(f"requester {pid} has request budget {budget}, expected >= 1")
        for pid, _ in self.param_overrides:
            if pid not in ids:
                raise ValueError(f"param override references unknown peer {pid}")
        lo, hi = self.loss_rate_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("loss_rate_range must satisfy 0 <= lo <= hi <= 1")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError("warmup_rounds must lie in [0, rounds)")
        if not 0 <= self.measure_from < self.rounds:
            raise ValueError("measure_from must lie in [0, rounds)")
        if self.ads_per_round is not None and self.ads_per_round < 1:
            raise ValueError("ads_per_round must be >= 1 when set")
        # a repeated entry would be double-counted or silently overwritten
        keyed = {"observed_pairs": self.observed_pairs}
        for name in ("candidate_map", "param_overrides"):
            keyed[name] = [entry[0] for entry in getattr(self, name)]
        for pid, cands, _ in self.candidate_map:
            keyed[f"candidate_map[{pid}]"] = cands
        for name, keys in keyed.items():
            if len(set(keys)) < len(keys):
                repeated = sorted(k for k, n in Counter(keys).items() if n > 1)
                raise ValueError(f"{name} repeats {repeated}")
        # build_world numbers the peers in mix order; a group's members are
        # the peers that carry it, so no peer is in two groups
        carriers: Dict[Tuple[int, ...], List[int]] = {}
        end = 0
        for b, count in self.behavior_mix:
            start, end = end, end + count
            if not count:
                continue
            for name in ("target_set", "group"):
                strays = [pid for pid in getattr(b, name) if pid not in ids]
                if strays:
                    raise ValueError(f"behavior_mix {name} names non-peers {strays}")
            if b.group:
                carriers.setdefault(b.group, []).extend(range(start, end))
        for group, pids in carriers.items():
            if list(group) != pids:
                raise ValueError(
                    f"behavior_mix collusion group {list(group)} is carried by peers {pids}")


# --- serialization -----------------------------------------------------------

_SCALARS = frozenset({type(None), bool, int, float, str})


def _encode(value: Any) -> Any:
    """JSON-ready form of a config value: enums by value, tuples as lists,
    records as objects keyed by field name, in `_fields` order. Scalars are
    tested first, and tuple items inline, because configs hold thousands of
    peer ids."""
    cls = type(value)
    if cls in _SCALARS:
        return value
    if cls is tuple:
        return [v if type(v) in _SCALARS else _encode(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return {name: _encode(getattr(value, name)) for name in cls._fields}


def _decode(tp: Any, value: Any, where: str) -> Any:
    """Rebuild a value of annotation `tp` from its JSON form: lists become
    tuples, enum values members, objects records (ValueError naming `where`
    for a non-object or unknown or missing keys); each record checks the rest."""
    if isinstance(tp, type):
        if issubclass(tp, Enum):
            return next((member for member in tp if member.value == value), value)
        if not issubclass(tp, Record):
            return value
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected an object, got {value!r}")
        for problem, keys in (("unknown", set(value) - set(tp._fields)),
                              ("missing", set(tp._fields) - set(value))):
            if keys:
                raise ValueError(f"{problem} {where} fields: {sorted(keys)}")
        fields = {name: _decode(t, value[name], f"{where}.{name}")
                  for name, t in tp.__annotations__.items()}
        try:
            return tp(**fields)
        except FieldTypeError as exc:
            raise FieldTypeError(f"{where}.{exc}") from None
    if type(value) is not list:
        return value
    args = tp.__args__
    if tp.__origin__ is not tuple:  # Optional[X]
        return _decode(args[0], value, where)
    if args[-1] is Ellipsis:
        args = args[:1] * len(value)
    if len(args) != len(value):  # refused by its arity when the record is built
        return tuple(value)
    return tuple(_decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value)))


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
    return sha256(dump_config(cfg).encode("utf-8")).hexdigest()


# --- experiment builders -----------------------------------------------------
#
# Each builder's keyword parameters are its overrides: the one place that
# declares an override's name, default and type.

def _sample_candidates(
    rng: random.Random, pid: int, pool: Sequence[int], count: int
) -> Tuple[int, ...]:
    """`count` of the pool's ids other than `pid`, sorted; all of them, in
    pool order, if there are no more. A pool without `pid` is sampled as it
    is. Otherwise the draw is over positions in the pool without `pid`,
    mapped back past `pid`'s slot. Either way `rng` makes the same draws and
    picks the same ids as `rng.sample` on a copy of the pool without `pid`.
    No such copy is made: from a pool too large for `random.sample` to copy,
    a call reads just `count` ids."""
    inside = pid in pool
    n = len(pool) - inside
    if count >= n:
        return tuple(p for p in pool if p != pid)
    if not inside:
        return tuple(sorted(rng.sample(pool, count)))
    skip = pool.index(pid)
    return tuple(sorted([pool[j + (j >= skip)] for j in rng.sample(range(n), count)]))


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
        (PeerBehavior.badmouther((subject,)), n_liars),
        (PeerBehavior.honest(), n_recommenders - n_liars),
    )
    observer_candidates = (subject,) + recommenders
    cand_map = [(o, observer_candidates, 1 + n_recommenders) for o in (0, 1)]
    cand_map += [(k, (subject,), 1) for k in recommenders]
    return ScenarioConfig(
        name="e1",
        rounds=rounds,
        seed=seed,
        behavior_mix=mix,
        params=params,
        param_overrides=((1, ccfs),),
        observed_pairs=((0, subject), (1, subject)),
        candidate_map=tuple(cand_map),
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
        (PeerBehavior.onoff(2), 1),
        (PeerBehavior.onoff(5), 1),
        (PeerBehavior.onoff(10), 1),
    )
    observed = tuple((v, a) for v in (0, 1) for a in attackers)
    return ScenarioConfig(
        name="e2",
        rounds=rounds,
        seed=seed,
        behavior_mix=mix,
        params=params,
        param_overrides=((1, dtma),),
        observed_pairs=observed,
        candidate_map=((0, attackers, 3), (1, attackers, 3)),
    )


_POP_CANDIDATES = 10
_POP_WARMUP = 24  # rounds of the population experiments' warmup

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


def _check_past_warmup(rounds: int, warmup: int) -> None:
    if rounds <= warmup:
        raise ValueError(f"rounds must be >= {warmup + 1} ({warmup} warmup rounds + 1), "
                         f"got {rounds}")


def _population_config(
    name: str,
    seed: int,
    rounds: int,
    behaviors: Sequence[PeerBehavior],
    params: TrustParams,
    loss_range: Tuple[float, float],
    measure_from: int = 0,
) -> ScenarioConfig:
    """A lossy population with one behaviour per peer id, in id order. The
    first 150 honest peers request, each from 10 sampled candidates; the
    first _POP_WARMUP rounds are warmup."""
    _check_past_warmup(rounds, _POP_WARMUP)
    requesters = tuple(
        [pid for pid, b in enumerate(behaviors) if b.kind is BehaviorKind.HONEST][:150]
    )
    rng = random.Random(f"{seed}:topology:{name}")
    pool = range(len(behaviors))
    cand_map = tuple(
        (rid, _sample_candidates(rng, rid, pool, _POP_CANDIDATES), 1) for rid in requesters
    )
    return ScenarioConfig(
        name=name,
        rounds=rounds,
        seed=seed,
        behavior_mix=tuple((b, sum(1 for _ in run)) for b, run in groupby(behaviors)),
        params=params,
        loss_rate_range=loss_range,
        candidate_map=cand_map,
        warmup_rounds=_POP_WARMUP,
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
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError("loss_rate must lie in [0, 1]")
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
        + [PeerBehavior.onoff(5)] * 50
    )
    return _population_config(
        "e3", seed, rounds, behaviors,
        _admission_params(policy, params, 0.8),
        loss_range=(loss_rate, loss_rate),
        measure_from=_POP_WARMUP,
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
        behavior = PeerBehavior.collab_rotating(members)
        observed = ((0, members[0]),)
    else:
        behavior = PeerBehavior.collab_static(members)
        observed = ((0, members[0]), (0, members[1]))
    params = TrustParams(
        theta_p=0.0,
        theta_g=0.0,
        k_providers=group_size,
        k_recommenders=group_size,
    )
    member_k1 = replace(params, k_providers=1)
    cand_map = [(0, members, group_size)]
    if group_size > 1:  # a lone member has no one to exchange with, so it does not request
        cand_map += [(m, tuple(x for x in members if x != m), 1) for m in members]
    return ScenarioConfig(
        name="e4",
        rounds=rounds,
        seed=seed,
        behavior_mix=((PeerBehavior.honest(), 1), (behavior, group_size)),
        params=params,
        param_overrides=tuple((m, member_k1) for m in members),
        observed_pairs=observed,
        candidate_map=tuple(cand_map),
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
    n_honest_prov, n_persistent, n_onoff, n_req, warmup = 60, 20, 20, 30, 10
    _check_past_warmup(rounds, warmup)
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
        (PeerBehavior.onoff(5), n_onoff),
        (PeerBehavior.honest(), n_req),
        (PeerBehavior.honest(), 1),
    )
    rng = random.Random(f"{seed}:topology:e5")
    cand_map = [
        (rid, _sample_candidates(rng, rid, providers, 20), 3) for rid in reqs
    ]
    cand_map.append((newcomer, reqs, n_req))
    return ScenarioConfig(
        name="e5",
        rounds=rounds,
        seed=seed,
        behavior_mix=mix,
        params=params,
        param_overrides=((newcomer, newcomer_params),),
        loss_rate_range=(0.0, 0.08),
        observed_pairs=tuple((newcomer, p) for p in providers),
        candidate_map=tuple(cand_map),
        warmup_rounds=warmup,
        measure_from=warmup,
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
    # one object per role, shared by its peers, as in build_e3
    as_persistent, as_onoff, as_honest = (
        PeerBehavior.persistent(), PeerBehavior.onoff(5), PeerBehavior.honest())
    behaviors = [
        as_persistent if pid in persistent
        else as_onoff if pid in onoff
        else as_honest
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

# experiment id -> {override name: type}, the types of the builders' keyword
# defaults (a test checks them against the annotations)
EXPERIMENT_OVERRIDES: Dict[str, Dict[str, type]] = {
    exp: {name: type(default) for name, default in builder.__kwdefaults__.items()}
    for exp, builder in _BUILDERS.items()
}


def build_experiment(exp_id: str, **overrides) -> ScenarioConfig:
    """Deterministic config for one of the canned experiments
    e1..e6. Overrides are the builder's keyword parameters (listed per
    experiment in EXPERIMENT_OVERRIDES), each passed on as `canonical` stores
    it; any other key, or a value not of the key's type, raises ValueError,
    and an unknown experiment id raises KeyError."""
    key = exp_id.lower()
    if key not in _BUILDERS:
        raise KeyError(f"unknown experiment id {exp_id!r}")
    types = EXPERIMENT_OVERRIDES[key]
    unknown = set(overrides) - set(types)
    if unknown:
        raise ValueError(f"unsupported overrides: {sorted(unknown)}")
    return _BUILDERS[key](**{name: canonical(types[name], value, name)
                             for name, value in overrides.items()})


# --- execution ---------------------------------------------------------------

def build_world(cfg: ScenarioConfig) -> World:
    """Materialize a World from a config."""
    world = World(cfg.seed, cfg.warmup_rounds, cfg.ads_per_round)
    behaviors = [behavior for behavior, count in cfg.behavior_mix for _ in range(count)]
    loss_rng = random.Random(f"{cfg.seed}:loss")
    lo, hi = cfg.loss_rate_range
    overrides = dict(cfg.param_overrides)
    requests = {pid: (cands, budget) for pid, cands, budget in cfg.candidate_map}
    for pid, behavior in enumerate(behaviors):
        candidates, budget = requests.get(pid, ((), 1))
        world.add_peer(
            pid,
            behavior,
            overrides.get(pid, cfg.params),
            budget=budget,
            candidates=candidates,
            loss_rate=loss_rng.uniform(lo, hi) if behavior.kind in LOSSY_KINDS else 0.0,
        )
    return world


class Run:
    """One scenario run: `Run(cfg)` builds the world, which also holds the
    values each peer keeps from its trust reads, `advance(n)` plays n rounds
    with their observations, and `report()` collects the report of a run
    advanced through cfg.rounds."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg = cfg
        self.world = build_world(cfg)
        self.trajectories: Dict[Tuple[int, int], List] = {pair: [] for pair in cfg.observed_pairs}
        # each observer's subjects, scored in one batch per round
        self.watched: Dict[int, List[int]] = {}
        for observer, subject in cfg.observed_pairs:
            self.watched.setdefault(observer, []).append(subject)

    def advance(self, rounds: int) -> "Run":
        world, trajectories = self.world, self.trajectories
        for _ in range(rounds):
            run_round(world)
            for observer, subjects in self.watched.items():
                for s, comp in zip(subjects, score_candidates(world, observer, subjects)):
                    trajectories[(observer, s)].append((world.round, *comp))
        return self

    def report(self) -> MetricsReport:
        """Raises ValueError unless the run was advanced through exactly
        cfg.rounds: goodput is averaged over the configured measured span."""
        cfg, world = self.cfg, self.world
        if world.round != cfg.rounds:
            raise ValueError(
                f"report of a run advanced through {world.round} of {cfg.rounds} rounds")
        measure_from = cfg.measure_from
        measured_rounds = cfg.rounds - measure_from
        clean_measured: Dict[int, int] = {}
        polluted_total: Dict[int, int] = {}
        served: Dict[int, int] = {}
        polluted = ChunkQuality.POLLUTED  # bound once: enum lookups are calls before Python 3.12
        for ev in world.event_log:
            served[ev.provider] = served.get(ev.provider, 0) + 1
            if ev.quality is polluted:
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
        return MetricsReport(trajectories=self.trajectories, summary=summary, run_meta=run_meta)


def run_scenario(cfg: ScenarioConfig) -> MetricsReport:
    """Run the configured world for cfg.rounds and collect the report."""
    return Run(cfg).advance(cfg.rounds).report()


def run_grid(
    make: Callable[..., ScenarioConfig], grid: Mapping[str, Sequence[Any]]
) -> Iterator[Tuple[Dict[str, Any], Run]]:
    """(point, run) for each point of `grid` (axis name -> values), in
    itertools.product order, last axis fastest; {} alone for the empty grid.
    The call builds each config with `make(**point)`, so a bad point raises
    ValueError before any run; each run advances through cfg.rounds lazily."""
    points = [dict(zip(grid, values)) for values in product(*grid.values())]
    configs = [make(**point) for point in points]
    return ((point, Run(cfg).advance(cfg.rounds)) for point, cfg in zip(points, configs))


def mean_requester_goodput(cfg: ScenarioConfig, report: MetricsReport) -> float:
    """Average goodput over the served population: the honest requesters."""
    rows = {s.peer: s for s in report.summary}
    values = [rows[pid].goodput for pid, _, _ in cfg.candidate_map
              if rows[pid].behavior == "honest"]
    return sum(values) / len(values) if values else 0.0
