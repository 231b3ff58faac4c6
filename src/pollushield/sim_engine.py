"""Round-based mesh overlay simulator.

Each round every requesting peer asks for one chunk: it ranks the peers
advertising to it by trust, admits the top K through its double-threshold
rule, and records the qualities of the chunks it receives.
Trust lives entirely inside per-peer tables; there is no shared registry.

The world advances single-threaded in peer-id order, so a (config, seed)
pair replays to a byte-identical event log.

Evaluating trust decays the entries it reads in the observer's own table
and writes them back. A `TrustCache` memoises the repeated work without
changing any result: an observer's credibility of each recommender per
batch (one `select_providers` call, or one round's observation loop in
`run_scenario`), and each recommender's honest value of a subject per
round, dropped by `run_round` when that recommender receives a delivery
from that subject. The first query to reach a recommender still decays and
writes back its entry, so the tables end each round exactly as without the
cache. Caches live only inside those calls; the public evaluation functions
make a fresh one when none is passed.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .behaviors import PeerBehavior, recommendation_value, upload_quality
from .trust_core import (
    EMPTY_STATE,
    ChunkQuality,
    TrustParams,
    TrustState,
    apply_decay,
    combine_trust,
    confidence_factor,
    direct_trust,
    indirect_trust,
    record_delivery,
    transaction_probability,
)


class TransactionOutcome(NamedTuple):
    round_no: int
    requester: int
    provider: int
    quality: ChunkQuality
    trust_at_selection: float


class TrustComponents(NamedTuple):
    direct: float
    indirect: float   # cold-start substitute when no recommender qualifies
    alpha: float
    combined: float


class PeerRecord:
    """One peer: identity, strategy, parameters, and its private trust table."""

    __slots__ = (
        "pid",
        "behavior",
        "params",
        "rng",
        "is_requester",
        "budget",
        "candidates",
        "trust_table",
        "delivery_index",
    )

    def __init__(
        self,
        pid: int,
        behavior: PeerBehavior,
        params: TrustParams,
        rng: random.Random,
        is_requester: bool = False,
        budget: int = 1,
        candidates: Sequence[int] = (),
    ) -> None:
        self.pid = pid
        self.behavior = behavior
        self.params = params
        self.rng = rng
        self.is_requester = is_requester
        self.budget = budget
        self.candidates: Tuple[int, ...] = tuple(candidates)
        self.trust_table: Dict[int, TrustState] = {}
        self.delivery_index: Dict[int, int] = {}


class World:
    """A population of peers plus the bookkeeping the experiments read."""

    def __init__(
        self,
        seed: int,
        detection_threshold: float = 0.5,
        warmup_rounds: int = 0,
        warmup_budget: int = 0,
        ads_per_round: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.round = 0
        self.now: float = 0.0
        self.peers: Dict[int, PeerRecord] = {}
        self.requesters: List[int] = []
        self.event_log: List[TransactionOutcome] = []
        # peers that have received >= 1 chunk from the key, in first-delivery order
        self.observers_of: Dict[int, Dict[int, None]] = {}
        self.detections: Dict[int, int] = {}
        self.detection_threshold = detection_threshold
        self.warmup_rounds = warmup_rounds
        self.warmup_budget = warmup_budget
        # chunk scarcity: per round, each requester sees only this many of its
        # candidates advertising the chunk it wants (None: all of them)
        self.ads_per_round = ads_per_round
        self.ads_rng = random.Random(f"{seed}:ads")

    def add_peer(
        self,
        pid: int,
        behavior: PeerBehavior,
        params: TrustParams,
        is_requester: bool = False,
        budget: int = 1,
        candidates: Sequence[int] = (),
    ) -> PeerRecord:
        if pid in self.peers:
            raise ValueError(f"duplicate peer id {pid}")
        rng = random.Random(f"{self.seed}:{pid}")
        rec = PeerRecord(pid, behavior, params, rng, is_requester, budget, candidates)
        self.peers[pid] = rec
        if is_requester:
            self.requesters.append(pid)
            self.requesters.sort()
        return rec


class TrustCache:
    """Trust work memoised while `world.now` stays put.

    `credibility[observer][k]` is the observer's direct trust of recommender
    k, filled when a query first reaches k. It holds for one batch: one
    `select_providers` call, or one round's observation loop in
    `run_scenario`. Inside a batch the observer's table changes only by decay
    write-backs to the same `now`, which leave a decayed state as it is.

    `honest[(k, subject)]` is k's honest direct trust of the subject. It
    holds for one round.

    Whoever keeps a cache longer than that drops what deliveries make stale,
    as `run_round` does: the requester's credibility when its batch ends,
    and (k, subject) when k receives a delivery from the subject.
    """

    __slots__ = ("credibility", "honest")

    def __init__(self) -> None:
        self.credibility: Dict[int, Dict[int, float]] = {}
        self.honest: Dict[Tuple[int, int], float] = {}


def query_indirect(
    world: World, observer: int, subject: int, cache: Optional[TrustCache] = None
) -> Optional[float]:
    """Aggregate recommendations about `subject` for `observer`.

    Recommenders are peers with transactions on both sides: they received
    chunks from the subject, and the observer received chunks from them.
    The observer keeps only its top-k most credible recommenders; each
    contributes its (possibly dishonest) reported direct trust, weighted by
    the observer's direct trust of the recommender. Returns None when no
    recommender qualifies. Without a cache the query memoises into a fresh
    one, so it always reads the tables as they are now.
    """
    if observer == subject:
        raise ValueError("a peer cannot query indirect trust about itself")
    obs = world.peers[observer]
    now = world.now
    # fetched at the first co-observer the observer knows: most queries in
    # a sparse mesh meet none, and should pay nothing for the cache
    credibility: Optional[Dict[int, float]] = None
    eligible: List[Tuple[float, int]] = []
    for k in world.observers_of.get(subject, ()):
        if k == observer or k == subject:
            continue
        st = obs.trust_table.get(k)
        if st is None:
            continue
        if credibility is None:
            if cache is None:
                cache = TrustCache()
            credibility = cache.credibility.setdefault(observer, {})
        cred = credibility.get(k)
        if cred is None:
            if st.n_transactions <= 0.0:
                continue
            st = apply_decay(st, now, obs.params)
            obs.trust_table[k] = st
            cred = direct_trust(st, obs.params)
            # a count that decayed to 0 leaves k out of later queries
            if st.n_transactions > 0.0:
                credibility[k] = cred
        eligible.append((cred, k))
    if not eligible:
        return None
    eligible.sort(key=lambda ck: (-ck[0], ck[1]))
    honest_of = cache.honest  # set: eligible is non-empty
    recommendations: List[Tuple[float, float]] = []
    for cred, k in eligible[: obs.params.k_recommenders]:
        rec = world.peers[k]
        honest = honest_of.get((k, subject))
        if honest is None:
            # read-only decayed view: evaluating trust must not touch k's table
            kst = apply_decay(rec.trust_table.get(subject, EMPTY_STATE), now, rec.params)
            honest = honest_of[(k, subject)] = direct_trust(kst, rec.params)
        value = recommendation_value(rec.behavior, k, subject, honest, rec.rng)
        recommendations.append((cred, value))
    return indirect_trust(recommendations)


def evaluate_components(
    world: World, observer: int, subject: int, cache: Optional[TrustCache] = None
) -> TrustComponents:
    """Direct, indirect, confidence weight, and combined trust for one pair."""
    if observer == subject:
        raise ValueError("a peer cannot evaluate trust of itself")
    obs = world.peers[observer]
    st = obs.trust_table.get(subject)
    if st is not None:
        st = apply_decay(st, world.now, obs.params)
        obs.trust_table[subject] = st
    else:
        st = EMPTY_STATE
    d = direct_trust(st, obs.params)
    a = confidence_factor(st, obs.params)
    ind = query_indirect(world, observer, subject, cache)
    cold = obs.params.cold_start_trust
    combined = combine_trust(d, ind, a, cold)
    return TrustComponents(d, cold if ind is None else ind, a, combined)


def evaluate_trust(
    world: World, observer: int, subject: int, cache: Optional[TrustCache] = None
) -> float:
    """Combined trust the observer places in the subject right now."""
    return evaluate_components(world, observer, subject, cache).combined


def select_providers(
    world: World,
    requester: int,
    candidates: Sequence[int],
    k: int,
    rng: random.Random,
    cache: Optional[TrustCache] = None,
) -> List[Tuple[int, float]]:
    """Rank candidates by trust, keep the top k, pass each through the
    requester's double-threshold rule. During warmup rounds the rule is
    bypassed. Returns (provider, trust) pairs, best trust first (ties:
    lowest id). The call is one batch: `cache`, if given, must carry no
    credibility the requester's earlier deliveries made stale."""
    req = world.peers[requester]
    if cache is None:
        cache = TrustCache()
    scored: List[Tuple[int, float]] = []
    for pid in candidates:
        if pid == requester:
            continue
        t = evaluate_trust(world, requester, pid, cache)
        if t < world.detection_threshold and pid not in world.detections:
            world.detections[pid] = int(world.now)
        scored.append((pid, t))
    scored.sort(key=lambda pt: (-pt[1], pt[0]))
    gating = world.now > world.warmup_rounds
    admitted: List[Tuple[int, float]] = []
    for pid, t in scored[:k]:
        if gating:
            p = transaction_probability(t, req.params)
            if p <= 0.0:
                continue
            if p < 1.0 and rng.random() >= p:
                continue
        admitted.append((pid, t))
    return admitted


def run_round(world: World) -> World:
    """Advance the world by one round of requests, deliveries, and updates."""
    r = world.round + 1
    world.now = float(r)
    in_warmup = r <= world.warmup_rounds
    ads = world.ads_per_round
    cache = TrustCache()
    for rid in world.requesters:
        req = world.peers[rid]
        if not req.candidates:
            continue
        if ads is not None and ads < len(req.candidates):
            advertising = sorted(world.ads_rng.sample(req.candidates, ads))
        else:
            advertising = req.candidates
        budget = max(req.budget, world.warmup_budget) if in_warmup else req.budget
        admitted = select_providers(
            world, rid, advertising, req.params.k_providers, req.rng, cache
        )
        cache.credibility.pop(rid, None)
        for pid, trust_at_selection in admitted[:budget]:
            provider = world.peers[pid]
            idx = req.delivery_index.get(pid, 0)
            quality = upload_quality(provider.behavior, pid, r, idx, provider.rng)
            req.delivery_index[pid] = idx + 1
            st = req.trust_table.get(pid)
            if st is None:
                st = TrustState(0.0, 0.0, 0.0, float(r))
            else:
                st = apply_decay(st, float(r), req.params)
            req.trust_table[pid] = record_delivery(st, quality)
            cache.honest.pop((rid, pid), None)
            world.observers_of.setdefault(pid, {})[rid] = None
            world.event_log.append(
                TransactionOutcome(r, rid, pid, quality, trust_at_selection)
            )
    world.round = r
    return world
