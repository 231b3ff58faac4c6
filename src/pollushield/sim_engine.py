"""Round-based mesh overlay simulator.

Each round every requesting peer asks for one chunk: it ranks the peers
advertising to it by trust, admits the top K through its double-threshold
rule, and records the qualities of the chunks it receives.
Trust lives entirely inside per-peer tables; there is no shared registry.

The world advances single-threaded in peer-id order, so a (config, seed)
pair replays to a byte-identical event log.

Trust is scored by one kernel, `score_candidates`: it scores all of a
requester's candidates in one call, reading the requester's parameters and
table once and decaying each entry into plain counts with
`decayed_counts` for `direct_trust` and `confidence_factor`. Recommendations
are queried only for a subject whose observers include a peer the requester
has received from, the only case where a recommender can qualify.
`select_providers` calls it once per requester, and `evaluate_components` is
the kernel applied to one subject.

Tables change only at delivery, where `record_delivery` decays the entry
from its last delivery to `world.now` and counts the chunk. Evaluating trust
reads each entry decayed the same way and stores nothing, so a run does not
depend on how often trust is read. A `TrustMemo` spares the repeated work.
Its direct table, a's direct trust of b at `world.now`, serves both
recommender credibility and recommenders' honest values. Its report table
holds what recommender k reports about a subject, for peers with no lie
stream; a bad-mouther still draws a lie at every enquiry. `run_round` keeps
one memo per round, and when a receives a delivery from b,
`TrustMemo.delivered(a, b)` drops both a's direct trust of b and a's report
about b. `run_round` returns that memo, still valid at `world.now`, and the
scenario's observations read through it. The public evaluation functions
make a fresh memo when none is passed.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import DefaultDict, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .behaviors import BehaviorKind, PeerBehavior, recommendation_value, upload_quality
from .trust_core import (
    EMPTY_STATE,
    ChunkQuality,
    TrustParams,
    TrustState,
    combine_trust,
    confidence_factor,
    decayed_counts,
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
        "lie_rng",
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
        budget: int = 1,
        candidates: Sequence[int] = (),
        lie_rng: Optional[random.Random] = None,
    ) -> None:
        self.pid = pid
        self.behavior = behavior
        self.params = params
        self.rng = rng
        self.lie_rng = lie_rng
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
        # only a bad-mouther lies, from its own stream apart from its uploads
        liar = behavior.kind is BehaviorKind.BADMOUTH
        lie_rng = random.Random(f"{self.seed}:{pid}:lies") if liar else None
        rec = PeerRecord(pid, behavior, params, rng, budget, candidates, lie_rng)
        self.peers[pid] = rec
        if is_requester:
            self.requesters.append(pid)
            self.requesters.sort()
        return rec


class TrustMemo:
    """What trust reads have worked out at `world.now`.

    `direct[a][b]` is a's direct trust of b; it serves both recommender
    credibility and recommenders' honest values. `reports[s][k]` is what
    recommender k reports about subject s, kept only for peers with no lie
    stream: their report is a function of their direct trust alone, while a
    bad-mouther draws from its lie stream at every enquiry.

    A delivery to a from b changes a's entry for b, and so both a's direct
    trust of b and a's report about b; `delivered` drops the two together.
    """

    __slots__ = ("direct", "reports")

    def __init__(self) -> None:
        self.direct: DefaultDict[int, Dict[int, float]] = defaultdict(dict)
        self.reports: DefaultDict[int, Dict[int, float]] = defaultdict(dict)

    def delivered(self, rid: int, pid: int) -> None:
        """rid received from pid: drop rid's direct trust of pid and its report about pid."""
        self.direct[rid].pop(pid, None)
        self.reports[pid].pop(rid, None)


def query_indirect(
    world: World, observer: int, subject: int, memo: Optional[TrustMemo] = None
) -> Optional[float]:
    """Aggregate recommendations about `subject` for `observer`.

    Recommenders are peers with transactions on both sides: they received
    chunks from the subject, and the observer received chunks from them.
    The observer keeps only its top-k most credible recommenders; each
    contributes its (possibly dishonest) reported direct trust, weighted by
    the observer's direct trust of the recommender. Returns None when no
    recommender qualifies.
    """
    if observer == subject:
        raise ValueError("a peer cannot query indirect trust about itself")
    obs = world.peers[observer]
    now = world.now
    if memo is None:
        memo = TrustMemo()
    credibility = memo.direct[observer]
    eligible: List[Tuple[float, int]] = []  # (-credibility, recommender)
    for k in world.observers_of.get(subject, ()):
        if k == observer or k == subject:
            continue
        st = obs.trust_table.get(k)
        if st is None:
            continue
        cred = credibility.get(k)
        if cred is None:
            nc, np_, _ = decayed_counts(st, now, obs.params)
            cred = credibility[k] = direct_trust(nc, np_, obs.params)
        eligible.append((-cred, k))
    if not eligible:
        return None
    eligible.sort()  # most credible first, ties by lowest id
    reports = memo.reports[subject]
    recommendations: List[Tuple[float, float]] = []
    for neg_cred, k in eligible[: obs.params.k_recommenders]:
        value = reports.get(k)
        if value is None:
            rec = world.peers[k]
            views = memo.direct[k]
            honest = views.get(subject)
            if honest is None:
                nc, np_, _ = decayed_counts(
                    rec.trust_table.get(subject, EMPTY_STATE), now, rec.params)
                honest = views[subject] = direct_trust(nc, np_, rec.params)
            value = recommendation_value(rec.behavior, k, subject, honest, rec.lie_rng)
            if rec.lie_rng is None:
                reports[k] = value
        recommendations.append((-neg_cred, value))
    return indirect_trust(recommendations)


def score_candidates(
    world: World,
    observer: int,
    subjects: Sequence[int],
    memo: Optional[TrustMemo] = None,
) -> List[TrustComponents]:
    """Direct, indirect, confidence weight, and combined trust of each
    subject for one observer, in the order given.

    The observer's parameters and table are read once per batch, and each
    entry is decayed into plain counts. Recommendations are queried only
    for subjects that some peer has received from; for any other subject no
    recommender can qualify.
    """
    obs = world.peers[observer]
    params = obs.params
    table = obs.trust_table
    now = world.now
    observers_of = world.observers_of
    cold = params.cold_start_trust
    if memo is None:
        memo = TrustMemo()
    # direct trust and confidence of a subject the observer never received from
    unknown: Optional[Tuple[float, float]] = None
    scored: List[TrustComponents] = []
    for subject in subjects:
        if subject == observer:
            raise ValueError("a peer cannot evaluate trust of itself")
        st = table.get(subject)
        if st is not None:
            nc, np_, n = decayed_counts(st, now, params)
            d = direct_trust(nc, np_, params)
            a = confidence_factor(n, params)
        else:
            if unknown is None:
                unknown = (direct_trust(0.0, 0.0, params), confidence_factor(0.0, params))
            d, a = unknown
        # a recommender is a peer the observer received from that received
        # from the subject: query only when one exists
        members = observers_of.get(subject)
        ind = None
        if members and not table.keys().isdisjoint(members):
            ind = query_indirect(world, observer, subject, memo)
        if ind is None:
            ind = cold
        scored.append(TrustComponents(d, ind, a, combine_trust(d, ind, a)))
    return scored


def evaluate_components(
    world: World, observer: int, subject: int, memo: Optional[TrustMemo] = None
) -> TrustComponents:
    """Direct, indirect, confidence weight, and combined trust for one pair."""
    return score_candidates(world, observer, (subject,), memo)[0]


def select_providers(
    world: World,
    requester: int,
    candidates: Sequence[int],
    k: int,
    rng: random.Random,
    memo: Optional[TrustMemo] = None,
) -> List[Tuple[int, float]]:
    """Rank candidates by trust, keep the top k, pass each through the
    requester's double-threshold rule. During warmup rounds the rule is
    bypassed. Returns (provider, trust) pairs, best trust first (ties:
    lowest id)."""
    req = world.peers[requester]
    subjects = [pid for pid in candidates if pid != requester]
    scored: List[Tuple[int, float]] = []
    for pid, comp in zip(subjects, score_candidates(world, requester, subjects, memo)):
        t = comp.combined
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


def run_round(world: World) -> TrustMemo:
    """Advance the world by one round of requests, deliveries, and updates.

    Returns the round's memo. Every delivery dropped the entries it changed,
    so the memo stays valid for reads at `world.now` until the next delivery."""
    r = world.round + 1
    world.now = float(r)
    in_warmup = r <= world.warmup_rounds
    ads = world.ads_per_round
    memo = TrustMemo()
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
            world, rid, advertising, req.params.k_providers, req.rng, memo
        )
        for pid, trust_at_selection in admitted[:budget]:
            provider = world.peers[pid]
            idx = req.delivery_index.get(pid, 0)
            quality = upload_quality(provider.behavior, pid, r, idx, provider.rng)
            req.delivery_index[pid] = idx + 1
            req.trust_table[pid] = record_delivery(
                req.trust_table.get(pid, EMPTY_STATE), quality, world.now, req.params
            )
            memo.delivered(rid, pid)
            world.observers_of.setdefault(pid, {})[rid] = None
            world.event_log.append(
                TransactionOutcome(r, rid, pid, quality, trust_at_selection)
            )
    world.round = r
    return memo
