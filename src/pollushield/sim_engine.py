"""Round-based mesh overlay simulator.

Each round every requesting peer asks for one chunk: it ranks the peers
advertising to it by trust, admits the top K through its double-threshold
rule, and records the qualities of the chunks it receives.
Trust lives entirely inside per-peer tables; there is no shared registry.

The world advances single-threaded in peer-id order, so a (config, seed)
pair replays to a byte-identical event log.

Trust is scored by one kernel, `score_candidates`: it scores all of a
requester's candidates in one call. A recommender is a peer the requester
has received from that has itself received from the subject; the trust
tables are the only record of both. So, when the requester has received
from anyone, one ranking serves the batch: the peers in its table that
received from some subject are sorted once by credibility, ties by lowest
id. Each subject then walks that ranking in turn, adding the report of
every recommender that received from it to running sums of credibility
and credibility-weighted report, and stops at k_recommenders reports; a
ranking of at most k_recommenders peers cannot reach that cut, so there
each subject is summed with no count of its reports. So each subject sums
its own top k in rank order, the operations of the test oracle's
aggregation (tests/test_trust_cache.py), bit for bit; a subject with no
report, or only reports of credibility 0, takes cold-start trust as its
indirect value. A subject the observer never received from scores with the
observer's never-received-from components, which its `PeerRecord` builds
once, at construction, from its own params. `select_providers` calls the
kernel once per requester and `scenarios.Run` once per observer and round.

The one clock is `world.round`, which `run_round` advances before it
selects. Tables change only at delivery, where `record_delivery` decays the
entry from its last delivery to the round and counts the chunk. Evaluating
trust reads each entry decayed the same way with `decayed_counts` and
stores nothing in the tables, so a run does not depend on how often trust
is read. A `TrustMemo` that a `scenarios.Run` makes and passes to every
round and observation batch keeps the values that hold for the rest of the
run (see `TrustMemo`); the memo has no clock, so readers pass it
`world.round`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import DefaultDict, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .behaviors import PeerBehavior, recommendation_value, upload_quality
from .trust_core import (
    EMPTY_STATE,
    ChunkQuality,
    TrustParams,
    TrustState,
    combine_trust,
    confidence_factor,
    decayed_counts,
    decays,
    direct_trust,
    record_delivery,
    transaction_probability,
)


DETECTION_THRESHOLD = 0.5  # default: combined trust below this flags a peer


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


# bound once: a NamedTuple's own __new__ is a Python function, one more frame per build
_new_tuple = tuple.__new__


class PeerRecord:
    """One peer: strategy, parameters, and its private trust table.

    `unknown` holds the peer's components of a subject it never received
    from, `_components(0.0, 0.0, 0.0, params)`, built once here: they
    depend on nothing but its own fixed params."""

    __slots__ = (
        "behavior",
        "params",
        "rng",
        "budget",
        "candidates",
        "trust_table",
        "delivery_index",
        "unknown",
    )

    def __init__(
        self,
        behavior: PeerBehavior,
        params: TrustParams,
        rng: random.Random,
        budget: int = 1,
        candidates: Sequence[int] = (),
    ) -> None:
        self.behavior = behavior
        self.params = params
        self.rng = rng
        self.budget = budget
        self.candidates: Tuple[int, ...] = tuple(candidates)
        self.trust_table: Dict[int, TrustState] = {}
        self.delivery_index: Dict[int, int] = {}
        self.unknown: TrustComponents = _components(0.0, 0.0, 0.0, params)


class World:
    """A population of peers plus the bookkeeping the experiments read."""

    def __init__(
        self,
        seed: int,
        detection_threshold: float = DETECTION_THRESHOLD,
        warmup_rounds: int = 0,
        warmup_budget: int = 0,
        ads_per_round: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.round = 0  # 0 before the first run_round
        self.peers: Dict[int, PeerRecord] = {}
        self.requesters: List[int] = []
        self.event_log: List[TransactionOutcome] = []
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
        if pid in candidates:
            raise ValueError(f"peer {pid} lists itself as a candidate")
        rng = random.Random(f"{self.seed}:{pid}")
        rec = PeerRecord(behavior, params, rng, budget, candidates)
        self.peers[pid] = rec
        if is_requester:
            self.requesters.append(pid)
            self.requesters.sort()
        return rec


class TrustMemo:
    """What trust reads have worked out that holds for the rest of a run.

    `direct[a][b]` is a's `TrustComponents` of b when no recommender reports
    on b, with a's cold-start trust as the indirect value: a subject's full
    score in that case, and through `.direct` recommender credibility and
    honest values. `reports[k][s]` is what recommender k reports about s.
    Both are keyed by the peer whose view they hold. An entry is kept only
    if its value holds in every later round: a direct entry whose direct
    trust and confidence factor do not move with time (`decays` is false;
    PDTM with no clean chunk holds at 0.0 while forgiving fades the
    polluted count), and a report built on a kept entry whose recommender
    does not `lies_about` the subject. Any other is worked out again at
    each read. A delivery to a from b changes a's entry of b, so
    `delivered` drops it and a's report about b. A fresh memo thus gives
    the same values as a carried one.
    """

    __slots__ = ("direct", "reports")

    def __init__(self) -> None:
        self.direct: DefaultDict[int, Dict[int, TrustComponents]] = defaultdict(dict)
        self.reports: DefaultDict[int, Dict[int, float]] = defaultdict(dict)

    def read(self, a: int, b: int, rec: PeerRecord, now: int) -> TrustComponents:
        """Work out a's components of b in round `now` with no report on b,
        keeping them if they hold for the rest of the run; `rec` is a's
        record, whose table holds b. Callers look in `direct` first."""
        st = rec.trust_table[b]
        params = rec.params
        nc, np_, n = decayed_counts(st, now, params)
        entry = _components(nc, np_, n, params)
        if not decays(st, params):
            self.direct[a][b] = entry
        return entry

    def report(self, k: int, s: int, rec: PeerRecord, seed: int, now: int) -> float:
        """What recommender k, whose record is `rec`, reports about s in
        round `now`."""
        entry = self.direct[k].get(s) or self.read(k, s, rec, now)
        value = recommendation_value(rec.behavior, k, s, entry.direct, seed, now)
        if s in self.direct[k] and not rec.behavior.lies_about(s):
            self.reports[k][s] = value
        return value

    def delivered(self, rid: int, pid: int) -> None:
        """rid received from pid: drop rid's direct entry of pid and its report about pid."""
        self.direct[rid].pop(pid, None)
        self.reports[rid].pop(pid, None)


def _components(nc: float, np_: float, n: float, params: TrustParams) -> TrustComponents:
    """Components of a peer with these decayed counts when no recommender
    reports on it: cold-start trust stands in for indirect trust."""
    d = direct_trust(nc, np_, params)
    alpha = confidence_factor(n, params)
    cold = params.cold_start_trust
    return _new_tuple(TrustComponents, (d, cold, alpha, combine_trust(d, cold, alpha)))


def _walk_recommenders(
    world: World, observer: int, subjects: Sequence[int], memo: TrustMemo
) -> Dict[int, float]:
    """The ranked walk the module docstring describes: one ranking of the
    observer's recommenders, then one pass over it per subject (a subject
    listed twice is walked once), counting the subject's reports only when
    the ranking holds more than k recommenders. Returns the indirect trust
    of each subject whose top k recommenders carry some credibility; any
    other subject is absent and keeps cold start."""
    obs = world.peers[observer]
    peers = world.peers
    now = world.round
    credibility = memo.direct[observer]
    # (-credibility, recommender, its trust table, its memoised reports)
    ranked: List[Tuple[float, int, Dict[int, TrustState], Dict[int, float]]] = []
    for k in obs.trust_table:
        received = peers[k].trust_table
        if not received or received.keys().isdisjoint(subjects):
            continue
        cred = (credibility.get(k) or memo.read(observer, k, obs, now)).direct
        ranked.append((-cred, k, received, memo.reports[k]))
    if not ranked:
        return {}
    ranked.sort()  # ids are distinct, so the tables are never compared
    walk = [(-neg_cred, k, received, reports) for neg_cred, k, received, reports in ranked]
    k_max = obs.params.k_recommenders
    seed = world.seed
    indirect: Dict[int, float] = {}
    if len(walk) <= k_max:
        # no subject has more reports than the ranking has entries, so the
        # cut at k_max cannot fire: the same sums in the same order, uncounted
        for subject in dict.fromkeys(subjects):
            total = 0.0
            weighted = 0.0
            for cred, k, received, reports in walk:
                value = reports.get(subject)
                if value is None:
                    if subject not in received:
                        continue
                    value = memo.report(k, subject, peers[k], seed, now)
                total += cred
                weighted += cred * value
            if total != 0.0:
                indirect[subject] = weighted / total
        return indirect
    for subject in dict.fromkeys(subjects):
        # running sums in rank order: the test oracle's aggregation bit for bit
        n = 0
        total = 0.0
        weighted = 0.0
        for cred, k, received, reports in walk:
            # a kept report implies k received from the subject: tables never lose entries
            value = reports.get(subject)
            if value is None:
                if subject not in received:
                    continue
                value = memo.report(k, subject, peers[k], seed, now)
            total += cred
            weighted += cred * value
            n += 1
            if n == k_max:
                break
        if total != 0.0:
            indirect[subject] = weighted / total
    return indirect


def score_candidates(
    world: World,
    observer: int,
    subjects: Sequence[int],
    memo: Optional[TrustMemo] = None,
) -> List[TrustComponents]:
    """Direct, indirect, confidence weight, and combined trust of each
    subject for one observer, in the order given, from one ranked walk as
    the module docstring describes; a fresh memo serves the call when none
    is passed."""
    if observer in subjects:
        raise ValueError("a peer cannot evaluate trust of itself")
    memo = memo or TrustMemo()
    obs = world.peers[observer]
    table = obs.trust_table
    now = world.round
    indirect = _walk_recommenders(world, observer, subjects, memo) if table else {}
    views = memo.direct[observer]
    unknown = obs.unknown
    scored: List[TrustComponents] = []
    for subject in subjects:
        if subject in table:
            comp = views.get(subject) or memo.read(observer, subject, obs, now)
        else:
            comp = unknown
        ind = indirect.get(subject)
        if ind is not None:
            d, _, a, _ = comp
            comp = _new_tuple(TrustComponents, (d, ind, a, combine_trust(d, ind, a)))
        scored.append(comp)
    return scored


def select_providers(
    world: World,
    requester: int,
    candidates: Sequence[int],
    memo: Optional[TrustMemo] = None,
) -> List[Tuple[int, float]]:
    """Rank candidates by trust, keep the requester's top k_providers, pass
    each through its double-threshold rule, drawing gray-zone probes from its
    own stream. During warmup rounds the rule is bypassed. Returns
    (provider, trust) pairs, best trust first (ties: lowest id)."""
    req = world.peers[requester]
    threshold, detections = world.detection_threshold, world.detections
    ranked: List[Tuple[float, int]] = []  # (-trust, provider)
    for pid, comp in zip(candidates, score_candidates(world, requester, candidates, memo)):
        t = comp.combined
        if t < threshold and pid not in detections:
            detections[pid] = world.round
        ranked.append((-t, pid))
    ranked.sort()
    gating = world.round > world.warmup_rounds
    admitted: List[Tuple[int, float]] = []
    for neg_t, pid in ranked[: req.params.k_providers]:
        t = -neg_t
        if gating:
            p = transaction_probability(t, req.params)
            if p <= 0.0:
                continue
            if p < 1.0 and req.rng.random() >= p:
                continue
        admitted.append((pid, t))
    return admitted


def run_round(world: World, memo: Optional[TrustMemo] = None) -> None:
    """Advance the world by one round of requests, deliveries, and updates,
    selecting through `memo` (a fresh one when none is passed); every
    delivery drops the memo entries it changes, so the memo stays valid."""
    world.round += 1
    r = world.round
    in_warmup = r <= world.warmup_rounds
    ads = world.ads_per_round
    memo = memo or TrustMemo()
    for rid in world.requesters:
        req = world.peers[rid]
        if not req.candidates:
            continue
        if ads is not None and ads < len(req.candidates):
            advertising = sorted(world.ads_rng.sample(req.candidates, ads))
        else:
            advertising = req.candidates
        budget = max(req.budget, world.warmup_budget) if in_warmup else req.budget
        admitted = select_providers(world, rid, advertising, memo)
        for pid, trust_at_selection in admitted[:budget]:
            provider = world.peers[pid]
            idx = req.delivery_index.get(pid, 0)
            quality = upload_quality(provider.behavior, pid, r, idx, provider.rng)
            req.delivery_index[pid] = idx + 1
            req.trust_table[pid] = record_delivery(
                req.trust_table.get(pid, EMPTY_STATE), quality, r, req.params
            )
            memo.delivered(rid, pid)
            world.event_log.append(
                _new_tuple(TransactionOutcome, (r, rid, pid, quality, trust_at_selection))
            )
