"""Round-based mesh overlay simulator.

Each round every peer with candidates ranks the peers advertising to it by
trust, admits the top K through its double-threshold rule, takes a chunk
from each of the first `budget` admitted (WARMUP_BUDGET, if more, in warmup)
and records their qualities. Trust lives entirely inside per-peer tables;
the world keeps no trust value of its own.

The world advances single-threaded in peer-id order, so a (config, seed)
pair replays to a byte-identical event log.

Trust is scored in two steps. A recommender is a peer the requester has
received from that has itself received from the subject. The trust tables
record both, and `World.receivers` holds the second inverted: the peers
that received from each subject. `World.write_entry`, the one way a table
changes, keeps the two in step. When the requester has received from
anyone, one ranking serves a batch (`_walk_recommenders`): the peers in its
table of positive credibility that received from some subject, sorted once
by credibility, ties by lowest id. A report of credibility 0 would leave
both sums below as they are, bit for bit, and would sort after every other,
so leaving it out moves no subject's first k holders. Each subject gets a
holder list, its candidate recommenders in rank order. When the ranking
holds at most k_recommenders peers, no subject can have more reports than
that, so every subject's list is the whole ranking. A longer ranking is
walked once, recommender by recommender: one set intersection of the
recommender's table with the subjects still wanted appends it to the list
of each subject it received from; a subject leaves once its list holds
k_recommenders, and the pass ends when none is left. Then `_sum_reports`
sums the lists of the subjects it is given, skipping a recommender that did
not receive from the subject, into running sums of credibility and
credibility-weighted report. So each subject sums its own top k in rank
order, the operations of the test oracle's aggregation
(tests/test_trust_cache.py), bit for bit; a subject with no report of
positive credibility takes cold-start trust as its indirect value. A
subject the observer never received from reads as `EMPTY_STATE`, the entry
a first delivery starts from. `score_candidates` sums every subject of its
batch; `scenarios.Run` calls it once per observer and round, and
`select_providers` once per requester with no more candidates than
k_providers.

A requester with more candidates sums only those that can change its
detections or its top k_providers (`_bounded_top`), after Fagin, Lotem and
Naor's threshold algorithm. Indirect trust lies in [0, 1], and
`combine_trust(d, ind, a)` never falls as `ind` grows, rounding included,
so a candidate's trust lies between its values at 0 and 1, which its kept
view gives without a sum. A candidate that no peer in the requester's table
received from (`World.receivers`), or whose requester ranks no peer, hears
no report, so its view is its trust. In candidate order, an undetected
candidate is summed only when its bounds straddle the detection threshold;
then exact trust is worked out in ascending (-upper, id) order until the
k-th best exact (-trust, id) key beats the next upper-bound key. So the
admitted providers, their trust, the detections and the probe draws are
those of summing every candidate.

The one clock is `world.round`, which `run_round` advances before it
selects. Tables change only at delivery, through `World.write_entry`, where
`record_delivery` decays the entry from its last delivery to the round and
counts the chunk. Evaluating trust reads each entry decayed the same way
with `decayed_counts` and stores nothing in the tables, so a run does not
depend on how often trust is read. What a read works out that holds for the
rest of the run, each peer keeps on its own record (`PeerRecord.views` and
`.reports`); the kept values have no clock, so readers pass `world.round`.

Peers that hold equal params often hold equal table entries, so within a
round they would work out the same arithmetic again and again. They share
one `RoundMemo`, which maps a table state to its components and (state,
quality) to the state a delivery leaves, for one round only: a read or
delivery in another round finds it empty. Each is a pure function of the
state, the params and the round, so a hit gives what a fill would.
"""

from __future__ import annotations

import random
from bisect import insort
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .behaviors import LOSSY_KINDS, PeerBehavior, recommendation_value, upload_quality
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


DETECTION_THRESHOLD = 0.5  # combined trust below this flags a peer
WARMUP_BUDGET = 3  # chunks a requester takes per warmup round, at least


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


class RoundMemo:
    """One round's trust arithmetic for one params value: `reads` maps a
    table state to its components in round `now` and whether they hold for
    the rest of the run (`decays` is false), and `deliveries` maps (state,
    quality) to what `record_delivery` returns in round `now`. `start`
    empties both for a new round, so nothing outlives its round and a table
    written anywhere needs no invalidation."""

    __slots__ = ("now", "reads", "deliveries")

    def __init__(self) -> None:
        self.start(None)

    def start(self, now: Optional[int]) -> None:
        self.now = now
        self.reads: Dict[TrustState, Tuple[TrustComponents, bool]] = {}
        self.deliveries: Dict[Tuple[TrustState, ChunkQuality], TrustState] = {}


class PeerRecord:
    """One peer: strategy, parameters, loss rate, its private trust table,
    and the values its trust reads keep.

    `views[b]` holds its components of b with no report on b (cold-start
    trust as the indirect value), and `reports[s]` what it reports about s,
    which `_report` keeps whenever it kept the view of s the report is built
    on. A subject b absent from `trust_table` reads as `EMPTY_STATE`, so
    `views[b]` may hold the empty state's components. `_read` and `_report`
    keep only values that hold for the rest of the run, and they hold only
    while the table entry they came from stands, so `World.write_entry`
    drops `views[b]` and `reports[b]` with each write to `trust_table[b]`.
    Emptied ones give the same values.
    `memo` is the `RoundMemo` of its params, which `World.add_peer` gives
    every record holding equal params."""

    __slots__ = (
        "behavior",
        "params",
        "loss_rate",
        "rng",
        "budget",
        "candidates",
        "trust_table",
        "delivery_index",
        "views",
        "reports",
        "memo",
    )

    def __init__(
        self,
        behavior: PeerBehavior,
        params: TrustParams,
        loss_rate: float,
        rng: random.Random,
        budget: int,
        candidates: Sequence[int],
        memo: RoundMemo,
    ) -> None:
        self.behavior = behavior
        self.params = params
        self.loss_rate = loss_rate
        self.rng = rng
        self.budget = budget
        self.candidates: Tuple[int, ...] = tuple(candidates)
        self.trust_table: Dict[int, TrustState] = {}
        self.delivery_index: Dict[int, int] = {}
        self.views: Dict[int, TrustComponents] = {}
        self.reports: Dict[int, float] = {}
        self.memo = memo


class World:
    """A population of peers plus the bookkeeping the experiments read.

    `memos` holds one `RoundMemo` per params value its peers hold (equal
    records hold identical bits). `receivers[b]` is the set of peers whose
    trust tables hold b, that is, that have received from b; it holds only
    while every table is written through `write_entry`."""

    def __init__(
        self, seed: int, warmup_rounds: int = 0, ads_per_round: Optional[int] = None
    ) -> None:
        self.seed = seed
        self.round = 0  # 0 before the first run_round
        self.peers: Dict[int, PeerRecord] = {}
        self.requesters: List[int] = []
        self.event_log: List[TransactionOutcome] = []
        self.detections: Dict[int, int] = {}
        self.warmup_rounds = warmup_rounds
        # chunk scarcity: per round, each requester sees only this many of its
        # candidates advertising the chunk it wants (None: all of them)
        self.ads_per_round = ads_per_round
        self.ads_rng = random.Random(f"{seed}:ads")
        self.memos: Dict[TrustParams, RoundMemo] = {}
        self.receivers: Dict[int, Set[int]] = {}
        self.missing: Set[int] = set()  # candidates not yet added as peers

    def add_peer(
        self,
        pid: int,
        behavior: PeerBehavior,
        params: TrustParams,
        budget: int = 1,
        candidates: Sequence[int] = (),
        loss_rate: float = 0.0,
    ) -> PeerRecord:
        """Add peer `pid`; it requests, in id order, exactly when it has
        candidates, each a peer by the next `run_round`. Loss corrupts each of
        its uploads with probability `loss_rate`, drawn from its own stream,
        so only `LOSSY_KINDS` take one."""
        if pid in self.peers:
            raise ValueError(f"duplicate peer id {pid}")
        if type(budget) is not int:
            raise ValueError(f"peer {pid} has budget {budget!r}, expected an int")
        if budget < 1:
            raise ValueError(f"peer {pid} has request budget {budget}, expected >= 1")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must lie in [0, 1]")
        if loss_rate and behavior.kind not in LOSSY_KINDS:
            kinds = " or ".join(k.value for k in LOSSY_KINDS)
            raise ValueError(f"loss_rate is read only by kind {kinds}, not {behavior.kind.value}")
        if behavior.group and pid not in behavior.group:
            raise ValueError(f"peer {pid} is not in its collusion group {list(behavior.group)}")
        if pid in candidates:
            raise ValueError(f"peer {pid} lists itself as a candidate")
        if len(set(candidates)) < len(candidates):
            raise ValueError(f"peer {pid} lists a candidate twice: {list(candidates)}")
        rng = random.Random(f"{self.seed}:{pid}")
        memo = self.memos.get(params)
        if memo is None:
            memo = self.memos[params] = RoundMemo()
        rec = PeerRecord(behavior, params, loss_rate, rng, budget, candidates, memo)
        self.peers[pid] = rec
        self.missing.discard(pid)
        self.missing.update(c for c in candidates if c not in self.peers)
        if rec.candidates:
            insort(self.requesters, pid)
        return rec

    def write_entry(self, peer: int, subject: int, state: TrustState) -> None:
        """Set `peer`'s trust table entry for `subject` to `state`, the one
        way a table changes. It drops the peer's kept view and report of
        the subject, which held only while the old entry stood, and at a
        first entry adds the peer to `receivers[subject]`."""
        rec = self.peers[peer]
        table = rec.trust_table
        if subject not in table:
            self.receivers.setdefault(subject, set()).add(peer)
        table[subject] = state
        rec.views.pop(subject, None)
        rec.reports.pop(subject, None)


def _components(nc: float, np_: float, n: float, params: TrustParams) -> TrustComponents:
    """Components of a peer with these decayed counts when no recommender
    reports on it: cold-start trust stands in for indirect trust."""
    d = direct_trust(nc, np_, params)
    alpha = confidence_factor(n, params)
    cold = params.cold_start_trust
    return _new_tuple(TrustComponents, (d, cold, alpha, combine_trust(d, cold, alpha)))


def _read(rec: PeerRecord, b: int, now: int) -> TrustComponents:
    """The components of b in round `now` with no report on b, for the peer
    whose record is `rec`, worked out once per state and round in the
    record's `RoundMemo`; a b absent from the record's table reads as
    `EMPTY_STATE`, as a delivery does. They are kept in `rec.views` when
    their direct trust and confidence factor do not move with time
    (`decays` is false, as for the empty state; PDTM with no clean chunk
    holds at 0.0 while forgiving fades the polluted count). Callers look
    there first."""
    st = rec.trust_table.get(b, EMPTY_STATE)
    memo = rec.memo
    if memo.now != now:
        memo.start(now)
    found = memo.reads.get(st)
    if found is None:
        params = rec.params
        nc, np_, n = decayed_counts(st, now, params)
        found = memo.reads[st] = (_components(nc, np_, n, params), not decays(st, params))
    entry, holds = found
    if holds:
        rec.views[b] = entry
    return entry


def _report(s: int, rec: PeerRecord, now: int) -> float:
    """What the recommender whose record is `rec` reports about s in round
    `now`, kept in `rec.reports` when built on a kept view: a report moves
    only with the view it is built on. Callers look there first."""
    views = rec.views
    entry = views.get(s) or _read(rec, s, now)
    value = recommendation_value(rec.behavior, s, entry.direct)
    if s in views:
        rec.reports[s] = value
    return value


# (-credibility, recommender, its trust table, its kept reports)
_Ranked = Tuple[float, int, Dict[int, TrustState], Dict[int, float]]


def _walk_recommenders(
    world: World, observer: int, subjects: Sequence[int]
) -> Dict[int, List[_Ranked]]:
    """The ranking and holder lists the module docstring describes: one
    ranking of the observer's recommenders, then a holder list per subject
    (a subject listed twice gets one): the whole ranking when it holds at
    most k recommenders, or else each subject's first k holders, from one
    pass. Empty when no peer the observer received from, of positive
    credibility, has received from a subject."""
    obs = world.peers[observer]
    peers = world.peers
    now = world.round
    credibility = obs.views
    ranked: List[_Ranked] = []
    for k in obs.trust_table:
        rec = peers[k]
        received = rec.trust_table
        if not received or received.keys().isdisjoint(subjects):
            continue
        cred = (credibility.get(k) or _read(obs, k, now)).direct
        if cred:  # a report of credibility 0 leaves both sums as they are
            ranked.append((-cred, k, received, rec.reports))
    if not ranked:
        return {}
    ranked.sort()  # ids are distinct, so the tables are never compared
    k_max = obs.params.k_recommenders
    if len(ranked) <= k_max:
        # no subject has more reports than the ranking has entries, so the
        # cut at k_max cannot fire: each subject's holders are in the ranking
        return dict.fromkeys(subjects, ranked)
    # each subject's first k_max holders in rank order, found recommender
    # by recommender; a subject leaves `wanted` once it has them all
    wanted = set(subjects)
    holders: Dict[int, List[_Ranked]] = {subject: [] for subject in wanted}
    for entry in ranked:
        for subject in entry[2].keys() & wanted:
            held = holders[subject]
            held.append(entry)
            if len(held) == k_max:
                wanted.discard(subject)
        if not wanted:
            break
    return holders


def _sum_reports(
    world: World, holders: Dict[int, List[_Ranked]], subjects: Iterable[int]
) -> Dict[int, float]:
    """The indirect trust of each of `subjects` that `holders` (from
    `_walk_recommenders`) lists, summed over its holder list in rank order,
    skipping a holder that did not receive from it. A subject with no
    report of positive credibility is absent and keeps cold start."""
    peers = world.peers
    now = world.round
    indirect: Dict[int, float] = {}
    for subject in subjects:
        # running sums in rank order, the test oracle's aggregation bit for bit:
        # IEEE 754 defines x - y as x + (-y), and (-c) * v is -(c * v) exactly,
        # so subtracting a negated credibility adds it, signed zeros included
        total = 0.0
        weighted = 0.0
        for neg_cred, k, received, reports in holders[subject]:
            # a kept report implies k received from the subject: tables never lose entries
            value = reports.get(subject)
            if value is None:
                if subject not in received:
                    continue
                value = _report(subject, peers[k], now)
            total -= neg_cred
            weighted -= neg_cred * value
        if total != 0.0:
            indirect[subject] = weighted / total
    return indirect


def score_candidates(
    world: World, observer: int, subjects: Sequence[int]
) -> List[TrustComponents]:
    """Direct, indirect, confidence weight, and combined trust of each
    subject for one observer, in the order given, from one ranking and the
    sums of every subject, as the module docstring describes."""
    if observer in subjects:
        raise ValueError("a peer cannot evaluate trust of itself")
    obs = world.peers[observer]
    now = world.round
    holders = _walk_recommenders(world, observer, subjects) if obs.trust_table else {}
    indirect = _sum_reports(world, holders, holders) if holders else {}
    views = obs.views
    scored: List[TrustComponents] = []
    for subject in subjects:
        comp = views.get(subject) or _read(obs, subject, now)
        ind = indirect.get(subject)
        if ind is not None:
            d, _, a, _ = comp
            comp = _new_tuple(TrustComponents, (d, ind, a, combine_trust(d, ind, a)))
        scored.append(comp)
    return scored


def _bounded_top(
    world: World, requester: int, candidates: Sequence[int], k_max: int
) -> List[Tuple[float, int]]:
    """`select_providers`' detections and its best k_max (-trust, provider)
    keys, best first, from the bounds the module docstring describes."""
    if requester in candidates:
        raise ValueError("a peer cannot evaluate trust of itself")
    req = world.peers[requester]
    now = world.round
    known = req.trust_table.keys()
    holders = _walk_recommenders(world, requester, candidates) if known else {}
    receivers = world.receivers
    views = req.views
    comps: Dict[int, TrustComponents] = {}
    exact: Dict[int, float] = {}  # trust of the candidates worked out so far

    def trust(pid: int) -> float:
        t = exact.get(pid)
        if t is None:
            d, _, a, t = comps[pid]
            ind = _sum_reports(world, holders, (pid,)).get(pid)
            exact[pid] = t = t if ind is None else combine_trust(d, ind, a)
        return t

    threshold, detections = DETECTION_THRESHOLD, world.detections
    keys: List[Tuple[float, int]] = []  # (-upper bound, provider)
    for pid in candidates:
        d, _, a, t = comps[pid] = views.get(pid) or _read(req, pid, now)
        if pid in holders and not known.isdisjoint(receivers.get(pid, ())):
            # combine_trust(d, ind, a) at ind 0 and 1, up to a zero's sign
            lower, upper = a * d, a * d + (1.0 - a)
        else:  # no report can reach pid: its view is its trust
            lower = upper = exact[pid] = t
        if (pid not in detections and lower < threshold
                and (upper < threshold or trust(pid) < threshold)):
            detections[pid] = now
        keys.append((-upper, pid))
    keys.sort()
    top: List[Tuple[float, int]] = []  # the best k_max exact keys so far
    for key in keys:
        if len(top) == k_max and top[-1] < key:
            break  # every key to come, and so its exact key, is at least `key`
        insort(top, (-trust(key[1]), key[1]))
        del top[k_max:]
    return top


def select_providers(
    world: World, requester: int, candidates: Sequence[int]
) -> List[Tuple[int, float]]:
    """Rank candidates by trust, keep the requester's top k_providers, pass
    each through its double-threshold rule, drawing gray-zone probes from its
    own stream. During warmup rounds the rule is bypassed. Returns
    (provider, trust) pairs, best trust first (ties: lowest id). With fewer
    places than candidates, `_bounded_top` ranks them."""
    req = world.peers[requester]
    k_max = req.params.k_providers
    if k_max < len(candidates):
        ranked = _bounded_top(world, requester, candidates, k_max)
    else:
        threshold, detections = DETECTION_THRESHOLD, world.detections
        ranked = []  # (-trust, provider)
        for pid, comp in zip(candidates, score_candidates(world, requester, candidates)):
            t = comp.combined
            if t < threshold and pid not in detections:
                detections[pid] = world.round
            ranked.append((-t, pid))
        ranked.sort()
    gating = world.round > world.warmup_rounds
    admitted: List[Tuple[int, float]] = []
    for neg_t, pid in ranked[:k_max]:
        t = -neg_t
        if gating:
            p = transaction_probability(t, req.params)
            if p <= 0.0:
                continue
            if p < 1.0 and req.rng.random() >= p:
                continue
        admitted.append((pid, t))
    return admitted


def run_round(world: World) -> None:
    """Advance the world by one round of requests, deliveries, and updates;
    in a warmup round each requester takes up to WARMUP_BUDGET chunks, or
    its own budget if that is larger. Every delivery goes through
    `World.write_entry`, so what the peers keep stays valid. A delivery
    update is worked out once per (state, quality) in the round's
    `RoundMemo`."""
    if world.missing:
        raise ValueError(f"candidates {sorted(world.missing)} were never added as peers")
    world.round += 1
    r = world.round
    in_warmup = r <= world.warmup_rounds
    ads = world.ads_per_round
    for rid in world.requesters:
        req = world.peers[rid]
        if ads is not None and ads < len(req.candidates):
            advertising = sorted(world.ads_rng.sample(req.candidates, ads))
        else:
            advertising = req.candidates
        budget = max(req.budget, WARMUP_BUDGET) if in_warmup else req.budget
        admitted = select_providers(world, rid, advertising)
        memo = req.memo
        if memo.now != r:
            memo.start(r)
        delivered = memo.deliveries
        for pid, trust_at_selection in admitted[:budget]:
            provider = world.peers[pid]
            idx = req.delivery_index.get(pid, 0)
            quality = upload_quality(provider.behavior, pid, r, idx)
            if provider.loss_rate and provider.rng.random() < provider.loss_rate:
                quality = ChunkQuality.POLLUTED  # the requester cannot tell loss from malice
            req.delivery_index[pid] = idx + 1
            key = (req.trust_table.get(pid, EMPTY_STATE), quality)
            state = delivered.get(key)
            if state is None:
                state = delivered[key] = record_delivery(*key, r, req.params)
            world.write_entry(rid, pid, state)
            world.event_log.append(
                _new_tuple(TransactionOutcome, (r, rid, pid, quality, trust_at_selection))
            )
