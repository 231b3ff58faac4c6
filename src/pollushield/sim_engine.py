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
from anyone, one ranked walk serves the batch: the peers in its table that
received from some subject are sorted once by credibility, ties by lowest
id, and each adds its report to every subject it received from, until the
subject holds k_recommenders reports. Each subject thus sums its own top k
in rank order, as a per-subject ranking would; a subject the walk gave no
report takes cold-start trust as its indirect value. `select_providers`
calls the kernel once per requester and `run_scenario` once per observer
and round.

The one clock is `world.round`, which `run_round` advances before it
selects. Tables change only at delivery, where `record_delivery` decays the
entry from its last delivery to the round and counts the chunk. Evaluating
trust reads each entry decayed the same way with `decayed_counts` and
stores nothing in the tables, so a run does not depend on how often trust
is read. A `TrustMemo` spares the repeated work for a whole run:
`run_scenario` makes one and passes it to every round and observation
batch, and every reader first brings the memo's clock to `world.round`. It
drops an entry only when one of its inputs changes: at a delivery to the
entry's owner from its subject, and at a new round if the entry's value
moves with the round (see `TrustMemo`).
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import DefaultDict, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

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
    indirect_trust,
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


class PeerRecord:
    """One peer: strategy, parameters, and its private trust table."""

    __slots__ = (
        "behavior",
        "params",
        "rng",
        "budget",
        "candidates",
        "trust_table",
        "delivery_index",
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
    """What trust reads have worked out, kept for a whole run.

    `direct[a][b]` is a's (direct trust, confidence weight) of b: one fill
    path, `read`, serves recommender credibility, recommenders' honest
    values and a batch's scorings of its own table entries. `reports[k][s]`
    is what recommender k reports about subject s. Both are keyed by the
    peer whose view they hold, so the ranked walk reads one report dict per
    recommender. An entry is dropped only when one of its inputs changes:
    - A delivery to a from b changes a's entry for b; `delivered` drops a's
      direct trust of b and a's report about b together.
    - A new round changes an entry only if its value moves with the round:
      a direct entry whose counts `decays` (with the report built on it),
      and a report whose recommender `lies_about` the subject. Each is
      recorded when filled and dropped when `at` moves the clock.
    Every other entry equals a fresh read in any later round, so a fresh
    memo gives the same values as a carried one.
    """

    __slots__ = ("direct", "reports", "round", "_expiring")

    def __init__(self) -> None:
        self.direct: DefaultDict[int, Dict[int, Tuple[float, float]]] = defaultdict(dict)
        self.reports: DefaultDict[int, Dict[int, float]] = defaultdict(dict)
        self.round = 0
        self._expiring: List[Tuple[Dict, int]] = []  # (table, key) filled this round

    def at(self, now: int) -> None:
        """Bring the clock to round `now`, dropping every entry whose value
        moves with the round."""
        if now != self.round:
            self.round = now
            for table, key in self._expiring:
                table.pop(key, None)
            self._expiring.clear()

    def read(self, a: int, b: int, rec: PeerRecord) -> Tuple[float, float]:
        """a's (direct trust, confidence weight) of b at the memo's round;
        `rec` is a's record, whose table holds b."""
        views = self.direct[a]
        entry = views.get(b)
        if entry is None:
            st = rec.trust_table[b]
            params = rec.params
            nc, np_, n = decayed_counts(st, self.round, params)
            entry = views[b] = (direct_trust(nc, np_, params), confidence_factor(n, params))
            if decays(st, params):
                self._expiring += ((views, b), (self.reports[a], b))
        return entry

    def report(self, k: int, s: int, rec: PeerRecord, seed: int) -> float:
        """What recommender k, whose record is `rec`, reports about s at
        the memo's round."""
        reports = self.reports[k]
        honest = self.read(k, s, rec)[0]
        value = reports[s] = recommendation_value(rec.behavior, k, s, honest, seed, self.round)
        if rec.behavior.lies_about(s):
            self._expiring.append((reports, s))
        return value

    def delivered(self, rid: int, pid: int) -> None:
        """rid received from pid: drop rid's direct trust of pid and its report about pid."""
        self.direct[rid].pop(pid, None)
        self.reports[rid].pop(pid, None)


def _walk_recommenders(
    world: World, observer: int, subjects: Sequence[int], memo: TrustMemo
) -> Dict[int, List[Tuple[float, float]]]:
    """The ranked walk the module docstring describes: each subject's
    (credibility, report) pairs from its top k recommenders for `observer`,
    in rank order, or {} when no recommender received from any subject."""
    memo.at(world.round)
    obs = world.peers[observer]
    peers = world.peers
    credibility = memo.direct[observer]
    ranked: List[Tuple[float, int, Set[int]]] = []  # (-credibility, recommender, hits)
    for k in obs.trust_table:
        received = peers[k].trust_table.keys()
        if not received or received.isdisjoint(subjects):
            continue
        cred = (credibility.get(k) or memo.read(observer, k, obs))[0]
        ranked.append((-cred, k, received & subjects))
    if not ranked:
        return {}
    ranked.sort()  # ids are distinct, so the hit sets are never compared
    wanted: Dict[int, List[Tuple[float, float]]] = {subject: [] for subject in subjects}
    k_max = obs.params.k_recommenders
    for neg_cred, k, hits in ranked:
        cred = -neg_cred
        reports = memo.reports[k]
        for subject in hits:
            taken = wanted[subject]
            if len(taken) == k_max:
                continue
            value = reports.get(subject)
            if value is None:
                value = memo.report(k, subject, peers[k], world.seed)
            taken.append((cred, value))
    return wanted


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
    memo = memo or TrustMemo()
    memo.at(world.round)
    obs = world.peers[observer]
    params = obs.params
    table = obs.trust_table
    cold = params.cold_start_trust
    walks: Dict[int, List[Tuple[float, float]]] = {}
    if table:
        walks = _walk_recommenders(world, observer, subjects, memo)
    views = memo.direct[observer]
    # direct trust and confidence of a subject the observer never received from
    unknown: Optional[Tuple[float, float]] = None
    scored: List[TrustComponents] = []
    for subject in subjects:
        if subject == observer:
            raise ValueError("a peer cannot evaluate trust of itself")
        if subject in table:
            d, a = views.get(subject) or memo.read(observer, subject, obs)
        else:
            if unknown is None:
                unknown = (direct_trust(0.0, 0.0, params), confidence_factor(0.0, params))
            d, a = unknown
        taken = walks.get(subject)
        ind = indirect_trust(taken) if taken else None
        if ind is None:
            ind = cold
        scored.append(TrustComponents(d, ind, a, combine_trust(d, ind, a)))
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
    scored: List[Tuple[int, float]] = []
    for pid, comp in zip(candidates, score_candidates(world, requester, candidates, memo)):
        t = comp.combined
        if t < world.detection_threshold and pid not in world.detections:
            world.detections[pid] = world.round
        scored.append((pid, t))
    scored.sort(key=lambda pt: (-pt[1], pt[0]))
    gating = world.round > world.warmup_rounds
    admitted: List[Tuple[int, float]] = []
    for pid, t in scored[: req.params.k_providers]:
        if gating:
            p = transaction_probability(t, req.params)
            if p <= 0.0:
                continue
            if p < 1.0 and req.rng.random() >= p:
                continue
        admitted.append((pid, t))
    return admitted


def run_round(world: World, memo: Optional[TrustMemo] = None) -> TrustMemo:
    """Advance the world by one round of requests, deliveries, and updates,
    selecting through `memo` (a fresh one when none is passed). Returns the
    memo: every delivery dropped the entries it changed, so it stays valid."""
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
                TransactionOutcome(r, rid, pid, quality, trust_at_selection)
            )
    return memo
