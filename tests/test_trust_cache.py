"""The batch scoring kernel, and the values each peer keeps from its trust
reads, against an oracle that keeps nothing; and their work budget.

The oracle below is the pure definition: it scores one candidate at a time,
queries recommendations for every candidate, decays a view of each
co-observer and each recommender's view of the subject from scratch, stores
nothing, and decay always calls `exp`. It writes out the decay,
direct-trust, confidence, recommendation-aggregation and combination
formulas itself rather than calling `trust_core`'s, and counts a delivery
with its own decay. It lives here only, as the reference the `sim_engine`
path must match bit for bit; `indirect_trust` is the aggregation the sums
over the ranked holder lists (`sim_engine._sum_reports`) reproduce.
`reference_select_providers` is provider selection as the pure definition:
it scores every candidate, where `sim_engine.select_providers` sums the
reports of only the candidates whose trust bounds leave the detections or
the top k_providers in doubt.

A peer keeps the values its reads work out that hold for the rest of the
run on its own record (`PeerRecord.views` and `.reports`), so a second call
on the same world reads what the first kept. Peers holding equal params
share a `RoundMemo` of what the current round's reads and deliveries
worked out. `fresh_scores` scores with every record's kept values set aside
and a memo of its own: the reference a call on kept values must equal.
"""

import math
from pathlib import Path
from pollushield import replace
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pollushield import scenarios, sim_engine
from pollushield.behaviors import PeerBehavior, recommendation_value
from pollushield.metrics import emit_csv
from pollushield.scenarios import (
    Run, ScenarioConfig, build_experiment, config_digest, load_config, run_scenario, save_config,
)
from pollushield.sim_engine import (
    RoundMemo,
    TransactionOutcome,
    TrustComponents,
    World,
    run_round,
    score_candidates,
    select_providers,
)
from pollushield.trust_core import (
    EMPTY_STATE,
    CFModel,
    ChunkQuality,
    DTModel,
    TrustParams,
    TrustState,
    transaction_probability,
)


# --- oracle ------------------------------------------------------------------

def oracle_apply_decay(state, now, params):
    dt = now - state.last_update
    if dt < 0:
        raise ValueError("time regression")
    if dt == 0.0:
        return state
    keep_clean = math.exp(-params.forgetting * dt)
    keep_polluted = math.exp(-params.forgiving * dt)
    return TrustState(
        n_clean=state.n_clean * keep_clean,
        n_polluted=state.n_polluted * keep_polluted,
        n_transactions=state.n_transactions * keep_clean,
        last_update=now,
    )


def oracle_record_delivery(state, quality, now, params):
    s = oracle_apply_decay(state, now, params)
    if quality is ChunkQuality.CLEAN:
        s = s._replace(n_clean=s.n_clean + 1.0)
    else:
        s = s._replace(n_polluted=s.n_polluted + 1.0)
    return s._replace(n_transactions=s.n_transactions + 1.0, last_update=now)


def oracle_direct_trust(state, params):
    nc, np_ = state.n_clean, state.n_polluted
    if params.dt_model is DTModel.DTMA:
        return nc / (nc + np_) if nc + np_ else params.cold_start_trust
    if params.dt_model is DTModel.DTMB:
        return (nc + 1.0) / (nc + np_ + 2.0)
    return math.exp(-params.rho * np_) * nc / (nc + params.eta)


def oracle_confidence(state, params):
    n = state.n_transactions
    if params.cf_model is CFModel.CFDA:
        return n / (n + params.c)
    if params.cf_model is CFModel.CFDB:
        return 1.0 - params.beta ** n
    return params.cf_constant


def indirect_trust(recommendations) -> Optional[float]:
    """Credibility-weighted mean of (credibility, value) pairs, summed in
    the order given; None when the list is empty or carries no positive
    credibility, where the caller substitutes cold-start trust."""
    total = 0.0
    weighted = 0.0
    for cred, value in recommendations:
        total += cred
        weighted += cred * value
    if total == 0.0:
        return None
    return weighted / total


def oracle_query_indirect(world, observer, subject) -> Optional[float]:
    if observer == subject:
        raise ValueError("a peer cannot query indirect trust about itself")
    obs = world.peers[observer]
    now = world.round
    eligible: List[Tuple[float, int]] = []
    for k, rec in world.peers.items():
        if k == observer or k == subject or subject not in rec.trust_table:
            continue
        s = obs.trust_table.get(k)
        if s is None:
            continue
        s = oracle_apply_decay(s, now, obs.params)
        eligible.append((oracle_direct_trust(s, obs.params), k))
    if not eligible:
        return None
    eligible.sort(key=lambda ck: (-ck[0], ck[1]))
    recommendations: List[Tuple[float, float]] = []
    for cred, k in eligible[: obs.params.k_recommenders]:
        rec = world.peers[k]
        kst = oracle_apply_decay(rec.trust_table.get(subject, EMPTY_STATE), now, rec.params)
        honest = oracle_direct_trust(kst, rec.params)
        value = recommendation_value(rec.behavior, subject, honest)
        recommendations.append((cred, value))
    return indirect_trust(recommendations)


def oracle_evaluate_components(world, observer, subject):
    if observer == subject:
        raise ValueError("a peer cannot evaluate trust of itself")
    obs = world.peers[observer]
    s = obs.trust_table.get(subject)
    s = EMPTY_STATE if s is None else oracle_apply_decay(s, world.round, obs.params)
    d = oracle_direct_trust(s, obs.params)
    a = oracle_confidence(s, obs.params)
    ind = oracle_query_indirect(world, observer, subject)
    if ind is None:
        ind = obs.params.cold_start_trust
    return sim_engine.TrustComponents(d, ind, a, a * d + (1.0 - a) * ind)


def oracle_score_candidates(world, observer, subjects):
    return [oracle_evaluate_components(world, observer, s) for s in subjects]


def reference_select_providers(world, requester, candidates):
    """Provider selection scoring every candidate with `score_candidates` as
    `sim_engine` looks it up: flag each candidate below the detection
    threshold, in candidate order, then pass the best k_providers by
    (-trust, id) through the double threshold, drawing gray-zone probes
    from the requester's stream after warmup."""
    req = world.peers[requester]
    ranked = []
    for pid, comp in zip(candidates, sim_engine.score_candidates(world, requester, candidates)):
        t = comp.combined
        if t < sim_engine.DETECTION_THRESHOLD and pid not in world.detections:
            world.detections[pid] = world.round
        ranked.append((-t, pid))
    ranked.sort()
    admitted = []
    for neg_t, pid in ranked[: req.params.k_providers]:
        t = -neg_t
        p = transaction_probability(t, req.params) if world.round > world.warmup_rounds else 1.0
        if p <= 0.0 or (p < 1.0 and req.rng.random() >= p):
            continue
        admitted.append((pid, t))
    return admitted


def fresh_scores(world, observer, subjects):
    """The scores of the kernel as imported here, which no test patches,
    with every record's kept views and reports set aside for empty ones,
    and its round memo for a fresh one it shares with no other record, all
    put back after: so every value is worked out."""
    records = list(world.peers.values())
    kept = [(rec.views, rec.reports, rec.memo) for rec in records]
    try:
        for rec in records:
            rec.views, rec.reports, rec.memo = {}, {}, RoundMemo()
        return score_candidates(world, observer, subjects)
    finally:
        for rec, (views, reports, memo) in zip(records, kept):
            rec.views, rec.reports, rec.memo = views, reports, memo


def run_to_end(cfg):
    """The report and final world of a run through cfg.rounds."""
    run = Run(cfg).advance(cfg.rounds)
    return run.report(), run.world


def reports_from_strangers(world):
    """Kept reports whose recommender never received from the subject. The
    ranked walk reads a kept report before it tests the recommender's table,
    so this must be empty: a report is kept only from a table entry, and
    tables never lose entries."""
    return [(k, s) for k, rec in world.peers.items() for s in rec.reports
            if s not in rec.trust_table]


def run_with_oracle(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_engine, "record_delivery", oracle_record_delivery)
        mp.setattr(sim_engine, "select_providers", reference_select_providers)
        mp.setattr(sim_engine, "score_candidates", oracle_score_candidates)
        mp.setattr(scenarios, "score_candidates", oracle_score_candidates)
        return run_to_end(cfg)


def fingerprint(report, world):
    """Everything a run leaves behind, as exact reprs (floats round-trip)."""
    return {
        "event_log": repr(world.event_log),
        "tables": repr({pid: rec.trust_table for pid, rec in world.peers.items()}),
        "detections": repr(world.detections),
        "trajectories": repr(report.trajectories),
        "summary": repr(report.summary),
        "rng": [rec.rng.getstate() for rec in world.peers.values()],
        "ads_rng": world.ads_rng.getstate(),
    }


def differing_keys(got, want):
    """The keys whose values differ between two fingerprints, by name only:
    pytest's diff of two run-long reprs takes minutes."""
    assert got.keys() == want.keys()
    return [key for key in want if got[key] != want[key]]


# --- small worlds --------------------------------------------------------------

RATES = st.sampled_from([0.0, 0.0, 0.05, 0.4, 100.0])  # 100: counts underflow to 0


@st.composite
def small_worlds(draw):
    n = draw(st.integers(3, 8))
    ids = list(range(n))
    kinds = draw(st.lists(
        st.sampled_from(["honest", "persistent", "onoff", "badmouth", "collab"]),
        min_size=n, max_size=n))
    group = tuple(pid for pid in ids if kinds[pid] == "collab")
    rotating = draw(st.booleans())
    behaviors = []
    for pid, kind in enumerate(kinds):
        if kind == "honest":
            b = PeerBehavior.honest()
        elif kind == "persistent":
            b = PeerBehavior.persistent()
        elif kind == "onoff":
            b = PeerBehavior.onoff(draw(st.sampled_from([5, 2])))
        elif kind == "badmouth":
            others = [x for x in ids if x != pid]
            targets = tuple(draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
            b = PeerBehavior.badmouther(targets)
        elif rotating:
            b = PeerBehavior.collab_rotating(group)
        else:
            b = PeerBehavior.collab_static(group)
        behaviors.append(b)

    def params():
        theta_p = draw(st.sampled_from([0.0, 0.3, 0.5]))
        return TrustParams(
            cf_model=draw(st.sampled_from(list(CFModel))),
            cf_constant=draw(st.sampled_from([0.0, 0.3, 1.0])),
            dt_model=draw(st.sampled_from(list(DTModel))),
            forgetting=draw(RATES),
            forgiving=draw(RATES),
            theta_p=theta_p,
            theta_g=max(theta_p, draw(st.sampled_from([0.0, 0.6, 0.9]))),
            chi=draw(st.sampled_from([0.0, 0.5, 1.0])),
            k_providers=draw(st.integers(1, 4)),
            k_recommenders=draw(st.integers(1, 6)),
        )

    base = params()
    overridden = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
    if draw(st.booleans()):
        # a full mesh: every peer may receive from every other in a round, so
        # rankings hold up to n - 1 recommenders and a subject up to n - 2
        # reports, of distinct credibilities and values where uploads are lossy
        cand_map = tuple((rid, tuple(x for x in ids if x != rid), n - 1) for rid in ids)
    else:
        requesters = tuple(sorted(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))))
        cand_map = tuple(
            (rid, tuple(draw(st.lists(st.sampled_from([x for x in ids if x != rid]),
                                      min_size=1, unique=True))),
             draw(st.integers(1, 3)))
            for rid in requesters
        )
    rounds = draw(st.integers(2, 12))
    pairs = [(o, s) for o in ids for s in ids if o != s]
    return ScenarioConfig(
        name="fuzz",
        rounds=rounds,
        seed=draw(st.integers(0, 2 ** 32)),
        behavior_mix=tuple((b, 1) for b in behaviors),
        params=base,
        param_overrides=tuple((pid, params()) for pid in overridden),
        loss_rate_range=draw(st.sampled_from([(0.0, 0.0), (0.0, 0.3), (0.2, 0.2)])),
        observed_pairs=tuple(draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))),
        candidate_map=cand_map,
        warmup_rounds=draw(st.integers(0, rounds - 1)),
        measure_from=draw(st.integers(0, rounds - 1)),
        ads_per_round=draw(st.one_of(st.none(), st.integers(1, 3))),
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_worlds())
def test_memoised_path_matches_oracle(cfg):
    got = fingerprint(*run_to_end(cfg))
    want = fingerprint(*run_with_oracle(cfg))
    assert differing_keys(got, want) == []


@pytest.mark.parametrize("exp, overrides", [
    ("e5", {}),
    ("e4", {"mode": "rotating", "group_size": 12, "rounds": 40}),
    ("e1", {}),
], ids=["exceeds_k", "fits_k", "holds_k"])
def test_newcomer_reads_match_oracle(exp, overrides):
    """Whole runs on both sides of the walk's cut, at seed 1:
    - e5, where the peers keep most: the requesters' views of persistent
      polluters hold polluted chunks alone, which forgiving fades while
      PDTM direct trust stays 0.0, so those entries and every report built
      on them are kept. Its newcomer's ranking exceeds k, so the cut
      fires;
    - e4 rotating, group 12: every ranking fits within k, so the walk
      sums each subject's reports uncounted;
    - e1: every ranking holds exactly k recommenders, the largest ranking
      the cut cannot reach."""
    cfg = build_experiment(exp, seed=1, **overrides)
    got = fingerprint(*run_to_end(cfg))
    want = fingerprint(*run_with_oracle(cfg))
    assert differing_keys(got, want) == []


def with_k_providers(cfg, k):
    """cfg with every params record's k_providers set to k."""
    return replace(cfg, params=replace(cfg.params, k_providers=k),
                   param_overrides=tuple((pid, replace(p, k_providers=k))
                                         for pid, p in cfg.param_overrides))


def run_with_reference_selection(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_engine, "select_providers", reference_select_providers)
        return run_to_end(cfg)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("exp", ["e1", "e2", "e3", "e4", "e5", "e6"])
def test_bounded_selection_matches_scoring_every_candidate(monkeypatch, exp, seed):
    """e1-e6 with k_providers 2, below every candidate count but e1's
    single-candidate requesters' (e5 advertises 6 a round): selection that
    sums only the reports its trust bounds leave in doubt leaves the run
    that scoring every candidate leaves, detections and probe draws
    included."""
    cfg = with_k_providers(build_experiment(exp, seed=seed), 2)
    want = fingerprint(*run_with_reference_selection(cfg))
    calls = count_calls(monkeypatch, ("_bounded_top",))
    report, world = run_to_end(cfg)
    assert calls["_bounded_top"]
    assert differing_keys(fingerprint(report, world), want) == []
    assert world.receivers == receivers_of(world)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_worlds())
def test_bounded_selection_matches_scoring_every_candidate_in_small_worlds(cfg):
    report, world = run_to_end(cfg)
    want = fingerprint(*run_with_reference_selection(cfg))
    assert differing_keys(fingerprint(report, world), want) == []
    assert world.receivers == receivers_of(world)


def receivers_of(world):
    """The inversion of every peer's trust table: each subject some table
    holds, mapped to the peers whose tables hold it. `World.receivers`
    must equal it, or a bounded selection misses reports."""
    inverted = {}
    for pid, rec in world.peers.items():
        for subject in rec.trust_table:
            inverted.setdefault(subject, set()).add(pid)
    return inverted


def test_bounded_selection_sums_only_candidates_in_reach(monkeypatch):
    """e4 rotating, group 12: each member takes its top 1 of 11, so its
    selections are bounded. Every sum one asks for is of a candidate that
    some peer in the requester's table has received from, found from the
    tables themselves; any other candidate's view is its trust."""
    bounded, sum_reports = sim_engine._bounded_top, sim_engine._sum_reports
    selecting = []  # (world, requester) of the bounded selection under way
    in_reach = []

    def top(world, requester, candidates, k_max):
        selecting.append((world, requester))
        try:
            return bounded(world, requester, candidates, k_max)
        finally:
            selecting.pop()

    def sums(world, holders, subjects):
        if selecting:
            known = world.peers[selecting[-1][1]].trust_table
            in_reach.extend(any(s in world.peers[k].trust_table for k in known)
                            for s in subjects)
        return sum_reports(world, holders, subjects)

    monkeypatch.setattr(sim_engine, "_bounded_top", top)
    monkeypatch.setattr(sim_engine, "_sum_reports", sums)
    run_to_end(build_experiment("e4", mode="rotating", group_size=12, rounds=40, seed=1))
    assert in_reach and all(in_reach)


def test_bounded_selection_rejects_the_requester_as_candidate():
    world = World(seed=1)
    for pid in range(3):
        world.add_peer(pid, PeerBehavior.honest(), TrustParams(k_providers=1))
    with pytest.raises(ValueError, match="a peer cannot evaluate trust of itself"):
        select_providers(world, 0, (1, 0, 2))


# --- work budget -------------------------------------------------------------

def count_calls(monkeypatch, names):
    """Count calls of these names where `sim_engine` and `scenarios` look
    them up. `scored` sums the batch sizes of `score_candidates`. The
    ranking (`_walk_recommenders`) and the sums (`_sum_reports`) are counted
    from the trust tables they read. `counted` counts the rankings (the
    observer's peers that received from some subject) that hold more than
    k_recommenders, which find each subject's recommenders by holder lists;
    over those, `pairs` counts (ranked peer, distinct subject) pairs and
    `holders` the pairs whose peer received from the subject. Over the
    subjects summed, for the observer of the ranking before: `walked`
    counts those with at least one recommender (a peer in the observer's
    table that received from the subject), `used` min(k_recommenders,
    recommenders) for each such subject, whose largest count is
    `most_used`, and `valued` the subjects the sums give an indirect
    value. These count peers of credibility 0 too, which no ranking holds,
    so `used` bounds the reports summed from above."""
    calls = dict.fromkeys(names + ("scored", "walked", "used", "most_used", "valued",
                                   "counted", "pairs", "holders"), 0)
    ranking = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "score_candidates":
                calls["scored"] += len(args[2])
            elif name == "_walk_recommenders":
                world, observer, subjects = args[:3]
                obs = ranking["observer"] = world.peers[observer]
                distinct = dict.fromkeys(subjects)
                tables = [world.peers[k].trust_table for k in obs.trust_table]
                tables = [t for t in tables if not t.keys().isdisjoint(distinct)]
                if len(tables) > obs.params.k_recommenders:
                    calls["counted"] += 1
                    calls["pairs"] += len(tables) * len(distinct)
                    calls["holders"] += sum(s in t for t in tables for s in distinct)
            elif name == "_sum_reports":
                world, _, subjects = args[:3]
                obs = ranking["observer"]
                for subject in subjects:
                    found = sum(subject in world.peers[k].trust_table for k in obs.trust_table)
                    used = min(obs.params.k_recommenders, found)
                    calls["walked"] += used > 0
                    calls["used"] += used
                    calls["most_used"] = max(calls["most_used"], used)
                calls["valued"] += len(result)
            return result
        return wrapper

    for name in names:
        for module in (sim_engine, scenarios):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


WALK = ("_walk_recommenders", "_sum_reports")


def test_dense_collusion_work_counts(monkeypatch):
    """e4 rotating, group 24, 40 rounds: each of the 24 members takes its
    top 1 of 23 candidates, so its selections are bounded (`_bounded_top`)
    and sum the reports of only the candidates whose trust bounds leave a
    detection or the top place in doubt. The kept views and reports cut the
    decay, scoring and recommendation work, and serve every repeated report.

    The victim takes all 24 of its candidates, so its 40 selections and the
    40 observation batches score every subject with `score_candidates`.
    Every batch but round 1's 25 selections ranks the requester's
    recommenders: 975 selection rankings and the 40 observations. No
    ranking exceeds `k_recommenders`, the group size, so none builds holder
    lists, and a subject sums every recommender it has, at most the 23
    members other than it.
    The sums skipped are the saving. `used` counts the recommenders in
    reach of each subject summed: 36 506, where summing every candidate
    counted 313 651, 297 275 of them in the members' selections. The
    victim's 39 ranked selections reach 15 456 over 683 subjects and the
    observations 920 over 40, as before. A bounded selection sums a
    candidate only when some peer in the requester's table has received
    from it (`World.receivers`) and the ranking holds a peer of positive
    credibility; any other candidate's view is its trust. Of the members'
    22 080 candidate checks, 15 159 find the candidate detected already.
    5 910 find a lower bound at or above the detection threshold: 574 as
    before, and 5 336 that no peer in the requester's table received from
    (5 105 that the receiver index rules out, 231 whose requester ranks no
    peer), whose straddling bounds were summed before to find no report.
    20 find an upper bound below it: 1 as before, and 19 whose
    recommenders all have credibility 0, so their requester ranks no
    peer. The other 991
    straddle it and are summed, each with a recommender. Finding the top 1
    in upper-bound order sums 638 more, each with a recommender (894 when
    a candidate out of reach had upper bound 1 and came first). So 1 708
    sums (991 + 638 + 39 + 40; 7 319 before) reach 2 352 subjects with a
    recommender (2 627 before), and give 2 328 of them an indirect value,
    as before. The other 24 hear only from recommenders of credibility 0,
    which no ranking holds, so they keep cold start. The sums read 30 071
    holders that received from the subject, all of positive credibility;
    the 10 483 of credibility 0 they also read before added nothing.
    Both decay rates are 0 and no one lies, so the peers keep every view
    they work out: a view is worked out when first read and again after each
    delivery that dropped it. `_read` counts the view fills: 576 reads of a
    subject never received from, one per (observer, subject) pair it scores
    before its first delivery from that subject (the victim's 24 and each
    member's 23 others, 24 + 24 x 23), which read the empty state, then 576
    first reads of a table entry and 1 341 refills: after each of the
    victim's 936 deliveries after round 1, which drop an entry its
    observation reads again, and after 405 of the members' 408 repeat
    deliveries (552 of their 960 are first deliveries, which drop nothing);
    summing every candidate read 2 more again.
    A fill is worked out once per (params value, state, round), in the
    round memo the peers holding that value share, and a delivery update
    once per (params value, state, quality, round). The 24 members hold
    one params value and fill their entries of one another alike, so in a
    round their reads and deliveries meet few distinct states:
    `decayed_counts` runs for 287 of the 2 493 fills, two of them the empty
    state in round 1, and `record_delivery` for 275 of the 1 920
    deliveries. Summing every candidate in reach of a ranking,
    `decayed_counts` ran for 286 fills, and summing every candidate for
    265 of 2 495: a fill that a skipped sum puts off to a later round
    meets fewer peers filling the same state there. Before the round memo
    both ran once per fill and delivery.
    `direct_trust` runs once per worked-out fill. A record that built its
    never-received-from components at construction took one more
    evaluation per peer (288); built once per batch holding such a
    subject, those components took 553 evaluations.
    `recommendation_value` runs once per member's report about another
    member (552) and once per report dropped by a repeat delivery and asked
    again (405; 407 summing every candidate). A memo kept for one round
    made 34 412, 34 965 and 16 124 calls."""
    calls = count_calls(monkeypatch, WALK + ("recommendation_value", "score_candidates",
                                             "_bounded_top", "direct_trust", "decayed_counts",
                                             "_read", "record_delivery"))
    run_scenario(build_experiment("e4", mode="rotating", group_size=24, rounds=40, seed=1))
    assert calls["_bounded_top"] == 960        # 24 members x 40 rounds
    assert calls["score_candidates"] == 80     # the victim's 40 selections + 40 observations
    assert calls["scored"] == 1_000            # 24 candidates x 40 + 40 observed pairs
    assert calls["_walk_recommenders"] == 1_015  # 975 selection rankings + 40 observations
    assert calls["_sum_reports"] == 1_708      # 991 detections + 638 top 1 + 39 + 40
    assert calls["used"] == 36_506             # 313 651 summing every candidate
    assert calls["walked"] == 2_352            # 1 629 members' + 683 victim's + 40 observed
    assert calls["valued"] == 2_328            # 24 hear only from credibility 0
    assert calls["most_used"] == 23            # no cut: every other member
    assert calls["counted"] == 0               # no ranking exceeds k
    assert calls["recommendation_value"] == 957  # 552 first reports + 405 after a delivery
    assert calls["_read"] == 2_493             # 576 never received + 576 first + 1 341 after
    assert calls["decayed_counts"] == 287      # distinct (params, state, round) of the fills
    assert calls["direct_trust"] == 287        # the worked-out fills
    assert calls["record_delivery"] == 275     # distinct (params, state, quality, round)


def test_sparse_mesh_work_counts(monkeypatch):
    """e6 seed 1: every batch but round 1's 150, when no requester has
    received yet, walks the requester's recommenders (8 250 of the 8 400).
    Of the 84 000 scorings, 51 658 are of a subject that some peer has
    received from, and only 1 419 of those of a subject that a peer the
    requester has received from has itself received from; only those get
    reports, in 1 369 walks, while the other 6 881 walks find no
    recommender: 1 375 subjects one report and 44 two, 1 463 reports. Each
    of the 1 419 subjects gets an indirect value. No ranking exceeds k, so
    no walk builds holder lists. The kept reports serve 817
    of the reports. `recommendation_value` runs for the 26
    (recommender, subject) pairs first asked about, again for 367 kept
    reports that a delivery from the subject to the recommender dropped,
    and for 253 that are never kept because the recommender's view of
    the subject holds clean and polluted chunks, so the forgiving rate
    (0.03) moves its direct trust every round (646). A view with polluted
    chunks alone has PDTM direct trust 0.0 in every round, so its report is
    kept; a memo that kept only entries whose counts do not decay made 911.
    `_read` counts the view fills: 1 500 reads of a candidate never
    received from, one per (requester, candidate) pair (150 x 10), which
    read the empty state, 666 first reads of a table entry, 14 657 after a
    delivery dropped a kept entry, and 8 606 reads of an entry whose direct
    trust moves with time (25 429; 23 929 when a never-received subject
    took components its record built, and before that 27 896 when entries
    were kept only while their counts held). Every peer holds the one
    params value, so they share one round memo, and a fill is worked out
    once per (state, round): `decayed_counts` runs 3 895 times, once for
    the empty state in round 1 (23 929 before the round memo).
    Likewise a delivery update is worked out once per (state, quality,
    round): `record_delivery` runs 917 times for the 15 600 deliveries, 29
    of them first deliveries, of an empty entry.
    `combine_trust` runs once per worked-out fill, since a view is the
    finished score of a subject with no report, and once per subject whose
    reports give an indirect value (1 419): 5 314 (25 848 with a fill per
    read). Building each peer's never-received-from components with its
    record added 500 calls, building them once per batch (every one of the
    8 400 batches holds such a subject) 8 400, and combining at every
    scoring made 84 000."""
    calls = count_calls(monkeypatch, WALK + ("recommendation_value", "score_candidates",
                                             "decayed_counts", "combine_trust", "_read",
                                             "record_delivery"))
    run_scenario(build_experiment("e6", seed=1))
    assert calls["score_candidates"] == 8_400  # 150 requesters x 56 rounds
    assert calls["scored"] == 84_000
    assert calls["_walk_recommenders"] == 8_250  # 1 369 with a report + 6 881 without
    assert calls["walked"] == calls["valued"] == 1_419
    assert calls["used"] == 1_463
    assert calls["most_used"] == 2
    assert calls["counted"] == 0               # no ranking exceeds k
    assert calls["recommendation_value"] == 646  # 26 first + 367 after a delivery + 253 moving
    assert calls["_read"] == 25_429            # 1 500 never received + 666 first + 14 657 + 8 606
    assert calls["decayed_counts"] == 3_895    # distinct (state, round) of the fills
    assert calls["combine_trust"] == 5_314     # 3 895 fills + 1 419 reports
    assert calls["record_delivery"] == 917     # distinct (state, quality, round)


def test_newcomer_reads_work_counts(monkeypatch):
    """e5 seed 1: the newcomer observes the 100 providers in one batch per
    round. Every selection after round 1 walks (1 519 of the 1 550) and
    finds no recommender: a requester's table holds only providers, which
    receive from no one, and the newcomer's candidates, the requesters,
    have received from no one but providers. The 50 observation walks give
    reports to the 4 711 (round, provider) pairs that some requester the
    newcomer received from has itself received from. `k_recommenders` (10)
    cuts 87 of those subjects' lists, by 191 reports in all. The walks give
    4 703 of those pairs an indirect value; the other 8 hear only from
    requesters of credibility 0 and keep cold start.
    The 49 observation walks whose ranking exceeds k are the only walks of
    e1-e6 at seed 1 that build holder lists: their rankings and subjects
    make 139 100 (requester, provider) pairs, of which 24 630 are holders.
    The other 82% are misses, which one set intersection per requester
    skips rather than testing each pair.
    Nothing but these walks asks the requesters about providers, so every
    report not kept is worked out in an observation: 599 the first
    time a (requester, provider) pair is asked about, 2 389 after the
    requester received from the provider again, which dropped a kept
    report, and 3 096 that are never kept because the requester's
    view holds clean and polluted chunks, so the forgiving rate (0.15)
    moves its direct trust every round. A view with polluted chunks alone
    has PDTM direct trust 0.0 in every round, so its report is kept; a
    memo that kept only entries whose counts do not decay made 10 915
    calls. The rankings hold no requester of credibility 0, whose report
    adds nothing to the sums: asking those too made 6 098 calls (2 400
    after a delivery and 3 099 never kept), 23 of them for such a
    requester, 9 of which kept a report a later ranked requester read.
    The kept reports serve the other 18 314 of the 24 398 summed (18 359
    of 24 457 with those of credibility 0, which `used` still counts).
    `_read` counts the view fills, in selections and observations: 730
    reads of a subject never received from, which read the empty state
    (each requester's 20 candidates, and the newcomer's 100 providers and
    30 candidates: 30 x 20 + 130), 629 first reads of a table entry, 2 681
    after a delivery dropped a kept entry, and 4 338 reads of an entry
    whose direct trust moves with time (8 378; 4 341 and 8 381 asking
    requesters of credibility 0 too). Most
    fills (6 035; 6 054 before) are the honest values of the reports
    above; the rest are
    the requesters' scorings of their providers and the newcomer's
    credibility of the requesters. A memo that kept only entries whose
    counts do not decay made 13 918 fills, 10 611 of them decaying reads,
    and one that also kept a decaying entry until the round moved made
    11 859.
    A fill is worked out once per (params value, state, round), in the
    round memo shared by the peers holding that value: the requesters
    share one, and the newcomer has its own. So `decayed_counts` runs
    4 024 times (3 627 for the requesters, 397 for the newcomer; 3 624
    asking requesters of credibility 0 too), 30 of
    them for the empty state: in 19 rounds for the requesters' memo and 11
    for the newcomer's, each a round in which some peer first scores a
    subject it never received from.
    Likewise `record_delivery` runs once per (params value, state,
    quality, round): 2 274 times for the 3 632 deliveries.
    `direct_trust` runs once per worked-out fill. A record that built its
    never-received-from components at construction took one more
    evaluation per peer (131); built once per batch holding such a
    subject, 637 selections and the 50 observation batches, those
    components took 687."""
    calls = count_calls(monkeypatch, WALK + ("recommendation_value", "score_candidates",
                                             "direct_trust", "decayed_counts", "_read",
                                             "record_delivery"))
    run_scenario(build_experiment("e5", seed=1))
    assert calls["score_candidates"] == 1_600  # 31 requesters x 50 rounds + 50 observations
    assert calls["scored"] == 14_300           # 6 advertised x 1 550 + 100 x 50 observed
    assert calls["_walk_recommenders"] == 1_569  # 1 519 selections + 50 observations
    assert calls["walked"] == 4_711
    assert calls["valued"] == 4_703           # 8 hear only from credibility 0
    assert calls["used"] == 24_457
    assert calls["most_used"] == 10
    assert calls["counted"] == 49              # 49 of the 50 observation walks
    assert calls["pairs"] == 139_100
    assert calls["holders"] == 24_630
    assert calls["recommendation_value"] == 6_084  # 599 first + 2 389 + 3 096 moving
    assert calls["_read"] == 8_378             # 730 never received + 629 first + 2 681 + 4 338
    assert calls["decayed_counts"] == 4_024    # distinct (params, state, round) of the fills
    assert calls["direct_trust"] == 4_024      # the worked-out fills
    assert calls["record_delivery"] == 2_274   # distinct (params, state, quality, round)


def test_badmouthing_work_counts(monkeypatch):
    """e1 seed 1: eight bad-mouthers slander the subject. A lie does not
    move with the round, so the liars keep their reports like any other
    peer. Each of the 10 recommenders
    receives from the subject in every round, which drops its report;
    observer 0's observation then asks all 10 again, and observer 1's
    observation and the next round's selections read the kept ones. Round 1's
    observation asks the 10 first: 10 + 49 x 10 = 500. A memo that dropped
    the liars' reports at each new round asked the 8 again in each later
    round's first selection, 892 calls."""
    calls = count_calls(monkeypatch, ("recommendation_value",))
    run_scenario(build_experiment("e1", seed=1))
    assert calls["recommendation_value"] == 500


@pytest.mark.parametrize("exp, overrides", [
    ("e1", {}),
    ("e4", {"mode": "rotating", "group_size": 12, "rounds": 40}),
    ("e5", {}),
])
def test_records_built_without_the_constructor_are_whole(monkeypatch, exp, overrides):
    """`record_delivery`, `run_round` and `_components` build their records
    with `tuple.__new__`, which skips a NamedTuple's check of its field
    count: every trust-table entry, event, kept view and scoring of a run
    is exactly its record type, with every field."""
    scored = []

    def keeping(*args, **kwargs):
        result = score_candidates(*args, **kwargs)
        scored.extend(result)
        return result

    monkeypatch.setattr(sim_engine, "score_candidates", keeping)
    monkeypatch.setattr(scenarios, "score_candidates", keeping)
    _, world = run_to_end(build_experiment(exp, seed=1, **overrides))
    peers = world.peers.values()
    states = [st for rec in peers for st in rec.trust_table.values()]
    components = [c for rec in peers for c in rec.views.values()]
    components += scored
    assert states and world.event_log and scored
    assert {(type(r), len(r)) for r in states} == {(TrustState, 4)}
    assert {(type(r), len(r)) for r in world.event_log} == {(TransactionOutcome, 5)}
    assert {(type(r), len(r)) for r in components} == {(TrustComponents, 4)}


def test_never_received_from_components_use_the_scorers_params():
    """e1: observer 1 weighs direct trust by a constant 0.5, observer 0 by
    CFDA, and neither ever receives from the other. Each scores the other
    from the empty state, read with its own params: alpha 0.5 for peer 1,
    and 0.0 for peer 0, whose CFDA weight of no transaction is 0."""
    run = Run(build_experiment("e1", seed=1)).advance(3)
    world = run.world
    for observer, stranger, alpha in ((0, 1, 0.0), (1, 0, 0.5)):
        rec = world.peers[observer]
        assert stranger not in rec.trust_table
        comp = score_candidates(world, observer, (2, stranger))[1]
        assert comp == sim_engine._components(0.0, 0.0, 0.0, rec.params)
        assert comp.alpha == alpha


@pytest.mark.parametrize("exp, overrides, any_kept", [
    ("e1", {}, False),
    ("e4", {"mode": "rotating", "group_size": 12, "rounds": 40}, True),
    ("e5", {}, True),
    ("e6", {}, True),
])
def test_kept_views_of_strangers_are_the_empty_state(exp, overrides, any_kept):
    """After every round, each view a peer keeps of a subject it never
    received from is, bit for bit, the components of the empty state under
    its own params. e1 keeps none at a round's end: every subject its
    peers score delivers to them in round 1."""
    cfg = build_experiment(exp, seed=1, **overrides)
    run = Run(cfg)
    kept = 0
    for _ in range(cfg.rounds):
        run.advance(1)
        for rec in run.world.peers.values():
            empty = repr(sim_engine._components(0.0, 0.0, 0.0, rec.params))
            views = [v for b, v in rec.views.items() if b not in rec.trust_table]
            assert [repr(v) for v in views] == [empty] * len(views)
            kept += len(views)
    assert bool(kept) == any_kept


def test_first_delivery_replaces_a_strangers_kept_view():
    """Peer 0 scores 1 before receiving from it and keeps the empty state's
    components. Its first delivery from 1 drops that view, so its next
    score is worked out from the new table entry, as from scratch."""
    params = TrustParams()
    world = World(seed=1, warmup_rounds=1)  # round 1 admits without the thresholds
    world.add_peer(0, PeerBehavior.honest(), params, candidates=(1,))
    world.add_peer(1, PeerBehavior.honest(), params)
    empty = score_candidates(world, 0, (1,))
    assert world.peers[0].views[1] == empty[0] == sim_engine._components(0.0, 0.0, 0.0, params)
    run_round(world)
    assert world.peers[0].trust_table[1].n_clean == 1.0
    world.round = 2
    got = score_candidates(world, 0, (1,))
    assert got == fresh_scores(world, 0, (1,)) == oracle_score_candidates(world, 0, (1,))
    assert got != empty


def test_configs_equal_up_to_a_zero_sign_are_one_config(tmp_path):
    """e2 with the CONSTANT confidence factor at weight 0.0, and twins whose
    peer-1 override is `cf_constant=0.0` in one and `-0.0` in the other. A
    record stores -0.0 as 0.0, so the twins are equal with one digest, every
    peer of each run shares the one `RoundMemo` of their equal params, and
    the runs write the same bytes: a -0.0 weight would print `-0.000000` in
    each of peer 1's trajectory rows."""
    cfg = build_experiment("e2", seed=1)
    base = replace(cfg.params, cf_model=CFModel.CONSTANT, cf_constant=0.0)
    twins = [replace(cfg, params=base, param_overrides=((1, replace(base, cf_constant=zero)),))
             for zero in (0.0, -0.0)]
    assert twins[0] == twins[1]
    assert math.copysign(1.0, twins[1].param_overrides[0][1].cf_constant) == 1.0
    assert config_digest(twins[0]) == config_digest(twins[1])
    outputs = []
    for i, twin in enumerate(twins):
        run = Run(twin).advance(twin.rounds)
        assert len({id(rec.memo) for rec in run.world.peers.values()}) == 1
        outputs.append([Path(path).read_bytes()
                        for path in emit_csv(run.report(), str(tmp_path / str(i)))])
    assert outputs[0] == outputs[1]


def test_saved_config_shares_round_memos_like_the_built_one(tmp_path):
    """e4's rotating group of 24: the builder gives its 24 override entries
    one params object, and the other peers the config's, so its run holds 2
    round memos. The same config saved and loaded holds a fresh params
    object per entry, each equal to the builder's, so its run holds the same
    2 memos, not one per entry and one more (25), and the same event log."""
    cfg = build_experiment("e4", mode="rotating", group_size=24, rounds=40)
    save_config(cfg, str(tmp_path / "e4.cfg"))
    loaded = load_config(str(tmp_path / "e4.cfg"))
    assert loaded == cfg
    built, reloaded = Run(cfg).advance(cfg.rounds), Run(loaded).advance(loaded.rounds)
    assert len(built.world.memos) == len(reloaded.world.memos) == 2
    assert reloaded.world.event_log == built.world.event_log


def test_round_memo_starts_empty_in_another_round():
    """An entry whose direct trust decays, scored in round 5 and again in
    round 8 with its table unchanged: the second score is the oracle's at
    round 8, not what the memo worked out in round 5."""
    params = TrustParams(forgetting=0.1, forgiving=0.05)
    world = World(seed=1)
    for pid in (0, 1):
        world.add_peer(pid, PeerBehavior.honest(), params)
    world.write_entry(0, 1, TrustState(3.0, 1.0, 4.0, 2))
    world.round = 5
    first = score_candidates(world, 0, (1,))
    assert first == oracle_score_candidates(world, 0, (1,))
    world.round = 8
    got = score_candidates(world, 0, (1,))
    assert got == oracle_score_candidates(world, 0, (1,))
    assert got != first


@pytest.mark.parametrize("n_recommenders", [3, 8])  # within and beyond k_recommenders = 5
def test_zero_reports_sum_to_the_oracles_positive_zero(n_recommenders):
    """Every ranked recommender reports 0.0 about subject 1 with positive
    credibility: the honest ones received only polluted chunks from it, the
    bad-mouthers slander it for certain. The walk sums negated credibilities
    with `-=`, so its indirect value must be the oracle's `indirect_trust`
    bit for bit: +0.0, not -0.0."""
    params = TrustParams()
    world = World(seed=1)
    world.add_peer(0, PeerBehavior.honest(), params)
    world.add_peer(1, PeerBehavior.honest(), params)
    recommenders = range(2, 2 + n_recommenders)
    liar = PeerBehavior.badmouther((1,))
    for k in recommenders:
        if k % 2:
            world.add_peer(k, liar, params)
            world.write_entry(k, 1, TrustState(3.0, 0.0, 3.0, 0))
        else:
            world.add_peer(k, PeerBehavior.honest(), params)
            world.write_entry(k, 1, TrustState(0.0, 3.0, 3.0, 0))
        world.write_entry(0, k, TrustState(float(k), 1.0, k + 1.0, 0))
    world.round = 1
    want = oracle_query_indirect(world, 0, 1)
    got = score_candidates(world, 0, (1,))[0].indirect
    assert got == want == 0.0
    assert math.copysign(1.0, got) == math.copysign(1.0, want) == 1.0


@pytest.mark.parametrize("exp, overrides", [
    ("e4", {"mode": "rotating", "group_size": 24, "rounds": 40}),
    ("e5", {}),
])
def test_rankings_hold_no_recommender_of_credibility_0(monkeypatch, exp, overrides):
    """A recommender the observer holds at credibility 0 adds nothing to
    the sums, so no ranking holds one. Both runs have such recommenders
    in reach of a subject, by the oracle's credibility: the colluders of
    e4 pollute in turn, and e5's requesters receive polluted chunks."""
    walk = sim_engine._walk_recommenders
    ranked, left_out = [], []

    def spy(world, observer, subjects):
        obs = world.peers[observer]
        for k, st in obs.trust_table.items():
            if world.peers[k].trust_table.keys().isdisjoint(subjects):
                continue
            cred = oracle_direct_trust(oracle_apply_decay(st, world.round, obs.params),
                                       obs.params)
            if cred == 0.0:
                left_out.append(k)
        holders = walk(world, observer, subjects)
        ranked.extend(entry[0] for held in holders.values() for entry in held)
        return holders

    monkeypatch.setattr(sim_engine, "_walk_recommenders", spy)
    run_to_end(build_experiment(exp, seed=1, **overrides))
    assert left_out and ranked
    assert 0.0 not in ranked


def test_recommenders_of_credibility_0_leave_cold_start():
    """Observer 0 received only polluted chunks from recommenders 2 and 3,
    so under PDTM and DTMA it holds both at credibility 0, and they
    received clean chunks from subject 1. The ranking is empty, and 1
    scores at cold start, as the oracle's sum with no positive weight."""
    for dt_model in (DTModel.PDTM, DTModel.DTMA):
        params = TrustParams(dt_model=dt_model)
        world = World(seed=1)
        for pid in range(4):
            world.add_peer(pid, PeerBehavior.honest(), params)
        for k in (2, 3):
            world.write_entry(0, k, TrustState(0.0, 2.0, 2.0, 0))
            world.write_entry(k, 1, TrustState(3.0, 0.0, 3.0, 0))
        world.round = 1
        assert sim_engine._walk_recommenders(world, 0, (1,)) == {}
        got = score_candidates(world, 0, (1,))
        assert got == oracle_score_candidates(world, 0, (1,))
        assert got[0].indirect == params.cold_start_trust
        assert oracle_query_indirect(world, 0, 1) is None


@pytest.mark.parametrize("exp, overrides", [
    ("e1", {}),
    ("e4", {"mode": "rotating", "group_size": 24, "rounds": 40}),
    ("e5", {}),
])
def test_kept_reports_come_from_received_subjects(exp, overrides):
    """Bad-mouthers (e1), colluders endorsing each other (e4) and a newcomer
    hearing from decaying views (e5): every report a recommender keeps at
    the end of the run is about a peer it received from."""
    _, world = run_to_end(build_experiment(exp, seed=1, **overrides))
    assert any(rec.reports for rec in world.peers.values())
    assert reports_from_strangers(world) == []
