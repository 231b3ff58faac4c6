"""The batch scoring kernel and its memo against an unmemoised oracle, and
their work budget.

The oracle below is the pure definition: it scores one candidate at a time,
queries recommendations for every candidate, decays a view of each
co-observer and each recommender's view of the subject from scratch, stores
nothing, and decay always calls `exp`. It writes out the decay, direct-trust
and confidence formulas itself rather than calling `trust_core`'s, and
counts a delivery with its own decay. It lives here only, as the reference
the `sim_engine` path must match bit for bit.
"""

import math
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pollushield import scenarios, sim_engine
from pollushield.behaviors import PeerBehavior, recommendation_value
from pollushield.scenarios import ScenarioConfig, build_experiment, run_scenario
from pollushield.trust_core import (
    EMPTY_STATE,
    CFModel,
    ChunkQuality,
    DTModel,
    TrustParams,
    TrustState,
    combine_trust,
    indirect_trust,
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


def oracle_query_indirect(world, observer, subject, memo=None) -> Optional[float]:
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
        value = recommendation_value(rec.behavior, k, subject, honest, world.seed, now)
        recommendations.append((cred, value))
    return indirect_trust(recommendations)


def oracle_evaluate_components(world, observer, subject, memo=None):
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
    return sim_engine.TrustComponents(d, ind, a, combine_trust(d, ind, a))


def oracle_score_candidates(world, observer, subjects, memo=None):
    return [oracle_evaluate_components(world, observer, s) for s in subjects]


def run_capturing_world(cfg):
    """Run the scenario and return its report with the final world."""
    worlds = []
    build = scenarios.build_world

    def capture(c):
        worlds.append(build(c))
        return worlds[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "build_world", capture)
        report = run_scenario(cfg)
    return report, worlds[0]


def run_with_oracle(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_engine, "record_delivery", oracle_record_delivery)
        mp.setattr(sim_engine, "score_candidates", oracle_score_candidates)
        mp.setattr(scenarios, "score_candidates", oracle_score_candidates)
        return run_capturing_world(cfg)


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


# --- small worlds --------------------------------------------------------------

RATES = st.sampled_from([0.0, 0.0, 0.05, 0.4, 100.0])  # 100: counts underflow to 0


@st.composite
def small_worlds(draw):
    n = draw(st.integers(3, 8))
    ids = list(range(n))
    kinds = draw(st.lists(
        st.sampled_from(["honest", "onoff", "badmouth", "collab"]), min_size=n, max_size=n))
    group = tuple(pid for pid in ids if kinds[pid] == "collab")
    rotating = draw(st.booleans())
    behaviors = []
    for pid, kind in enumerate(kinds):
        if kind == "honest":
            b = PeerBehavior.honest(loss_rate=draw(st.sampled_from([0.0, 0.3])))
        elif kind == "onoff":
            b = PeerBehavior.onoff(draw(st.sampled_from([0.2, 0.5])))
        elif kind == "badmouth":
            others = [x for x in ids if x != pid]
            targets = tuple(draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
            b = PeerBehavior.badmouther(
                targets, slander_prob=draw(st.floats(0.05, 0.95)),
                loss_rate=draw(st.sampled_from([0.0, 0.2])))
        elif rotating:
            b = PeerBehavior.collab_rotating(group)
        else:
            b = PeerBehavior.collab_static(group, designated=group[0])
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
            k_recommenders=draw(st.integers(1, 4)),
        )

    base = params()
    overridden = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
    requesters = tuple(sorted(draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))))
    cand_map = tuple(
        (rid, tuple(draw(st.lists(st.sampled_from([x for x in ids if x != rid]),
                                  min_size=1, unique=True))))
        for rid in requesters
    )
    rounds = draw(st.integers(2, 12))
    pairs = [(o, s) for o in ids for s in ids if o != s]
    return ScenarioConfig(
        name="fuzz",
        n_peers=n,
        rounds=rounds,
        seed=draw(st.integers(0, 2 ** 32)),
        behavior_mix=tuple((b, 1) for b in behaviors),
        params=base,
        param_overrides=tuple((pid, params()) for pid in overridden),
        observed_pairs=tuple(draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))),
        requesters=requesters,
        candidate_map=cand_map,
        request_budgets=tuple(
            (rid, draw(st.integers(1, 3))) for rid in requesters if draw(st.booleans())),
        warmup_rounds=draw(st.integers(0, rounds - 1)),
        warmup_budget=draw(st.integers(0, 3)),
        detection_threshold=draw(st.sampled_from([0.0, 0.5, 0.9])),
        ads_per_round=draw(st.one_of(st.none(), st.integers(1, 3))),
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_worlds())
def test_memoised_path_matches_oracle(cfg):
    got = fingerprint(*run_capturing_world(cfg))
    want = fingerprint(*run_with_oracle(cfg))
    for key in want:
        assert got[key] == want[key], key


# --- work budget -------------------------------------------------------------

def count_calls(monkeypatch, names):
    """Count calls of these names where `sim_engine` and `scenarios` look
    them up. `scored` sums the batch sizes of `score_candidates`, `walked`
    counts the subjects a ranked walk (`_walk_recommenders`) gave at least
    one report, and `used` the reports each such subject aggregates (the
    list `indirect_trust` gets), whose largest count is `most_used`."""
    calls = dict.fromkeys(names + ("scored", "walked", "used", "most_used"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "score_candidates":
                calls["scored"] += len(args[2])
            elif name == "_walk_recommenders":
                calls["walked"] += sum(1 for taken in result.values() if taken)
            elif name == "indirect_trust":
                calls["used"] += len(args[0])
                calls["most_used"] = max(calls["most_used"], len(args[0]))
            return result
        return wrapper

    for name in names:
        for module in (sim_engine, scenarios):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


WALK = ("_walk_recommenders", "indirect_trust")


def test_dense_collusion_work_counts(monkeypatch):
    """e4 rotating, group 24, 40 rounds: the memo cuts the decay, scoring
    and recommendation work, and serves every repeated report.

    A batch walks the requester's recommenders whenever the requester has
    received from anyone: every batch but round 1's 25 selections, so 975
    selection walks and the 40 observation batches. One walk, observer 1's
    in round 2, finds no recommender: 1 had received only from 2, and 2
    only from 1. The other 974 give reports to 16 852 of their 23 016
    subject scorings, and the observations to their one subject each. Each
    subject with a report aggregates every recommender it has, since
    `k_recommenders` is the group size: 313 651 reports over the 16 892
    subjects, at most the 23 members other than the subject.
    `recommendation_value` runs once per report the memo lacks: 15 709
    first reports in a round's selection memo, 391 re-reports after the
    recommender received from the subject earlier in the round, and 24 in
    the observations, which read through the round's memo (16 124 of the
    313 651 reports used). Of those 24, a delivery after the victim's
    selection had dropped one, and no selection that round had asked for
    the other 23. A fresh memo per observation would refill 920.
    `direct_trust` counts every direct-trust evaluation: the 17 980 memo
    fills plus 16 985 scorings (16 432 subjects with a table entry, and one
    per batch for a never-received-from subject in 553 batches). The
    observations make 944 of those fills: the victim's credibility of the
    23 other members, which its own deliveries drop every round (920), and
    the 24 honest values behind the new reports.
    `decayed_counts` counts every decayed read: the 17 980 memo fills plus
    the 16 432 scorings of a table entry. The 1 920 deliveries decay inside
    `record_delivery`, which these bindings do not see."""
    calls = count_calls(monkeypatch, WALK + ("recommendation_value", "score_candidates",
                                             "direct_trust", "decayed_counts"))
    run_scenario(build_experiment("e4", mode="rotating", group_size=24, rounds=40, seed=1))
    assert calls["score_candidates"] == 1_040  # 1 000 selections + 40 observations
    assert calls["scored"] == 23_080           # 23 040 candidates + 40 observed pairs
    assert calls["_walk_recommenders"] == 1_015  # 975 selection walks + 40 observations
    assert calls["walked"] == 16_892           # 16 852 selection scorings + 40 observations
    assert calls["indirect_trust"] == 16_892   # one aggregate per subject with a report
    assert calls["used"] == 313_651
    assert calls["most_used"] == 23            # no cut: every other member
    assert calls["recommendation_value"] == 16_124  # 15 709 + 391 + 24 memo fills
    assert calls["direct_trust"] == 34_965     # 17 980 memo fills + 16 985 scorings
    assert calls["decayed_counts"] == 34_412   # 17 980 memo fills + 16 432 scorings


def test_sparse_mesh_work_counts(monkeypatch):
    """e6 seed 1: every batch but round 1's 150, when no requester has
    received yet, walks the requester's recommenders (8 250 of the 8 400).
    Of the 84 000 scorings, 51 658 are of a subject that some peer has
    received from, and only 1 419 of those of a subject that a peer the
    requester has received from has itself received from; only those get
    reports, in 1 369 walks, while the other 6 881 walks find no
    recommender: 1 375 subjects one report and 44 two, 1 463 reports. The memo
    serves 87 repeated reports, and `recommendation_value` runs for the
    1 354 first reports in a round plus 22 re-reports after the recommender
    received from the subject earlier in the round (1 376)."""
    calls = count_calls(monkeypatch, WALK + ("recommendation_value", "score_candidates"))
    run_scenario(build_experiment("e6", seed=1))
    assert calls["score_candidates"] == 8_400  # 150 requesters x 56 rounds
    assert calls["scored"] == 84_000
    assert calls["_walk_recommenders"] == 8_250  # 1 369 with a report + 6 881 without
    assert calls["walked"] == calls["indirect_trust"] == 1_419
    assert calls["used"] == 1_463
    assert calls["most_used"] == 2
    assert calls["recommendation_value"] == 1_376  # 1 354 + 22 memo fills


def test_newcomer_reads_work_counts(monkeypatch):
    """e5 seed 1: the newcomer observes the 100 providers in one batch per
    round. Every selection after round 1 walks (1 519 of the 1 550) and
    finds no recommender: a requester's table holds only providers, which
    receive from no one, and the newcomer's candidates, the requesters,
    have received from no one but providers. The 50 observation walks give
    reports to the 4 711 (round, provider) pairs that some requester the
    newcomer received from has itself received from. `k_recommenders` (10)
    cuts 87 of those subjects' lists, by 191 reports in all. The 24 457
    reports used are all fresh, since nothing else asks the requesters
    about providers: `recommendation_value` runs once per report.
    `direct_trust` counts the 33 569 decayed reads (scorings of a table
    entry and memo fills) plus one evaluation of the never-received-from
    state per batch holding such a subject: 637 selections and the 50
    observation batches (687). One observation per pair made that
    evaluation for each of the 5 000 observed pairs, 39 206 in all."""
    calls = count_calls(monkeypatch, WALK + ("recommendation_value", "score_candidates",
                                             "direct_trust", "decayed_counts"))
    run_scenario(build_experiment("e5", seed=1))
    assert calls["score_candidates"] == 1_600  # 31 requesters x 50 rounds + 50 observations
    assert calls["scored"] == 14_300           # 6 advertised x 1 550 + 100 x 50 observed
    assert calls["_walk_recommenders"] == 1_569  # 1 519 selections + 50 observations
    assert calls["walked"] == calls["indirect_trust"] == 4_711
    assert calls["used"] == 24_457
    assert calls["most_used"] == 10
    assert calls["recommendation_value"] == 24_457
    assert calls["decayed_counts"] == 33_569
    assert calls["direct_trust"] == 34_256     # 33 569 decayed reads + 687 batches


def liar_world(rounds, seed, theta_p=0.0, theta_g=0.0):
    """Three observers receive from a bad-mouther (slander probability 0.5)
    and from its target 4, and the bad-mouther 3 receives from the target;
    observers 0 and 1 watch the target."""
    liar, target = 3, 4
    observers = (0, 1, 2)
    return ScenarioConfig(
        name="liar",
        n_peers=5,
        rounds=rounds,
        seed=seed,
        behavior_mix=(
            (PeerBehavior.honest(), 3),
            (PeerBehavior.badmouther((target,), slander_prob=0.5), 1),
            (PeerBehavior.honest(), 1),
        ),
        params=TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.PDTM,
                           theta_p=theta_p, theta_g=theta_g),
        observed_pairs=((0, target), (1, target)),
        requesters=observers + (liar,),
        candidate_map=tuple((rid, (liar, target)) for rid in observers) + ((liar, (target,)),),
        request_budgets=tuple((rid, 2) for rid in observers),
    )


def test_memo_and_oracle_give_the_same_lies(monkeypatch):
    """The three observers ask the bad-mouther about its target in every
    selection after round 1, two of them also in every observation. A lie
    is keyed on the round, so the memo keeps the liar's report like any
    other: `recommendation_value` runs once in each round's first
    selection, and once more in the observations because the liar's own
    delivery from the target dropped the report (2 per round after round
    1, 1 in round 1; one per enquiry would be 37). The run matches the
    unmemoised oracle, which asks the liar afresh at every enquiry."""
    rounds = 8
    cfg = liar_world(rounds, seed=7)
    calls = count_calls(monkeypatch, ("recommendation_value",))
    report, world = run_capturing_world(cfg)
    # round 1 selects before anyone has received: observations only
    assert calls["recommendation_value"] == 2 * (rounds - 1) + 1
    # the liar is observer 0's only recommender about the target
    assert {row[2] for row in report.trajectories[(0, 4)]} > {0.0}
    monkeypatch.undo()
    got = fingerprint(report, world)
    want = fingerprint(*run_with_oracle(cfg))
    for key in want:
        assert got[key] == want[key], key
