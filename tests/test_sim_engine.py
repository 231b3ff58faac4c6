import pytest

from pollushield import sim_engine
from pollushield.behaviors import PeerBehavior
from pollushield.sim_engine import (
    TrustMemo,
    World,
    run_round,
    score_candidates,
    select_providers,
)
from pollushield.trust_core import (
    CFModel, ChunkQuality, DTModel, TrustParams, TrustState, indirect_trust)


DTMA_PARAMS = TrustParams(cf_model=CFModel.CFDA, c=1.0, dt_model=DTModel.DTMA)


def make_world(n_peers, params=DTMA_PARAMS, seed=1, **world_kwargs):
    world = World(seed=seed, **world_kwargs)
    for pid in range(n_peers):
        world.add_peer(pid, PeerBehavior.honest(), params)
    return world


def seed_history(world, observer, subject, n_clean, n_polluted=0.0):
    """Install a past delivery record, as run_round would leave it."""
    total = n_clean + n_polluted
    world.peers[observer].trust_table[subject] = TrustState(n_clean, n_polluted, total, 0.0)


class TestEvaluateTrust:
    def test_cold_start_is_half(self):
        world = make_world(2)
        assert score_candidates(world, 0, (1,))[0].combined == pytest.approx(0.5)

    def test_self_evaluation_rejected(self):
        world = make_world(2)
        with pytest.raises(ValueError):
            score_candidates(world, 1, (1,))

    def test_indirect_only_uses_recommender(self):
        # no direct history: alpha is 0, so trust equals the recommendation
        world = make_world(3)
        seed_history(world, 2, 1, n_clean=4, n_polluted=1)  # recommender's view: 0.8
        seed_history(world, 0, 2, n_clean=3)                # credibility 1.0
        assert score_candidates(world, 0, (1,))[0].combined == pytest.approx(0.8)

    def test_direct_dominates_after_many_interactions(self):
        # 50 clean chunks: T = (50/51) * 1 + (1/51) * 0.1
        world = make_world(3)
        seed_history(world, 0, 1, n_clean=50)
        seed_history(world, 2, 1, n_clean=1, n_polluted=9)  # recommends 0.1
        seed_history(world, 0, 2, n_clean=5)
        expected = (50 / 51) * 1.0 + (1 / 51) * 0.1
        assert score_candidates(world, 0, (1,))[0].combined == pytest.approx(expected, abs=1e-9)

    def test_no_recommender_substitutes_cold_start(self):
        # one clean chunk: direct 1.0 and alpha 1/2; the subject's only
        # observer is the observer itself, so indirect falls back to 0.5
        world = make_world(2)
        seed_history(world, 0, 1, n_clean=1)
        comp = score_candidates(world, 0, (1,))[0]
        assert comp == pytest.approx((1.0, 0.5, 0.5, 0.75))

    def test_components_report_cold_substitute(self):
        world = make_world(2)
        comp = score_candidates(world, 0, (1,))[0]
        assert comp == (0.5, 0.5, 0.0, 0.5)  # DTMA empty state falls back to cold


class TestQueryIndirect:
    """Indirect trust as `score_candidates` reports it."""

    def test_no_common_acquaintance(self):
        world = make_world(3)
        seed_history(world, 2, 1, n_clean=5)  # observer has never met peer 2
        # the only report in this world would be 1.0: cold start is the fallback
        assert score_candidates(world, 0, (1,))[0].indirect == 0.5

    def test_balanced_recommendations_average_out(self):
        # cold start 0.3: an indirect value of 0.5 can only be the reports' mean
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMA, k_recommenders=20,
                             cold_start_trust=0.3)
        world = World(seed=1)
        world.add_peer(0, PeerBehavior.honest(), params)
        world.add_peer(1, PeerBehavior.honest(), params)
        for k in range(2, 12):  # ten slanderers
            world.add_peer(k, PeerBehavior.badmouther((1,), slander_prob=1.0), params)
        for k in range(12, 22):  # ten honest with full trust of the subject
            world.add_peer(k, PeerBehavior.honest(), params)
        for k in range(2, 22):
            seed_history(world, k, 1, n_clean=5)
            seed_history(world, 0, k, n_clean=2)
        assert score_candidates(world, 0, (1,))[0].indirect == pytest.approx(0.5)

    def test_top_k_filters_low_credibility(self):
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMA, k_recommenders=2)
        world = make_world(5, params=params)
        seed_history(world, 2, 1, n_clean=9)                 # recommends 1.0
        seed_history(world, 3, 1, n_clean=9)                 # recommends 1.0
        seed_history(world, 4, 1, n_clean=0, n_polluted=9)   # recommends 0.0
        seed_history(world, 0, 2, n_clean=9)                 # credibility 1.0
        seed_history(world, 0, 3, n_clean=8)                 # credibility 1.0
        seed_history(world, 0, 4, n_clean=1, n_polluted=9)   # credibility 0.1: filtered
        assert score_candidates(world, 0, (1,))[0].indirect == pytest.approx(1.0)

    def test_recommender_needs_history_with_observer(self):
        world = make_world(3)
        seed_history(world, 2, 1, n_clean=5)
        seed_history(world, 0, 1, n_clean=1)
        # peer 2 knows the subject but the observer has received only from the
        # subject, which knows no one: the walk finds no recommender
        assert sim_engine._walk_recommenders(world, 0, (1,), TrustMemo()) == {}
        assert score_candidates(world, 0, (1,))[0].indirect == 0.5

    def test_repeat_query_sees_direct_table_edits(self):
        # each call without a memo reads the tables as they are now
        world = make_world(4)
        seed_history(world, 2, 1, n_clean=4, n_polluted=1)  # recommends 0.8
        seed_history(world, 3, 1, n_clean=1, n_polluted=4)  # recommends 0.2
        seed_history(world, 0, 2, n_clean=3)                # credibility 1.0
        seed_history(world, 0, 3, n_clean=3)                # credibility 1.0
        world.round = 2
        assert score_candidates(world, 0, (1,))[0].indirect == pytest.approx(0.5)
        world.peers[0].trust_table[3] = TrustState(1.0, 3.0, 4.0, 2.0)  # credibility 0.25
        assert score_candidates(world, 0, (1,))[0].indirect == pytest.approx((0.8 + 0.25 * 0.2) / 1.25)
        world.peers[2].trust_table[1] = TrustState(0.0, 5.0, 5.0, 2.0)  # recommends 0.0
        assert score_candidates(world, 0, (1,))[0].indirect == pytest.approx(0.25 * 0.2 / 1.25)

    def test_queries_leave_every_table_bit_identical(self):
        # reads decay a view of each entry and store nothing, the observer's
        # own table included, even where decay has emptied a record
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMB,
                             forgetting=200.0, forgiving=0.3)
        world = make_world(4, params=params)
        for subject in (1, 3):
            seed_history(world, 2, subject, n_clean=4, n_polluted=1)
        seed_history(world, 0, 1, n_clean=2, n_polluted=1)
        seed_history(world, 0, 2, n_clean=3)
        world.round = 5
        before = {pid: repr(rec.trust_table) for pid, rec in world.peers.items()}
        memo = TrustMemo()
        for subject in (1, 3, 1):
            assert sim_engine._walk_recommenders(world, 0, (subject,), memo)[subject]
            score_candidates(world, 0, (subject,), memo)
        score_candidates(world, 0, (2,))
        assert {pid: repr(rec.trust_table) for pid, rec in world.peers.items()} == before

    def test_lies_leave_the_upload_stream_alone(self):
        """A bad-mouther's lie is keyed on the round: it draws nothing from
        its upload stream, tells every enquirer the same thing within a
        round, and over many rounds both lies and tells the truth."""
        world = make_world(4)
        liar = world.add_peer(4, PeerBehavior.badmouther((1,), slander_prob=0.5), DTMA_PARAMS)
        seed_history(world, 4, 1, n_clean=5)
        enquirers = (0, 2, 3)
        for pid in enquirers:
            seed_history(world, pid, 4, n_clean=3)
        upload_state = liar.rng.getstate()
        reports = []
        for r in range(1, 41):
            world.round = r
            heard = {score_candidates(world, pid, (1,))[0].indirect for pid in enquirers}
            assert len(heard) == 1, (r, heard)
            reports.append(heard.pop())
        assert liar.rng.getstate() == upload_state
        assert set(reports) == {0.0, 1.0}


class TestScoreCandidates:
    def world(self):
        params = TrustParams(cf_model=CFModel.CFDB, dt_model=DTModel.PDTM,
                             forgetting=0.2, forgiving=0.05)
        world = make_world(6, params=params)
        seed_history(world, 0, 1, n_clean=6, n_polluted=1)
        seed_history(world, 0, 2, n_clean=2)
        seed_history(world, 2, 3, n_clean=1, n_polluted=3)  # 2 recommends 3
        world.round = 4
        return world

    def test_batch_matches_one_at_a_time(self):
        world = self.world()
        subjects = (5, 1, 3, 2, 4)
        assert score_candidates(world, 0, subjects) == [
            score_candidates(world, 0, (s,))[0] for s in subjects]

    def test_queries_only_subjects_a_known_peer_received_from(self, monkeypatch):
        world = self.world()
        walks = []

        def spy(world, observer, subjects, memo):
            walks.append(walk(world, observer, subjects, memo))
            return walks[-1]

        walk = sim_engine._walk_recommenders
        monkeypatch.setattr(sim_engine, "_walk_recommenders", spy)
        score_candidates(world, 0, (1, 2, 3, 4, 5))
        # 0 received from 1 and 2; 1 received from no one, and 2 only from
        # 3: only 3 gets a report
        assert [{s for s, taken in got.items() if taken} for got in walks] == [{3}]
        score_candidates(world, 0, (1, 2, 4, 5))
        assert walks[1] == {}  # no recommender received from any subject
        score_candidates(world, 4, (0, 1, 2, 3))
        assert len(walks) == 2  # 4 received from no one: no walk

    def test_trust_tables_are_the_only_state_a_read_uses(self):
        """Scoring a world that ran equals scoring a fresh world given only
        its trust tables and round."""
        params = TrustParams(cf_model=CFModel.CFDB, dt_model=DTModel.PDTM,
                             forgetting=0.05, forgiving=0.1, theta_p=0.0, theta_g=0.0)
        behaviors = [PeerBehavior.honest(), PeerBehavior.honest(loss_rate=0.3),
                     PeerBehavior.badmouther((0, 1), slander_prob=0.5),
                     PeerBehavior.onoff(0.5), PeerBehavior.honest(), PeerBehavior.persistent()]
        ids = range(len(behaviors))
        ran, fresh = World(seed=3), World(seed=3)
        for pid, behavior in zip(ids, behaviors):
            ran.add_peer(pid, behavior, params, is_requester=True, budget=2,
                         candidates=[c for c in ids if c != pid])
            fresh.add_peer(pid, behavior, params)
        for _ in range(8):
            run_round(ran)
        fresh.round = ran.round
        for pid in ids:
            fresh.peers[pid].trust_table = dict(ran.peers[pid].trust_table)
        recommended = 0
        for observer in ids:
            subjects = [s for s in ids if s != observer]
            got = score_candidates(fresh, observer, subjects)
            assert got == score_candidates(ran, observer, subjects)
            assert got == [score_candidates(fresh, observer, (s,))[0] for s in subjects]
            recommended += sum(comp.indirect != params.cold_start_trust for comp in got)
        assert recommended  # the tables hold recommendations

    def test_self_in_batch_rejected(self):
        with pytest.raises(ValueError):
            score_candidates(self.world(), 0, (1, 0))


class TestRankedWalk:
    """One walk over the observer's recommenders, ranked by credibility with
    ties to the lowest id, serves a whole batch: k_recommenders cuts each
    subject's list on its own."""

    def world(self):
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMA, k_recommenders=2)
        world = make_world(10, params=params)
        for k in (2, 3, 4, 5):
            seed_history(world, 0, k, n_clean=3)           # credibility 1.0: a four-way tie
        seed_history(world, 0, 6, n_clean=1, n_polluted=1)  # credibility 0.5
        seed_history(world, 0, 8, n_clean=1)                # direct history with subject 8
        seed_history(world, 3, 1, n_clean=4, n_polluted=1)  # 3 recommends 1 at 0.8
        seed_history(world, 4, 1, n_clean=1, n_polluted=4)  # 4 recommends 1 at 0.2
        seed_history(world, 5, 1, n_clean=1, n_polluted=1)  # 5 recommends 1 at 0.5
        seed_history(world, 6, 1, n_clean=5)                # 6 recommends 1 at 1.0
        seed_history(world, 5, 8, n_clean=0, n_polluted=2)  # 5 recommends 8 at 0.0
        seed_history(world, 2, 8, n_clean=3)                # 2 recommends 8 at 1.0
        seed_history(world, 6, 8, n_clean=1, n_polluted=3)  # 6 recommends 8 at 0.25
        seed_history(world, 6, 9, n_clean=1, n_polluted=3)  # 6 recommends 9 at 0.25
        return world

    SUBJECTS = (1, 8, 7, 9, 1)  # 7 has no observer; 1 comes twice

    def test_ties_break_by_lowest_id(self):
        world = self.world()
        walks = sim_engine._walk_recommenders(world, 0, (1, 8, 9, 7), TrustMemo())
        # 1: 3 and 4 of the tied 3, 4, 5; 8: 2 and 5, cutting 6; 9: 6 alone
        assert walks == {
            1: [(1.0, 0.8), (1.0, 0.2)], 8: [(1.0, 1.0), (1.0, 0.0)], 9: [(0.5, 0.25)], 7: []}
        indirect = [comp.indirect for comp in score_candidates(world, 0, (1, 8, 9, 7))]
        assert indirect == [indirect_trust(walks[s]) for s in (1, 8, 9)] + [0.5]

    def test_batch_equals_each_subject_alone(self):
        world = self.world()
        batch = score_candidates(world, 0, self.SUBJECTS)
        assert batch == [score_candidates(world, 0, (s,))[0] for s in self.SUBJECTS]
        memo = TrustMemo()
        assert batch == score_candidates(world, 0, self.SUBJECTS, memo)
        assert batch == [score_candidates(world, 0, (s,), memo)[0] for s in self.SUBJECTS]
        assert batch[0] == batch[4]


class TestMemoAcrossRounds:
    """A memo carried over rounds without deliveries reads exactly what a
    fresh memo reads each round, where the values move with the round."""

    def assert_carried_equals_fresh(self, world, subjects, rounds=range(1, 7)):
        memo = TrustMemo()
        seen = set()
        for r in rounds:
            world.round = r
            got = score_candidates(world, 0, subjects, memo)
            assert got == score_candidates(world, 0, subjects), r
            seen.add(tuple(got))
        assert len(seen) == len(rounds)  # every round reads something new

    def test_decaying_polluted_counts(self):
        # forgiving fades the observer's polluted count of the subject and of
        # its recommender, and the recommender's polluted count of the subject
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMB, forgiving=0.3)
        world = make_world(3, params=params)
        seed_history(world, 0, 1, n_clean=2, n_polluted=3)
        seed_history(world, 0, 2, n_clean=3, n_polluted=1)
        seed_history(world, 2, 1, n_clean=1, n_polluted=4)
        self.assert_carried_equals_fresh(world, (1,))

    def test_forgetting_only_polluted_chunks(self):
        # no clean chunk, so direct trust stays 0; the transaction count
        # fades at the forgetting rate and with it the confidence weight
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMA, forgetting=0.3)
        world = make_world(2, params=params)
        seed_history(world, 0, 1, n_clean=0, n_polluted=3)
        self.assert_carried_equals_fresh(world, (1,))

    def test_lies_expire_with_the_round(self):
        # nothing decays; only the bad-mouther's keyed lie moves
        world = make_world(2)
        world.add_peer(2, PeerBehavior.badmouther((1,), slander_prob=0.5), DTMA_PARAMS)
        seed_history(world, 2, 1, n_clean=5)
        seed_history(world, 0, 2, n_clean=3)
        memo = TrustMemo()
        heard = []
        for r in range(1, 41):
            world.round = r
            got = score_candidates(world, 0, (1,), memo)
            assert got == score_candidates(world, 0, (1,)), r
            heard.append(got[0].indirect)
        assert set(heard) == {0.0, 1.0}


class TestSelectProviders:
    def build(self, trusts, params):
        world = make_world(1 + len(trusts), params=params)
        for idx, (nc, np_) in enumerate(trusts, start=1):
            seed_history(world, 0, idx, n_clean=nc, n_polluted=np_)
        return world

    def test_top_k_with_thresholds(self):
        # trust = direct trust exactly (constant confidence weight of 1)
        params = TrustParams(
            cf_model=CFModel.CONSTANT, cf_constant=1.0, dt_model=DTModel.DTMA,
            theta_p=0.5, theta_g=0.9, chi=0.5)
        world = self.build([(9, 1), (19, 1), (1, 4), (3, 7)], params)  # .9 .95 .2 .3
        world.round = 1  # past warmup: the admission policy is active
        got = select_providers(world, 0, [1, 2, 3, 4])
        assert [pid for pid, _ in got] == [2, 1]  # highest trust first, low-trust pair never admitted

    def test_all_below_threshold_yields_empty(self):
        params = TrustParams(
            cf_model=CFModel.CONSTANT, cf_constant=1.0, dt_model=DTModel.DTMA,
            theta_p=0.5, theta_g=0.9)
        world = self.build([(1, 4), (3, 7)], params)
        world.round = 1
        got = select_providers(world, 0, [1, 2])
        assert [pid for pid, _ in got] == []

    def test_tie_break_ascending_id(self):
        params = TrustParams(
            cf_model=CFModel.CONSTANT, cf_constant=1.0, dt_model=DTModel.DTMA,
            theta_p=0.0, theta_g=0.0, k_providers=2)
        world = self.build([(5, 0), (5, 0), (5, 0)], params)
        world.round = 1
        got = select_providers(world, 0, [3, 1, 2])
        assert [pid for pid, _ in got] == [1, 2]

    def test_detection_recorded_during_selection(self):
        params = TrustParams(
            cf_model=CFModel.CONSTANT, cf_constant=1.0, dt_model=DTModel.DTMA)
        world = self.build([(0, 5)], params)
        world.round = 3
        select_providers(world, 0, [1])
        assert world.detections == {1: 3}


def forced_params(**kwargs):
    """Thresholds zeroed: every candidate is admitted unconditionally."""
    return TrustParams(
        cf_model=CFModel.CFDA, c=1.0, dt_model=DTModel.PDTM,
        theta_p=0.0, theta_g=0.0, **kwargs)


class TestRunRound:
    def test_peer_listing_itself_as_candidate_rejected(self):
        world = World(seed=1)
        with pytest.raises(ValueError, match="itself"):
            world.add_peer(0, PeerBehavior.honest(), forced_params(),
                           is_requester=True, candidates=[1, 0])
        assert world.peers == {} and world.requesters == []

    def test_forced_polluter_delivery(self):
        world = World(seed=1)
        world.add_peer(0, PeerBehavior.honest(), forced_params(),
                       is_requester=True, candidates=[1])
        world.add_peer(1, PeerBehavior.persistent(), forced_params())
        run_round(world)
        assert len(world.event_log) == 1
        ev = world.event_log[0]
        assert (ev.round_no, ev.requester, ev.provider) == (1, 0, 1)
        assert ev.quality is ChunkQuality.POLLUTED
        assert world.peers[0].trust_table[1].n_polluted == 1.0

    def test_round_without_requesters(self):
        world = make_world(3)
        run_round(world)
        assert world.round == 1
        assert world.event_log == []

    def test_budget_caps_deliveries(self):
        world = World(seed=1)
        world.add_peer(0, PeerBehavior.honest(), forced_params(),
                       is_requester=True, budget=2, candidates=[1, 2, 3])
        for pid in (1, 2, 3):
            world.add_peer(pid, PeerBehavior.honest(), forced_params())
        run_round(world)
        assert len(world.event_log) == 2

    def test_deterministic_replay(self):
        def build():
            world = World(seed=99)
            params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.PDTM)
            for pid in range(6):
                world.add_peer(
                    pid,
                    PeerBehavior.honest(loss_rate=0.3) if pid else PeerBehavior.honest(),
                    params,
                    is_requester=pid < 3,
                    candidates=[c for c in range(6) if c != pid],
                )
            return world

        w1, w2 = build(), build()
        for _ in range(100):
            run_round(w1)
            run_round(w2)
        assert w1.event_log == w2.event_log

    def test_conservation(self):
        world = World(seed=5)
        for pid in range(4):
            world.add_peer(pid, PeerBehavior.honest(loss_rate=0.2), forced_params(),
                           is_requester=True, candidates=[c for c in range(4) if c != pid])
        for _ in range(25):
            run_round(world)
        total = sum(
            st.n_transactions
            for rec in world.peers.values()
            for st in rec.trust_table.values()
        )
        assert total == len(world.event_log)

    def test_isolation_below_threshold_is_absorbing(self):
        # once the polluter drops below theta_p with no decay, it never serves again
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.PDTM,
                             theta_p=0.5, theta_g=0.9, chi=0.5)
        world = World(seed=3, warmup_rounds=1, warmup_budget=2)
        world.add_peer(0, PeerBehavior.honest(), params, is_requester=True,
                       budget=1, candidates=[1, 2])
        world.add_peer(1, PeerBehavior.persistent(), params)
        world.add_peer(2, PeerBehavior.honest(), params)
        for _ in range(60):
            run_round(world)
        polluter_rounds = [ev.round_no for ev in world.event_log if ev.provider == 1]
        assert polluter_rounds == [1]  # probed once during warmup, then banned
        assert world.detections[1] == 2

    def test_delivery_mid_round_refreshes_what_a_recommender_reports(self, monkeypatch):
        # X=0 asks about P=1 through R=2, then R receives a polluted chunk
        # from P, then Y=3 asks about P through R: Y must see R's new view
        world = World(seed=1)
        for pid in (0, 2, 3):
            world.add_peer(pid, PeerBehavior.honest(), forced_params(),
                           is_requester=True, candidates=[1])
        world.add_peer(1, PeerBehavior.persistent(), forced_params())
        seed_history(world, 2, 1, n_clean=3)  # R's view of P before the round
        seed_history(world, 0, 2, n_clean=3)  # X and Y have received from R
        seed_history(world, 3, 2, n_clean=3)
        score = sim_engine.score_candidates
        indirect = {}

        def checked(world, observer, subjects, memo=None):
            got = score(world, observer, subjects, memo)
            assert got == score(world, observer, subjects)  # memo-free
            indirect[observer] = got[0].indirect
            return got

        monkeypatch.setattr(sim_engine, "score_candidates", checked)
        run_round(world)
        assert [(ev.requester, ev.provider) for ev in world.event_log] == [(0, 1), (2, 1), (3, 1)]
        assert indirect[3] < indirect[0]

    def test_evaluation_does_not_mutate_foreign_state(self):
        world = make_world(3)
        seed_history(world, 2, 1, n_clean=4, n_polluted=1)
        seed_history(world, 0, 2, n_clean=3)
        before = dict(world.peers[2].trust_table)
        score_candidates(world, 0, (1,))
        assert world.peers[2].trust_table == before
        assert world.peers[1].trust_table == {}


class TestWarmupBudget:
    def test_warmup_budget_expands_then_contracts(self):
        world = World(seed=1, warmup_rounds=2, warmup_budget=3)
        world.add_peer(0, PeerBehavior.honest(), forced_params(),
                       is_requester=True, budget=1, candidates=[1, 2, 3])
        for pid in (1, 2, 3):
            world.add_peer(pid, PeerBehavior.honest(), forced_params())
        run_round(world)
        run_round(world)
        assert len(world.event_log) == 6  # 3 per warmup round
        run_round(world)
        assert len(world.event_log) == 7  # back to the configured budget
