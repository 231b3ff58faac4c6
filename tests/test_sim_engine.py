import math

import pytest

from pollushield import sim_engine
from pollushield.behaviors import PeerBehavior
from pollushield.sim_engine import World, run_round, score_candidates, select_providers
from pollushield.trust_core import CFModel, ChunkQuality, DTModel, TrustParams, TrustState
from test_trust_cache import fresh_scores, indirect_trust


DTMA_PARAMS = TrustParams(cf_model=CFModel.CFDA, c=1.0, dt_model=DTModel.DTMA)


def make_world(n_peers, params=DTMA_PARAMS, seed=1, **world_kwargs):
    world = World(seed=seed, **world_kwargs)
    for pid in range(n_peers):
        world.add_peer(pid, PeerBehavior.honest(), params)
    return world


def seed_history(world, observer, subject, n_clean, n_polluted=0.0):
    """Install a past delivery record through `World.write_entry`, as
    run_round would leave it."""
    world.write_entry(observer, subject,
                      TrustState(n_clean, n_polluted, n_clean + n_polluted, 0.0))


def walk_indirect(world, observer, subjects):
    """Each subject's indirect value from the observer's ranking and the sums
    of every subject, as `score_candidates` works them out; a subject with
    no report of positive credibility is absent."""
    holders = sim_engine._walk_recommenders(world, observer, subjects)
    return sim_engine._sum_reports(world, holders, holders)


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
            world.add_peer(k, PeerBehavior.badmouther((1,)), params)
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
        assert walk_indirect(world, 0, (1,)) == {}
        assert score_candidates(world, 0, (1,))[0].indirect == 0.5

    def test_repeat_query_sees_direct_table_edits(self):
        # nothing decays, so every view and report is kept; seed_history
        # drops the editor's, so each call reads the tables as they are now
        world = make_world(4)
        seed_history(world, 2, 1, n_clean=4, n_polluted=1)  # recommends 0.8
        seed_history(world, 3, 1, n_clean=1, n_polluted=4)  # recommends 0.2
        seed_history(world, 0, 2, n_clean=3)                # credibility 1.0
        seed_history(world, 0, 3, n_clean=3)                # credibility 1.0
        world.round = 2
        assert score_candidates(world, 0, (1,))[0].indirect == pytest.approx(0.5)
        seed_history(world, 0, 3, n_clean=1, n_polluted=3)  # credibility 0.25
        got = score_candidates(world, 0, (1,))
        assert got == fresh_scores(world, 0, (1,))
        assert got[0].indirect == pytest.approx((0.8 + 0.25 * 0.2) / 1.25)
        seed_history(world, 2, 1, n_clean=0, n_polluted=5)  # recommends 0.0
        got = score_candidates(world, 0, (1,))
        assert got == fresh_scores(world, 0, (1,))
        assert got[0].indirect == pytest.approx(0.25 * 0.2 / 1.25)

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
        for subject in (1, 3, 1):
            assert subject in walk_indirect(world, 0, (subject,))
            score_candidates(world, 0, (subject,))
        score_candidates(world, 0, (2,))
        assert {pid: repr(rec.trust_table) for pid, rec in world.peers.items()} == before

    def test_lies_leave_the_upload_stream_alone(self):
        """A bad-mouther's lie draws nothing from its upload stream, and it
        tells every enquirer the same thing in every round."""
        world = make_world(4)
        liar = world.add_peer(4, PeerBehavior.badmouther((1,)), DTMA_PARAMS)
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
        assert set(reports) == {0.0}


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
        batch = score_candidates(world, 0, subjects)
        assert batch == [fresh_scores(world, 0, (s,))[0] for s in subjects]
        assert batch == [score_candidates(world, 0, (s,))[0] for s in subjects]

    def test_queries_only_subjects_a_known_peer_received_from(self, monkeypatch):
        world = self.world()
        found = {"_walk_recommenders": [], "_sum_reports": []}

        def spying(name, fn):
            def spy(*args):
                found[name].append(fn(*args))
                return found[name][-1]
            return spy

        for name in found:
            monkeypatch.setattr(sim_engine, name, spying(name, getattr(sim_engine, name)))
        walks, sums = found.values()
        score_candidates(world, 0, (1, 2, 3, 4, 5))
        # 0 received from 1 and 2; 1 received from no one, and 2 only from
        # 3: only 3 gets a report
        assert [set(got) for got in sums] == [{3}]
        score_candidates(world, 0, (1, 2, 4, 5))
        # no recommender received from any subject: the batch is outside
        # 0's reach, {3}, so it is neither walked nor summed
        assert len(walks) == 1 and len(sums) == 1
        score_candidates(world, 4, (0, 1, 2, 3))
        assert len(walks) == 1  # 4 received from no one: no walk

    def test_trust_tables_are_the_only_state_a_read_uses(self):
        """Scoring a world that ran equals scoring a fresh world given only
        its trust tables and round."""
        params = TrustParams(cf_model=CFModel.CFDB, dt_model=DTModel.PDTM,
                             forgetting=0.05, forgiving=0.1, theta_p=0.0, theta_g=0.0)
        behaviors = [PeerBehavior.honest(), PeerBehavior.honest(),
                     PeerBehavior.badmouther((0, 1)),
                     PeerBehavior.onoff(2), PeerBehavior.honest(), PeerBehavior.persistent()]
        ids = range(len(behaviors))
        ran, fresh = World(seed=3), World(seed=3)
        for pid, behavior in zip(ids, behaviors):
            ran.add_peer(pid, behavior, params, budget=2,
                         candidates=[c for c in ids if c != pid],
                         loss_rate=0.3 if pid == 1 else 0.0)
            fresh.add_peer(pid, behavior, params)
        for _ in range(8):
            run_round(ran)
        fresh.round = ran.round
        for pid in ids:
            for subject, state in ran.peers[pid].trust_table.items():
                fresh.write_entry(pid, subject, state)
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
        walks = walk_indirect(world, 0, (1, 8, 9, 7))
        # 1: 3 and 4 of the tied 3, 4, 5; 8: 2 and 5, cutting 6; 9: 6 alone
        assert walks == {
            1: indirect_trust([(1.0, 0.8), (1.0, 0.2)]),
            8: indirect_trust([(1.0, 1.0), (1.0, 0.0)]),
            9: indirect_trust([(0.5, 0.25)]),
        }
        assert 7 not in walks  # no recommender received from 7
        indirect = [comp.indirect for comp in score_candidates(world, 0, (1, 8, 9, 7))]
        assert indirect == [walks[s] for s in (1, 8, 9)] + [0.5]

    def test_sums_in_rank_order(self):
        """Each subject's reports are summed in rank order, as
        `indirect_trust` sums the list it is given, bit for bit. Here id
        order, or a compensated sum (`math.fsum`, or `sum` from Python
        3.12 on), gives other floats."""
        world = make_world(5)
        for k, cred_clean, value_clean in ((2, 1, 9), (3, 2, 3), (4, 3, 7)):
            seed_history(world, 0, k, n_clean=cred_clean, n_polluted=10 - cred_clean)
            seed_history(world, k, 1, n_clean=value_clean, n_polluted=10 - value_clean)
        in_rank_order = [(0.3, 0.7), (0.2, 0.3), (0.1, 0.9)]  # recommenders 4, 3, 2
        want = indirect_trust(in_rank_order)
        assert want != indirect_trust(in_rank_order[::-1])
        assert want != math.fsum(c * v for c, v in in_rank_order) / math.fsum((0.3, 0.2, 0.1))
        assert walk_indirect(world, 0, (1,)) == {1: want}
        assert score_candidates(world, 0, (1,))[0].indirect == want

    # (recommender, clean chunks of 10 the observer got from it, clean chunks
    # of 10 it got from each subject), in rank order: credibility 0.4 to 0.1
    BOUNDARY = ((5, 4, 7), (4, 3, 3), (3, 2, 9), (2, 1, 6))

    @pytest.mark.parametrize("ranked", [2, 3, 4], ids=["k-1", "k", "k+1"])
    def test_cut_at_k_around_the_ranking_size(self, ranked):
        """With k = 3, a ranking of k-1, k or k+1 recommenders: subject 1 is
        reported on by all of them, subject 6 by all but the first. Each
        takes `indirect_trust` over its first k reports in rank order; the
        ranking of k+1 cuts subject 1's last report, not subject 6's."""
        k_max = 3
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMA, k_recommenders=k_max)
        world = make_world(7, params=params)
        reports = {1: [], 6: []}
        for rank, (k, cred_clean, value_clean) in enumerate(self.BOUNDARY[:ranked]):
            seed_history(world, 0, k, n_clean=cred_clean, n_polluted=10 - cred_clean)
            for subject in (1, 6) if rank else (1,):
                seed_history(world, k, subject, n_clean=value_clean, n_polluted=10 - value_clean)
                reports[subject].append((cred_clean / 10, value_clean / 10))
        want = {s: indirect_trust(hits[:k_max]) for s, hits in reports.items()}
        for s, hits in reports.items():
            if len(hits) >= 3:  # two floats sum the same either way round
                assert want[s] != indirect_trust(hits[:k_max][::-1])  # order tells
        if ranked > k_max:
            assert want[1] != indirect_trust(reports[1])  # the cut tells
        assert walk_indirect(world, 0, (1, 6)) == want

    # (recommender, clean chunks of 10 the observer got from it, clean chunks
    # of 10 it got from subject 1, and from subject 7), in rank order
    EVERY_HOLDER = ((2, 5, 7, 3), (3, 4, 2, 8), (4, 3, 9, 1), (5, 2, 4, 6), (6, 1, 6, 5))

    def test_walk_stops_once_every_subject_has_k_reports(self):
        """With k = 3, all five ranked recommenders received from both
        subjects, so both have their k reports at the third recommender,
        before the ranking ends. Each takes `indirect_trust` over exactly
        its first k reports in rank order: neither k - 1 nor k + 1."""
        k_max = 3
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.DTMA, k_recommenders=k_max)
        world = make_world(8, params=params)
        reports = {1: [], 7: []}
        for k, cred_clean, *value_clean in self.EVERY_HOLDER:
            seed_history(world, 0, k, n_clean=cred_clean, n_polluted=10 - cred_clean)
            for subject, clean in zip(reports, value_clean):
                seed_history(world, k, subject, n_clean=clean, n_polluted=10 - clean)
                reports[subject].append((cred_clean / 10, clean / 10))
        want = {s: indirect_trust(hits[:k_max]) for s, hits in reports.items()}
        for s, hits in reports.items():
            assert want[s] != indirect_trust(hits[:k_max - 1])
            assert want[s] != indirect_trust(hits[:k_max + 1])
        assert walk_indirect(world, 0, (1, 7)) == want

    def test_only_zero_credibility_reports_give_cold_start(self):
        world = make_world(4)
        for k in (2, 3):
            seed_history(world, 0, k, n_clean=0, n_polluted=2)  # credibility 0.0
            seed_history(world, k, 1, n_clean=3)                # recommends 1 at 1.0
        assert walk_indirect(world, 0, (1,)) == {}
        assert score_candidates(world, 0, (1,))[0].indirect == 0.5

    def test_batch_equals_each_subject_alone(self):
        world = self.world()
        batch = fresh_scores(world, 0, self.SUBJECTS)
        assert batch == [fresh_scores(world, 0, (s,))[0] for s in self.SUBJECTS]
        assert batch == score_candidates(world, 0, self.SUBJECTS)
        assert batch == score_candidates(world, 0, self.SUBJECTS)  # from the kept values
        assert batch == [score_candidates(world, 0, (s,))[0] for s in self.SUBJECTS]
        assert batch[0] == batch[4]


class TestMemoAcrossRounds:
    """Views and reports kept over rounds without deliveries read exactly
    what empty ones read each round, where the values move with the round."""

    def assert_carried_equals_fresh(self, world, subjects, rounds=range(1, 7)):
        seen = set()
        for r in rounds:
            world.round = r
            got = score_candidates(world, 0, subjects)
            assert got == fresh_scores(world, 0, subjects), r
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

    def test_lies_are_kept(self, monkeypatch):
        # a lie does not move with the round: the recommender works the
        # report out once and keeps it
        world = make_world(2)
        world.add_peer(2, PeerBehavior.badmouther((1,)), DTMA_PARAMS)
        seed_history(world, 2, 1, n_clean=5)
        seed_history(world, 0, 2, n_clean=3)
        asked = []
        ask = sim_engine.recommendation_value

        def counting(*args):
            asked.append(args)
            return ask(*args)

        for r in range(1, 7):
            world.round = r
            monkeypatch.setattr(sim_engine, "recommendation_value", counting)
            got = score_candidates(world, 0, (1,))
            monkeypatch.undo()
            assert got == fresh_scores(world, 0, (1,)), r
            assert got[0].indirect == 0.0
            assert world.peers[2].reports == {1: 0.0}
        assert len(asked) == 1

    def test_persistent_polluter_is_kept(self, monkeypatch):
        # forgiving fades the polluted counts every round, but PDTM direct
        # trust with no clean chunk is 0.0 at any polluted count, and with
        # no forgetting the confidence weight holds: 0 keeps its view of the
        # polluter and the recommender its report about it
        params = TrustParams(cf_model=CFModel.CFDA, dt_model=DTModel.PDTM, forgiving=0.3)
        world = World(seed=1)
        world.add_peer(0, PeerBehavior.honest(), params)
        world.add_peer(1, PeerBehavior.persistent(), params)
        world.add_peer(2, PeerBehavior.honest(), params)
        seed_history(world, 0, 1, n_clean=0, n_polluted=3)
        seed_history(world, 2, 1, n_clean=0, n_polluted=4)
        seed_history(world, 0, 2, n_clean=3)
        asked = []
        ask = sim_engine.recommendation_value

        def counting(*args):
            asked.append(args)
            return ask(*args)

        for r in range(1, 7):
            world.round = r
            monkeypatch.setattr(sim_engine, "recommendation_value", counting)
            got = score_candidates(world, 0, (1,))
            monkeypatch.undo()
            assert got == fresh_scores(world, 0, (1,)), r
            assert got[0].direct == got[0].indirect == 0.0
            assert world.peers[0].views[1] == got[0]._replace(indirect=0.5, combined=0.125)
            assert world.peers[2].reports == {1: 0.0}
        assert len(asked) == 1

    def test_recommender_gains_the_subject_later(self):
        # nothing decays, so 0 keeps its view of 1, scored with
        # cold-start trust; when 2 later receives from 1, with no delivery to
        # 0, the walk's report must replace the cold start in 0's score
        world = make_world(3)
        seed_history(world, 0, 1, n_clean=2, n_polluted=1)
        seed_history(world, 0, 2, n_clean=3)
        world.round = 1
        before = score_candidates(world, 0, (1,))[0]
        assert before.indirect == 0.5 and world.peers[0].views[1] == before
        world.round = 2
        seed_history(world, 2, 1, n_clean=1, n_polluted=3)  # 2 recommends 1 at 0.25
        got = score_candidates(world, 0, (1,))[0]
        assert got == fresh_scores(world, 0, (1,))[0]
        assert got.indirect == 0.25 and got.combined != before.combined
        assert world.peers[0].views[1] == before  # still the score of 1 with no report


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
                           candidates=[1, 0])
        assert world.peers == {} and world.requesters == []

    def test_repeated_candidate_rejected(self):
        # a repeat would rank the candidate twice and take two chunks from it
        # in one round; candidates are strictly increasing, like every id list
        world = World(seed=1)
        for candidates, message in (((1, 1), "1 follows 1"), ((2, 1), "1 follows 2")):
            with pytest.raises(ValueError, match="^candidates of peer 0 must be strictly "
                                                 f"increasing: {message}$"):
                world.add_peer(0, PeerBehavior.honest(), forced_params(k_providers=3),
                               budget=3, candidates=candidates)
        assert world.peers == {} and world.requesters == []

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        # at -1, admitted[:budget] kept all but the last admitted provider; at
        # 0 the peer selected, drawing probes and flagging detections, but
        # never received
        world = World(seed=1)
        with pytest.raises(ValueError, match=f"^peer 0 has request budget {budget}, expected >= 1$"):
            world.add_peer(0, PeerBehavior.honest(), forced_params(k_providers=3),
                           budget=budget, candidates=(1, 2, 3))
        assert world.peers == {} and world.requesters == []

    @pytest.mark.parametrize("budget", [1.5, True, "2"])
    def test_non_int_budget_rejected(self, budget):
        # at 1.5 the first round raised TypeError from admitted[:budget]
        world = World(seed=1)
        with pytest.raises(ValueError, match=f"^peer 0 has budget {budget!r}, expected an int$"):
            world.add_peer(0, PeerBehavior.honest(), forced_params(), budget=budget,
                           candidates=(1, 2))
        assert world.peers == {} and world.requesters == []

    def test_candidate_never_added_rejected_before_selection(self):
        # delivery used to raise KeyError: 5 after selection had drawn and flagged
        world = World(seed=1)
        world.add_peer(0, PeerBehavior.honest(), forced_params(), budget=2, candidates=(1, 5))
        world.add_peer(1, PeerBehavior.honest(), forced_params())
        assert world.missing == {5}
        with pytest.raises(ValueError, match=r"^candidates \[5\] were never added as peers$"):
            run_round(world)
        assert world.round == 0 and world.event_log == [] and world.detections == {}
        world.add_peer(5, PeerBehavior.honest(), forced_params())
        assert world.missing == set()
        run_round(world)
        assert [ev.provider for ev in world.event_log] == [1, 5]

    @pytest.mark.parametrize("behavior", [PeerBehavior.collab_static((1, 2)),
                                          PeerBehavior.collab_rotating((1, 2))])
    def test_colluder_outside_its_group_rejected(self, behavior):
        # such a peer never pollutes, yet its summary row names a collusion kind
        world = World(seed=1)
        with pytest.raises(ValueError, match=r"^peer 3 is not in its collusion group \[1, 2\]$"):
            world.add_peer(3, behavior, forced_params())
        assert world.peers == {}

    def test_requesters_kept_in_id_order(self):
        # a peer requests exactly when it has candidates: 5 has none
        world = World(seed=1)
        for pid in (4, 0, 7, 2, 5, 1):
            world.add_peer(pid, PeerBehavior.honest(), forced_params(),
                           candidates=() if pid == 5 else [3])
        assert world.requesters == [0, 1, 2, 4, 7]

    def test_forced_polluter_delivery(self):
        world = World(seed=1)
        world.add_peer(0, PeerBehavior.honest(), forced_params(),
                       candidates=[1])
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
                       budget=2, candidates=[1, 2, 3])
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
                    PeerBehavior.honest(),
                    params,
                    candidates=[c for c in range(6) if c != pid] if pid < 3 else (),
                    loss_rate=0.3 if pid else 0.0,
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
            world.add_peer(pid, PeerBehavior.honest(), forced_params(),
                           candidates=[c for c in range(4) if c != pid], loss_rate=0.2)
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
        world = World(seed=3, warmup_rounds=1)
        world.add_peer(0, PeerBehavior.honest(), params, budget=1, candidates=[1, 2])
        world.add_peer(1, PeerBehavior.persistent(), params)
        world.add_peer(2, PeerBehavior.honest(), params)
        for _ in range(60):
            run_round(world)
        polluter_rounds = [ev.round_no for ev in world.event_log if ev.provider == 1]
        assert polluter_rounds == [1]  # probed once during warmup, then banned
        assert world.detections[1] == 2

    def test_delivery_mid_round_refreshes_what_a_recommender_reports(self, monkeypatch):
        # X=0 asks about P=1 through R=2, then R receives a polluted chunk
        # from P, then Y=3 asks about P through R: Y must see R's new view.
        # X and Y have no history with P, so alpha is 0 and trust is indirect
        world = World(seed=1)
        for pid in (0, 2, 3):
            world.add_peer(pid, PeerBehavior.honest(), forced_params(),
                           candidates=[1])
        world.add_peer(1, PeerBehavior.persistent(), forced_params())
        seed_history(world, 2, 1, n_clean=3)  # R's view of P before the round
        seed_history(world, 0, 2, n_clean=3)  # X and Y have received from R
        seed_history(world, 3, 2, n_clean=3)
        select = sim_engine.select_providers
        trust = {}

        def checked(world, requester, candidates):
            want = [comp.combined for comp in fresh_scores(world, requester, candidates)]
            got = select(world, requester, candidates)
            assert got == list(zip(candidates, want))  # thresholds zeroed: all admitted
            trust[requester] = got[0][1]
            return got

        monkeypatch.setattr(sim_engine, "select_providers", checked)
        run_round(world)
        assert [(ev.requester, ev.provider) for ev in world.event_log] == [(0, 1), (2, 1), (3, 1)]
        assert trust[3] < trust[0]

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
        n = sim_engine.WARMUP_BUDGET
        world = World(seed=1, warmup_rounds=2)
        world.add_peer(0, PeerBehavior.honest(), forced_params(k_providers=n + 1),
                       budget=1, candidates=range(1, n + 2))
        for pid in range(1, n + 2):
            world.add_peer(pid, PeerBehavior.honest(), forced_params())
        run_round(world)
        run_round(world)
        assert len(world.event_log) == 2 * n  # WARMUP_BUDGET per warmup round
        run_round(world)
        assert len(world.event_log) == 2 * n + 1  # back to the configured budget
