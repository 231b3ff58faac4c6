import random
from types import SimpleNamespace

import pytest

from pollushield import behaviors
from pollushield.behaviors import PeerBehavior, recommendation_value, upload_quality
from pollushield.trust_core import ChunkQuality

CLEAN, POLLUTED = ChunkQuality.CLEAN, ChunkQuality.POLLUTED


def qualities(behavior, uploader, n, rng=None, round_of=lambda i: i):
    rng = rng or random.Random(0)
    return [
        upload_quality(behavior, uploader, round_of(i), i, rng) for i in range(n)
    ]


class TestUploadQuality:
    def test_persistent_always_polluted(self):
        assert qualities(PeerBehavior.persistent(), 7, 10) == [POLLUTED] * 10

    def test_onoff_20_percent_cycle(self):
        got = qualities(PeerBehavior.onoff(0.2), 7, 10)
        expect = [CLEAN] * 4 + [POLLUTED] + [CLEAN] * 4 + [POLLUTED]
        assert got == expect

    def test_onoff_50_percent_cycle(self):
        got = qualities(PeerBehavior.onoff(0.5), 7, 6)
        assert got == [CLEAN, POLLUTED] * 3

    def test_honest_lossless_always_clean(self):
        assert qualities(PeerBehavior.honest(), 7, 20) == [CLEAN] * 20

    def test_honest_total_loss_always_polluted(self):
        assert qualities(PeerBehavior.honest(loss_rate=1.0), 7, 5) == [POLLUTED] * 5

    def test_badmouther_uploads_honestly(self):
        behavior = PeerBehavior.badmouther((3,), slander_prob=1.0)
        assert qualities(behavior, 7, 5) == [CLEAN] * 5

    @pytest.mark.parametrize("ratio,n", [(0.5, 17), (0.2, 43), (0.1, 101)])
    def test_onoff_polluted_count(self, ratio, n):
        behavior = PeerBehavior.onoff(ratio)
        got = qualities(behavior, 7, n)
        assert got.count(POLLUTED) == n // behavior.cycle_length

    def test_onoff_long_run_fraction(self):
        for ratio in (0.5, 0.2, 0.1):
            got = qualities(PeerBehavior.onoff(ratio), 7, 1000)
            assert got.count(POLLUTED) / 1000 == pytest.approx(ratio)

    def test_collab_static_designated_only(self):
        behavior = PeerBehavior.collab_static((1, 2, 3), designated=2)
        assert qualities(behavior, 2, 5) == [POLLUTED] * 5
        assert qualities(behavior, 1, 5) == [CLEAN] * 5
        assert qualities(behavior, 3, 5) == [CLEAN] * 5

    def test_collab_rotating_round_robin(self):
        group = (4, 5, 6)
        behavior = PeerBehavior.collab_rotating(group, period=1)
        rng = random.Random(0)
        for round_no in range(9):
            duty = group[round_no % 3]
            for member in group:
                q = upload_quality(behavior, member, round_no, 0, rng)
                assert q == (POLLUTED if member == duty else CLEAN)

    def test_collab_rotating_member_fraction(self):
        group = tuple(range(1, 11))
        behavior = PeerBehavior.collab_rotating(group, period=1)
        got = qualities(behavior, 1, 200, round_of=lambda i: i)
        assert got.count(POLLUTED) / 200 == pytest.approx(1 / len(group))

    def test_rotation_period_stretches_duty(self):
        group = (1, 2)
        behavior = PeerBehavior.collab_rotating(group, period=3)
        rng = random.Random(0)
        duties = [upload_quality(behavior, 1, r, 0, rng) for r in range(12)]
        assert duties == [POLLUTED] * 3 + [CLEAN] * 3 + [POLLUTED] * 3 + [CLEAN] * 3

    def test_deterministic_replay(self):
        behavior = PeerBehavior.honest(loss_rate=0.4)
        a = qualities(behavior, 7, 100, rng=random.Random("replay"))
        b = qualities(behavior, 7, 100, rng=random.Random("replay"))
        assert a == b


class TestRecommendationValue:
    def test_honest_passthrough(self):
        for behavior in (PeerBehavior.honest(), PeerBehavior.persistent(), PeerBehavior.onoff(0.2)):
            assert recommendation_value(behavior, 1, 2, 0.73, seed=0, round_no=1) == 0.73

    def test_badmouther_slanders_target(self):
        behavior = PeerBehavior.badmouther((5,), slander_prob=1.0)
        assert all(recommendation_value(behavior, 1, 5, 0.9, seed=0, round_no=r) == 0.0
                   for r in range(1, 50))

    def test_badmouther_spares_non_target(self):
        behavior = PeerBehavior.badmouther((5,), slander_prob=1.0)
        assert recommendation_value(behavior, 1, 6, 0.9, seed=0, round_no=1) == 0.9

    def test_badmouther_zero_probability_is_honest(self):
        behavior = PeerBehavior.badmouther((5,), slander_prob=0.0)
        assert all(recommendation_value(behavior, 1, 5, 0.9, seed=0, round_no=r) == 0.9
                   for r in range(1, 50))

    @pytest.mark.parametrize("p, want", [(0.0, 0.9), (1.0, 0.0)])
    def test_certain_outcome_draws_nothing(self, monkeypatch, p, want):
        def no_draw(*_args):
            raise AssertionError("a certain outcome seeded a random stream")

        monkeypatch.setattr(behaviors, "random", SimpleNamespace(Random=no_draw))
        behavior = PeerBehavior.badmouther((5,), slander_prob=p)
        assert recommendation_value(behavior, 1, 5, 0.9, seed=0, round_no=1) == want

    def test_badmouther_partial_probability(self):
        behavior = PeerBehavior.badmouther((5,), slander_prob=0.5)
        values = [recommendation_value(behavior, 1, 5, 0.9, seed=3, round_no=r)
                  for r in range(1, 51)]
        assert set(values) == {0.0, 0.9}
        # a lie is keyed on (seed, recommender, subject, round): asking again
        # in the same round gives the same answer
        assert values == [recommendation_value(behavior, 1, 5, 0.9, seed=3, round_no=r)
                          for r in range(1, 51)]

    def test_lies_about_only_a_badmouthers_targets(self):
        badmouther = PeerBehavior.badmouther((5, 7), slander_prob=0.5)
        assert [badmouther.lies_about(s) for s in (5, 6, 7)] == [True, False, True]
        for behavior in (PeerBehavior.honest(), PeerBehavior.collab_rotating((1, 5))):
            assert not behavior.lies_about(5)

    def test_collab_endorses_members(self):
        behavior = PeerBehavior.collab_static((1, 2, 3), designated=1)
        assert recommendation_value(behavior, 2, 3, 0.1, seed=0, round_no=1) == 1.0

    def test_collab_honest_about_outsiders(self):
        behavior = PeerBehavior.collab_rotating((1, 2, 3))
        assert recommendation_value(behavior, 2, 9, 0.42, seed=0, round_no=1) == 0.42


class TestValidation:
    def test_onoff_ratio_bounds(self):
        with pytest.raises(ValueError):
            PeerBehavior.onoff(0.0)
        with pytest.raises(ValueError):
            PeerBehavior.onoff(1.0)

    def test_static_designated_must_be_member(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_static((1, 2), designated=9)

    def test_group_must_be_non_empty(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_rotating(())

    def test_rotation_period_positive(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_rotating((1, 2), period=0)

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            PeerBehavior.honest(loss_rate=1.5)

    def test_labels(self):
        assert PeerBehavior.onoff(0.2).label == "onoff(0.2)"
        assert PeerBehavior.persistent().label == "persistent"
