import random
from pollushield import replace
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
        behavior = PeerBehavior.badmouther((3,))
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
        behavior = PeerBehavior.collab_rotating(group)
        rng = random.Random(0)
        for round_no in range(9):
            duty = group[round_no % 3]
            for member in group:
                q = upload_quality(behavior, member, round_no, 0, rng)
                assert q == (POLLUTED if member == duty else CLEAN)

    def test_collab_rotating_member_fraction(self):
        group = tuple(range(1, 11))
        behavior = PeerBehavior.collab_rotating(group)
        got = qualities(behavior, 1, 200, round_of=lambda i: i)
        assert got.count(POLLUTED) / 200 == pytest.approx(1 / len(group))

    def test_deterministic_replay(self):
        behavior = PeerBehavior.honest(loss_rate=0.4)
        a = qualities(behavior, 7, 100, rng=random.Random("replay"))
        b = qualities(behavior, 7, 100, rng=random.Random("replay"))
        assert a == b


class TestRecommendationValue:
    def test_honest_passthrough(self):
        for behavior in (PeerBehavior.honest(), PeerBehavior.persistent(), PeerBehavior.onoff(0.2)):
            assert recommendation_value(behavior, 2, 0.73) == 0.73

    def test_badmouther_slanders_target(self):
        behavior = PeerBehavior.badmouther((5,))
        assert recommendation_value(behavior, 5, 0.9) == 0.0

    def test_badmouther_spares_non_target(self):
        behavior = PeerBehavior.badmouther((5,))
        assert recommendation_value(behavior, 6, 0.9) == 0.9

    def test_lie_draws_nothing(self, monkeypatch):
        def no_draw(*_args):
            raise AssertionError("a report seeded a random stream")

        monkeypatch.setattr(behaviors, "random", SimpleNamespace(Random=no_draw))
        behavior = PeerBehavior.badmouther((5,))
        assert recommendation_value(behavior, 5, 0.9) == 0.0

    def test_collab_endorses_members(self):
        behavior = PeerBehavior.collab_static((1, 2, 3), designated=1)
        assert recommendation_value(behavior, 3, 0.1) == 1.0

    def test_collab_honest_about_outsiders(self):
        behavior = PeerBehavior.collab_rotating((1, 2, 3))
        assert recommendation_value(behavior, 9, 0.42) == 0.42


class TestValidation:
    def test_onoff_ratio_bounds(self):
        with pytest.raises(ValueError):
            PeerBehavior.onoff(0.0)
        with pytest.raises(ValueError):
            PeerBehavior.onoff(1.0)
        # in (0, 1), but 1 / on_ratio is inf and cycle_length cannot round it
        with pytest.raises(ValueError):
            PeerBehavior.onoff(1e-320)

    def test_static_designated_must_be_member(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_static((1, 2), designated=9)

    def test_group_must_be_non_empty(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_rotating(())

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            PeerBehavior.honest(loss_rate=1.5)

    @pytest.mark.parametrize("base, field, value", [
        (PeerBehavior.honest(), "on_ratio", 7.0),
        (PeerBehavior.honest(), "target_set", (1,)),
        (PeerBehavior.badmouther((1,)), "on_ratio", 0.5),
        (PeerBehavior.persistent(), "target_set", (1, 2)),
        (PeerBehavior.badmouther((1,)), "group", (1, 2)),
        (PeerBehavior.onoff(0.5), "designated_polluter", 3),
        (PeerBehavior.collab_rotating((1, 2)), "designated_polluter", 1),
        # only honest and bad-mouthing uploads can be corrupted by loss
        (PeerBehavior.persistent(), "loss_rate", 0.3),
        (PeerBehavior.onoff(0.5), "loss_rate", 0.3),
        (PeerBehavior.collab_static((1, 2), designated=1), "loss_rate", 0.3),
        (PeerBehavior.collab_rotating((1, 2)), "loss_rate", 0.3),
    ])
    def test_field_its_kind_never_reads_rejected(self, base, field, value):
        # every builder sets only its own kind's fields, so none of these was ever read
        with pytest.raises(ValueError, match=f"^{field} is read only .*, not {base.kind.value}$"):
            replace(base, **{field: value})

    def test_labels(self):
        assert PeerBehavior.onoff(0.2).label == "onoff(0.2)"
        assert PeerBehavior.persistent().label == "persistent"
