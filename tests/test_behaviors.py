import inspect

import pytest

from pollushield import behaviors, replace
from pollushield.behaviors import PeerBehavior, _READERS, recommendation_value, upload_quality
from pollushield.sim_engine import World, run_round
from pollushield.trust_core import ChunkQuality, TrustParams

CLEAN, POLLUTED = ChunkQuality.CLEAN, ChunkQuality.POLLUTED


def qualities(behavior, uploader, n, round_of=lambda i: i):
    return [upload_quality(behavior, uploader, round_of(i), i) for i in range(n)]


def delivered(behavior, loss_rate, rounds, seed=1):
    """The qualities peer 0 receives from peer 1, which has `behavior` and
    `loss_rate`, over `rounds` rounds of forced transactions."""
    params = TrustParams(theta_p=0.0, theta_g=0.0)
    world = World(seed)
    world.add_peer(0, PeerBehavior.honest(), params, candidates=(1,))
    world.add_peer(1, behavior, params, loss_rate=loss_rate)
    for _ in range(rounds):
        run_round(world)
    return [ev.quality for ev in world.event_log]


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
        # loss is the world's: an honest upload, clean as sent, arrives polluted
        assert delivered(PeerBehavior.honest(), 1.0, 5) == [POLLUTED] * 5

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
        # the group's lowest member pollutes, whatever order it is given in
        behavior = PeerBehavior.collab_static((3, 1, 2))
        assert qualities(behavior, 1, 5) == [POLLUTED] * 5
        assert qualities(behavior, 2, 5) == [CLEAN] * 5
        assert qualities(behavior, 3, 5) == [CLEAN] * 5

    def test_collab_rotating_round_robin(self):
        group = (4, 5, 6)
        behavior = PeerBehavior.collab_rotating(group)
        for round_no in range(9):
            duty = group[round_no % 3]
            for member in group:
                q = upload_quality(behavior, member, round_no, 0)
                assert q == (POLLUTED if member == duty else CLEAN)

    def test_collab_rotating_member_fraction(self):
        group = tuple(range(1, 11))
        behavior = PeerBehavior.collab_rotating(group)
        got = qualities(behavior, 1, 200, round_of=lambda i: i)
        assert got.count(POLLUTED) / 200 == pytest.approx(1 / len(group))

    def test_deterministic_replay(self):
        # loss draws from the uploader's own stream, seeded by the world's seed
        a = delivered(PeerBehavior.honest(), 0.4, 100, seed=5)
        assert a == delivered(PeerBehavior.honest(), 0.4, 100, seed=5)
        assert CLEAN in a and POLLUTED in a


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

    def test_lie_draws_nothing(self):
        # neither an upload nor a report takes a stream, and the module has none
        assert not hasattr(behaviors, "random")
        assert list(inspect.signature(upload_quality).parameters) == [
            "behavior", "uploader", "round_no", "interaction_index"]
        assert list(inspect.signature(recommendation_value).parameters) == [
            "behavior", "subject", "honest_value"]
        assert recommendation_value(PeerBehavior.badmouther((5,)), 5, 0.9) == 0.0

    def test_collab_endorses_members(self):
        behavior = PeerBehavior.collab_static((1, 2, 3))
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

    def test_group_must_be_non_empty(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_rotating(())

    def test_loss_rate_bounds(self):
        # a peer's loss rate is the world's, checked where the world takes it
        world = World(seed=1)
        for rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^loss_rate must lie in \[0, 1\]$"):
                world.add_peer(0, PeerBehavior.honest(), TrustParams(), loss_rate=rate)
        assert world.peers == {}

    @pytest.mark.parametrize("base, field, value", [
        (PeerBehavior.honest(), "on_ratio", 7.0),
        (PeerBehavior.honest(), "target_set", (1,)),
        (PeerBehavior.badmouther((1,)), "on_ratio", 0.5),
        (PeerBehavior.persistent(), "target_set", (1, 2)),
        (PeerBehavior.badmouther((1,)), "group", (1, 2)),
        (PeerBehavior.onoff(0.5), "group", (1, 2)),
        (PeerBehavior.collab_rotating((1, 2)), "on_ratio", 0.5),
        # only honest and bad-mouthing uploads can be corrupted by loss, a
        # rate the world takes per peer
        (PeerBehavior.persistent(), "loss_rate", 0.3),
        (PeerBehavior.onoff(0.5), "loss_rate", 0.3),
        (PeerBehavior.collab_static((1, 2)), "loss_rate", 0.3),
        (PeerBehavior.collab_rotating((1, 2)), "loss_rate", 0.3),
    ])
    def test_field_its_kind_never_reads_rejected(self, base, field, value):
        # every builder sets only its own kind's fields, so none of these was ever read
        with pytest.raises(ValueError, match=f"^{field} is read only .*, not {base.kind.value}$"):
            if field == "loss_rate":
                World(seed=1).add_peer(0, base, TrustParams(), loss_rate=value)
            else:
                replace(base, **{field: value})

    def test_every_kind_specific_field_has_readers(self):
        # validate reads a field missing from _READERS as read by every kind
        assert set(_READERS) == set(PeerBehavior._fields) - {"kind"}

    def test_labels(self):
        assert PeerBehavior.onoff(0.2).label == "onoff(0.2)"
        assert PeerBehavior.persistent().label == "persistent"
