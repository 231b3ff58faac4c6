import inspect

import pytest

from pollushield import BehaviorKind, behaviors, replace
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
        got = qualities(PeerBehavior.onoff(5), 7, 10)
        expect = [CLEAN] * 4 + [POLLUTED] + [CLEAN] * 4 + [POLLUTED]
        assert got == expect

    def test_onoff_50_percent_cycle(self):
        got = qualities(PeerBehavior.onoff(2), 7, 6)
        assert got == [CLEAN, POLLUTED] * 3

    def test_honest_lossless_always_clean(self):
        assert qualities(PeerBehavior.honest(), 7, 20) == [CLEAN] * 20

    def test_honest_total_loss_always_polluted(self):
        # loss is the world's: an honest upload, clean as sent, arrives polluted
        assert delivered(PeerBehavior.honest(), 1.0, 5) == [POLLUTED] * 5

    def test_badmouther_uploads_honestly(self):
        behavior = PeerBehavior.badmouther((3,))
        assert qualities(behavior, 7, 5) == [CLEAN] * 5

    # ids name each period by its polluted share, as the summary labels do
    @pytest.mark.parametrize("period,n", [(2, 17), (5, 43), (10, 101)],
                             ids=["0.5-17", "0.2-43", "0.1-101"])
    def test_onoff_polluted_count(self, period, n):
        got = qualities(PeerBehavior.onoff(period), 7, n)
        assert got.count(POLLUTED) == n // period

    def test_onoff_long_run_fraction(self):
        for period in (2, 5, 10):
            got = qualities(PeerBehavior.onoff(period), 7, 1000)
            assert got.count(POLLUTED) / 1000 == pytest.approx(1 / period)

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
        for behavior in (PeerBehavior.honest(), PeerBehavior.persistent(), PeerBehavior.onoff(5)):
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
        # one polluted chunk per `period` uploads: period 1 would be persistent,
        # and a float or bool period is a second spelling of an int one
        for period in (0, 1, -1):
            with pytest.raises(ValueError, match=f"^period must be an int >= 2, got {period!r}$"):
                PeerBehavior.onoff(period)
        for period in (2.0, True):
            with pytest.raises(ValueError, match=f"^period: expected int, got {period!r}$"):
                PeerBehavior.onoff(period)
        assert PeerBehavior.onoff(2).period == 2

    def test_group_must_be_non_empty(self):
        with pytest.raises(ValueError):
            PeerBehavior.collab_rotating(())

    @pytest.mark.parametrize("target_set, message", [
        ((), "non-empty$"),
        ((3, 1), "strictly increasing: 1 follows 3$"),
        ((1, 1), "strictly increasing: 1 follows 1$"),
        ((1, 3, 3), "strictly increasing: 3 follows 3$"),
    ], ids=["empty", "unsorted", "repeated", "repeated_last"])
    def test_target_set_must_be_non_empty_and_strictly_increasing(self, target_set, message):
        # an empty set slanders no one, and (3, 1) or (1, 3, 3) would spell (1, 3) again
        with pytest.raises(ValueError, match=f"^target_set must be {message}"):
            PeerBehavior(kind=BehaviorKind.BADMOUTH, target_set=target_set)

    def test_badmouther_needs_a_target(self):
        # badmouther(()) would upload and report exactly as an honest peer
        with pytest.raises(ValueError, match="^target_set must be non-empty"):
            PeerBehavior.badmouther(())

    @pytest.mark.parametrize("kind", [BehaviorKind.COLLAB_STATIC, BehaviorKind.COLLAB_ROTATING])
    def test_repeated_group_member_rejected(self, kind):
        # (1, 1, 2) is sorted, but a rotating group would give peer 1 two duty rounds in three
        with pytest.raises(ValueError, match="^group must be strictly increasing: 1 follows 1$"):
            PeerBehavior(kind=kind, group=(1, 1, 2))
        with pytest.raises(ValueError, match="^group must be strictly increasing: 1 follows 2$"):
            PeerBehavior(kind=kind, group=(2, 1))

    @pytest.mark.parametrize("fields, message", [
        # built, then its label raised an AttributeError
        ({"kind": "honest"}, "kind: expected BehaviorKind, got 'honest'"),
        # float and bool ids passed the config's `in range(n_peers)`
        ({"kind": BehaviorKind.BADMOUTH, "target_set": (1.0, 2.0)},
         r"target_set\[0\]: expected int, got 1.0"),
        ({"kind": BehaviorKind.COLLAB_STATIC, "group": (True, 2)},
         r"group\[0\]: expected int, got True"),
        ({"kind": BehaviorKind.BADMOUTH, "target_set": [1, 2]},
         r"target_set: expected a tuple, got \[1, 2\]"),
        ({"kind": BehaviorKind.ONOFF, "period": "5"}, "period: expected int, got '5'"),
    ], ids=["kind_str", "float_target", "bool_member", "list_target_set", "str_period"])
    def test_wrongly_typed_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PeerBehavior(**fields)

    def test_constructors_sort_their_input(self):
        assert PeerBehavior.badmouther((3, 1)).target_set == (1, 3)
        assert PeerBehavior.collab_rotating((3, 1, 2)).group == (1, 2, 3)

    def test_loss_rate_bounds(self):
        # a peer's loss rate is the world's, checked where the world takes it
        world = World(seed=1)
        for rate in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"^loss_rate must lie in \[0, 1\]$"):
                world.add_peer(0, PeerBehavior.honest(), TrustParams(), loss_rate=rate)
        assert world.peers == {}

    @pytest.mark.parametrize("base, field, value", [
        (PeerBehavior.honest(), "period", 7),
        (PeerBehavior.honest(), "target_set", (1,)),
        (PeerBehavior.badmouther((1,)), "period", 2),
        (PeerBehavior.persistent(), "target_set", (1, 2)),
        (PeerBehavior.badmouther((1,)), "group", (1, 2)),
        (PeerBehavior.onoff(2), "group", (1, 2)),
        (PeerBehavior.collab_rotating((1, 2)), "period", 2),
        # only honest and bad-mouthing uploads can be corrupted by loss, a
        # rate the world takes per peer
        (PeerBehavior.persistent(), "loss_rate", 0.3),
        (PeerBehavior.onoff(2), "loss_rate", 0.3),
        (PeerBehavior.collab_static((1, 2)), "loss_rate", 0.3),
        (PeerBehavior.collab_rotating((1, 2)), "loss_rate", 0.3),
        # equal to the default, but not an int: refused by the field's type first
        (PeerBehavior.honest(), "period", 0.0),
        (PeerBehavior.persistent(), "period", False),
    ])
    def test_field_its_kind_never_reads_rejected(self, base, field, value):
        # every builder sets only its own kind's fields, so none of these was ever read
        message = f"^{field} is read only .*, not {base.kind.value}$"
        if field == "period" and type(value) is not int:
            message = f"^period: expected int, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            if field == "loss_rate":
                World(seed=1).add_peer(0, base, TrustParams(), loss_rate=value)
            else:
                replace(base, **{field: value})

    def test_every_kind_specific_field_has_readers(self):
        # validate checks only the fields in _READERS
        assert set(_READERS) == set(PeerBehavior._fields) - {"kind"}

    def test_labels(self):
        # a period is labelled by its polluted share
        assert [PeerBehavior.onoff(p).label for p in (2, 5, 10, 3)] == [
            "onoff(0.5)", "onoff(0.2)", "onoff(0.1)", "onoff(0.333333)"]
        assert PeerBehavior.persistent().label == "persistent"
