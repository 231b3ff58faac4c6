"""Peer strategies: honest uploaders and the four attacker archetypes.

A behavior decides two things about its owner: the quality of each chunk it
uploads before the network touches it, and the recommendation value it
reports when asked about another peer. Neither draws anything, so identical
seeds replay identical attack traces; network loss is the world's, drawn
from each uploader's own stream.
"""

from enum import Enum
from typing import Tuple

from .trust_core import ChunkQuality, Record, check_increasing


class BehaviorKind(Enum):
    HONEST = "honest"
    PERSISTENT = "persistent"           # every upload polluted
    ONOFF = "onoff"                     # periodic pollution, clean chunks first
    BADMOUTH = "badmouth"               # uploads honestly, reports 0.0 about targets
    COLLAB_STATIC = "collab_static"     # lowest member pollutes, accomplices endorse
    COLLAB_ROTATING = "collab_rotating" # polluter duty passes to the next member each round


# bound once: before Python 3.12, `Enum.MEMBER` in a function costs an EnumType.__getattr__ call
_CLEAN, _POLLUTED = ChunkQuality.CLEAN, ChunkQuality.POLLUTED
_PERSISTENT, _ONOFF = BehaviorKind.PERSISTENT, BehaviorKind.ONOFF
_BADMOUTH, _COLLAB_STATIC = BehaviorKind.BADMOUTH, BehaviorKind.COLLAB_STATIC
LOSSY_KINDS = (BehaviorKind.HONEST, _BADMOUTH)  # loss can corrupt their uploads
_COLLAB = (_COLLAB_STATIC, BehaviorKind.COLLAB_ROTATING)
# the kinds that read each kind-specific field; any other kind leaves it at its default
_READERS = {"period": (_ONOFF,), "target_set": (_BADMOUTH,), "group": _COLLAB}


class PeerBehavior(Record):
    kind: BehaviorKind
    period: int = 0                     # ONOFF: one polluted chunk per this many uploads
    target_set: Tuple[int, ...] = ()    # BADMOUTH: peers to slander, strictly increasing
    group: Tuple[int, ...] = ()         # COLLAB_*: member ids, strictly increasing

    def validate(self) -> None:
        for name, readers in _READERS.items():
            if self.kind not in readers and getattr(self, name) != getattr(PeerBehavior, name):
                kinds = " or ".join(k.value for k in readers)
                raise ValueError(f"{name} is read only by kind {kinds}, not {self.kind.value}")
        if self.kind is _ONOFF and self.period < 2:  # period 1 would be persistent
            raise ValueError(f"period must be an int >= 2, got {self.period!r}")
        for name in ("target_set", "group"):
            if self.kind in _READERS[name]:
                if not getattr(self, name):
                    raise ValueError(f"{name} must be non-empty")
                check_increasing(name, getattr(self, name))

    # --- constructors ---

    @classmethod
    def honest(cls) -> "PeerBehavior":
        return cls(kind=BehaviorKind.HONEST)

    @classmethod
    def persistent(cls) -> "PeerBehavior":
        return cls(kind=BehaviorKind.PERSISTENT)

    @classmethod
    def onoff(cls, period: int) -> "PeerBehavior":
        return cls(kind=BehaviorKind.ONOFF, period=period)

    @classmethod
    def badmouther(cls, targets: Tuple[int, ...]) -> "PeerBehavior":
        return cls(kind=BehaviorKind.BADMOUTH, target_set=tuple(sorted(targets)))

    @classmethod
    def collab_static(cls, group: Tuple[int, ...]) -> "PeerBehavior":
        return cls(kind=BehaviorKind.COLLAB_STATIC, group=tuple(sorted(group)))

    @classmethod
    def collab_rotating(cls, group: Tuple[int, ...]) -> "PeerBehavior":
        return cls(kind=BehaviorKind.COLLAB_ROTATING, group=tuple(sorted(group)))

    @property
    def label(self) -> str:
        return f"onoff({1 / self.period:g})" if self.kind is _ONOFF else self.kind.value


def upload_quality(
    behavior: PeerBehavior,
    uploader: int,
    round_no: int,
    interaction_index: int,
) -> ChunkQuality:
    """Quality of one upload from `uploader` to a single requesting peer,
    as sent, before network loss.

    `interaction_index` counts this uploader's prior deliveries to that peer
    (starting at 0), so on-off cycles run independently per victim. Cycles
    are off-first: the clean chunks of a cycle precede its polluted one.
    Honest and bad-mouthing uploads are clean; loss may corrupt them on the
    way (`sim_engine.run_round`), and the receiver, unable to tell loss
    from malice, records such a chunk as polluted.
    """
    kind = behavior.kind
    if kind in LOSSY_KINDS:
        return _CLEAN
    if kind is _PERSISTENT:
        return _POLLUTED
    if kind is _ONOFF:  # the last upload of each period is polluted
        return _CLEAN if (interaction_index + 1) % behavior.period else _POLLUTED
    # a colluder on duty pollutes all its uploads: a static group's lowest
    # member, or a rotating group's member of this round
    group = behavior.group
    if uploader == (group[0] if kind is _COLLAB_STATIC else group[round_no % len(group)]):
        return _POLLUTED
    return _CLEAN


def recommendation_value(behavior: PeerBehavior, subject: int, honest_value: float) -> float:
    """Recommendation the owner reports when asked about `subject`.

    Honest peers (and upload-only attackers) report their true direct trust.
    A bad-mouther reports 0.0 about each of its targets, and colluders
    endorse fellow group members at full trust. A report depends on its
    arguments alone and draws nothing.
    """
    kind = behavior.kind
    if kind is _BADMOUTH and subject in behavior.target_set:
        return 0.0
    if kind in _COLLAB and subject in behavior.group:
        return 1.0
    return honest_value
