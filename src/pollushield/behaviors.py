"""Peer strategies: honest uploaders and the four attacker archetypes.

A behavior decides two things about its owner: the quality of each chunk it
uploads, and the recommendation value it reports when asked about another
peer. Uploads are pure given the caller-supplied random stream and lies are
keyed on the seed and round, so identical seeds replay identical attack
traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .trust_core import ChunkQuality


class BehaviorKind(Enum):
    HONEST = "honest"
    PERSISTENT = "persistent"           # every upload polluted
    ONOFF = "onoff"                     # periodic pollution, clean chunks first
    BADMOUTH = "badmouth"               # uploads honestly, slanders targets
    COLLAB_STATIC = "collab_static"     # fixed polluter, accomplices endorse
    COLLAB_ROTATING = "collab_rotating" # polluter duty rotates round-robin


@dataclass(frozen=True)
class PeerBehavior:
    kind: BehaviorKind
    loss_rate: float = 0.0              # network corruption on honest uploads
    on_ratio: Optional[float] = None    # ONOFF: polluted fraction per cycle
    target_set: Tuple[int, ...] = ()    # BADMOUTH: peers to slander
    slander_prob: float = 0.0           # BADMOUTH: per-round lie probability
    group: Tuple[int, ...] = ()         # COLLAB_*: sorted member ids
    designated_polluter: Optional[int] = None  # COLLAB_STATIC only
    rotation_period: int = 1            # COLLAB_ROTATING: rounds per duty slot

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must lie in [0, 1]")
        if self.kind is BehaviorKind.ONOFF:
            if self.on_ratio is None or not 0.0 < self.on_ratio < 1.0:
                raise ValueError("on_ratio must lie in (0, 1)")
        if self.kind is BehaviorKind.BADMOUTH:
            if not 0.0 <= self.slander_prob <= 1.0:
                raise ValueError("slander_prob must lie in [0, 1]")
        if self.kind in (BehaviorKind.COLLAB_STATIC, BehaviorKind.COLLAB_ROTATING):
            if not self.group:
                raise ValueError("collusion group must be non-empty")
            if tuple(sorted(self.group)) != self.group:
                raise ValueError("collusion group must be sorted")
        if self.kind is BehaviorKind.COLLAB_STATIC:
            if self.designated_polluter not in self.group:
                raise ValueError("designated polluter must belong to the group")
        if self.rotation_period < 1:
            raise ValueError("rotation_period must be >= 1")

    # --- constructors ---

    @classmethod
    def honest(cls, loss_rate: float = 0.0) -> "PeerBehavior":
        return cls(kind=BehaviorKind.HONEST, loss_rate=loss_rate)

    @classmethod
    def persistent(cls) -> "PeerBehavior":
        return cls(kind=BehaviorKind.PERSISTENT)

    @classmethod
    def onoff(cls, on_ratio: float) -> "PeerBehavior":
        return cls(kind=BehaviorKind.ONOFF, on_ratio=on_ratio)

    @classmethod
    def badmouther(
        cls, targets: Tuple[int, ...], slander_prob: float, loss_rate: float = 0.0
    ) -> "PeerBehavior":
        return cls(
            kind=BehaviorKind.BADMOUTH,
            target_set=tuple(sorted(targets)),
            slander_prob=slander_prob,
            loss_rate=loss_rate,
        )

    @classmethod
    def collab_static(cls, group: Tuple[int, ...], designated: int) -> "PeerBehavior":
        return cls(
            kind=BehaviorKind.COLLAB_STATIC,
            group=tuple(sorted(group)),
            designated_polluter=designated,
        )

    @classmethod
    def collab_rotating(cls, group: Tuple[int, ...], period: int = 1) -> "PeerBehavior":
        return cls(
            kind=BehaviorKind.COLLAB_ROTATING,
            group=tuple(sorted(group)),
            rotation_period=period,
        )

    @property
    def cycle_length(self) -> int:
        """ONOFF period: one polluted chunk per this many uploads."""
        assert self.on_ratio is not None
        return max(1, round(1.0 / self.on_ratio))

    def lies_about(self, subject: int) -> bool:
        """Whether the owner's reports about `subject` may differ from its
        direct trust by round: a bad-mouther's about one of its targets."""
        return self.kind is BehaviorKind.BADMOUTH and subject in self.target_set

    @property
    def label(self) -> str:
        if self.kind is BehaviorKind.ONOFF:
            return f"onoff({self.on_ratio:g})"
        return self.kind.value


def upload_quality(
    behavior: PeerBehavior,
    uploader: int,
    round_no: int,
    interaction_index: int,
    rng: random.Random,
) -> ChunkQuality:
    """Quality of one upload from `uploader` to a single requesting peer.

    `interaction_index` counts this uploader's prior deliveries to that peer
    (starting at 0), so on-off cycles run independently per victim. Cycles
    are off-first: the clean chunks of a cycle precede its polluted one.
    Honest uploads are corrupted with probability loss_rate; the receiver
    cannot tell loss corruption from malice and records it as polluted.
    """
    kind = behavior.kind
    if kind in (BehaviorKind.HONEST, BehaviorKind.BADMOUTH):
        if behavior.loss_rate > 0.0 and rng.random() < behavior.loss_rate:
            return ChunkQuality.POLLUTED
        return ChunkQuality.CLEAN
    if kind is BehaviorKind.PERSISTENT:
        return ChunkQuality.POLLUTED
    if kind is BehaviorKind.ONOFF:
        cycle = behavior.cycle_length
        if interaction_index % cycle == cycle - 1:
            return ChunkQuality.POLLUTED
        return ChunkQuality.CLEAN
    if kind is BehaviorKind.COLLAB_STATIC:
        if uploader == behavior.designated_polluter:
            return ChunkQuality.POLLUTED
        return ChunkQuality.CLEAN
    # COLLAB_ROTATING: member on duty this round pollutes all its uploads
    group = behavior.group
    duty = (round_no // behavior.rotation_period) % len(group)
    if group[duty] == uploader:
        return ChunkQuality.POLLUTED
    return ChunkQuality.CLEAN


def recommendation_value(
    behavior: PeerBehavior,
    recommender: int,
    subject: int,
    honest_value: float,
    seed: int,
    round_no: int,
) -> float:
    """Recommendation the owner reports when asked about `subject`.

    Honest peers (and upload-only attackers) report their true direct trust.
    A bad-mouther zeroes out a targeted peer in a round when a uniform keyed
    on (seed, recommender, subject, round_no) falls below slander_prob, so it
    tells every enquirer the same thing within a round and draws from no
    stream. At slander_prob 0 or 1 the outcome is certain and nothing is
    drawn. Colluders endorse fellow group members at full trust.
    """
    if behavior.lies_about(subject):
        p = behavior.slander_prob
        if p == 0.0 or p == 1.0:
            return 0.0 if p == 1.0 else honest_value
        lie = random.Random(f"{seed}:{recommender}:{subject}:{round_no}:lie").random()
        return 0.0 if lie < p else honest_value
    if behavior.kind in (BehaviorKind.COLLAB_STATIC, BehaviorKind.COLLAB_ROTATING):
        if subject in behavior.group:
            return 1.0
        return honest_value
    return honest_value
