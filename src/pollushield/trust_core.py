"""Core trust math: confidence factors, direct/indirect trust, decay, thresholds.

Every function here is pure: it reads its arguments, returns a value, and
touches no global state. All trust-like quantities live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, NamedTuple, Optional, Sequence, Tuple


class CFModel(Enum):
    """How the direct-vs-indirect weight grows with transaction count."""

    CFDA = "cfda"          # n / (n + c)
    CFDB = "cfdb"          # 1 - beta ** n
    CONSTANT = "constant"  # fixed weight, ignores history


class DTModel(Enum):
    """Direct trust model computed from clean/polluted chunk counters."""

    DTMA = "dtma"  # clean / (clean + polluted)
    DTMB = "dtmb"  # (clean + 1) / (clean + polluted + 2)
    PDTM = "pdtm"  # exp(-rho * polluted) * clean / (clean + eta)


class ChunkQuality(Enum):
    CLEAN = "clean"
    POLLUTED = "polluted"


class TrustState(NamedTuple):
    """Decayed evidence one peer holds about another.

    Counters are real-valued: exponential decay produces fractional counts,
    and rounding them would break the monotonicity of the trust models.
    """

    n_clean: float = 0.0
    n_polluted: float = 0.0
    n_transactions: float = 0.0
    last_update: float = 0.0


EMPTY_STATE = TrustState()


@dataclass(frozen=True)
class TrustParams:
    """All tunable constants of the trust pipeline.

    One instance describes a single peer's configuration; worlds may give
    different peers different parameter sets.
    """

    cf_model: CFModel = CFModel.CFDA
    cf_constant: float = 0.5       # fixed weight when cf_model is CONSTANT
    c: float = 1.0                 # CFDA: transactions needed to reach weight 0.5
    beta: float = 0.5              # CFDB base, in (0, 1)
    dt_model: DTModel = DTModel.PDTM
    rho: float = math.log(2.0)     # PDTM penalty exponent per polluted chunk;
                                   # ln(1 + 1/eta) at eta = 1: the boundary setting
    eta: float = 1.0               # PDTM clean-count offset
    forgetting: float = 0.0        # per-round decay rate of clean evidence
    forgiving: float = 0.0         # per-round decay rate of polluted evidence
    theta_p: float = 0.5           # below this trust: refuse to transact
    theta_g: float = 0.9           # at or above: transact unconditionally
    chi: float = 0.5               # transaction probability inside the gray zone
    k_providers: int = 5           # how many top-trust providers to consider
    k_recommenders: int = 5        # how many top-credibility recommenders to keep
    cold_start_trust: float = 0.5  # substitute when no evidence exists at all

    def __post_init__(self) -> None:
        for name in ("c", "rho", "eta", "forgetting", "forgiving"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.rho <= 0 or self.eta <= 0:
            raise ValueError("rho and eta must be positive")
        if self.forgetting < 0 or self.forgiving < 0:
            raise ValueError("decay rates must be non-negative")
        for name in ("cf_constant", "theta_p", "theta_g", "chi", "cold_start_trust"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.theta_p > self.theta_g:
            raise ValueError("theta_p must not exceed theta_g")
        if self.k_providers < 1 or self.k_recommenders < 1:
            raise ValueError("k_providers and k_recommenders must be >= 1")

    def diagnostics(self) -> List[str]:
        """Valid but questionable settings, one message each."""
        found = []
        if (self.forgetting > 0 or self.forgiving > 0) and self.forgetting <= self.forgiving:
            found.append(
                "forgetting <= forgiving: polluted evidence fades at least as "
                "fast as clean evidence, which weakens on-off resistance"
            )
        return found


class OnOffMargin(NamedTuple):
    ratio: float       # trust drop from N polluted over trust gain from N clean
    bound: float       # (1 - e^{-rho N}) (eta + N); <= ratio iff nc(nc+N+eta) >= eta N (eta+N)
    resistant: bool    # rho > ln(1 + 1/eta)


def confidence_factor(n: float, params: TrustParams) -> float:
    """Weight of direct trust, grown from the decayed transaction count.

    Zero with no history, strictly increasing, and tending to 1, so a peer
    leans on recommendations exactly while it lacks first-hand evidence.
    """
    if params.cf_model is CFModel.CFDA:
        return n / (n + params.c)
    if params.cf_model is CFModel.CFDB:
        return 1.0 - params.beta ** n
    return params.cf_constant


def direct_trust(nc: float, np_: float, params: TrustParams) -> float:
    """Trust from first-hand chunk deliveries under the selected model,
    given the decayed clean and polluted counts.

    DTMA is undefined at (0, 0); it falls back to cold_start_trust so an
    unknown peer is neither embraced nor condemned.
    """
    model = params.dt_model
    if model is DTModel.DTMA:
        total = nc + np_
        if total == 0.0:
            return params.cold_start_trust
        return nc / total
    if model is DTModel.DTMB:
        return (nc + 1.0) / (nc + np_ + 2.0)
    return math.exp(-params.rho * np_) * nc / (nc + params.eta)


def indirect_trust(
    recommendations: Sequence[Tuple[float, float]],
) -> Optional[float]:
    """Credibility-weighted mean of recommendation values.

    Each element is (credibility, value), both in [0, 1]. Returns None when
    the list is empty or no recommender carries positive credibility; the
    caller substitutes cold-start trust or pure direct trust.
    """
    total = 0.0
    weighted = 0.0
    for cred, value in recommendations:
        total += cred
        weighted += cred * value
    if total == 0.0:
        return None
    return weighted / total


def combine_trust(direct: float, indirect: float, alpha: float) -> float:
    """Convex combination alpha * direct + (1 - alpha) * indirect."""
    return alpha * direct + (1.0 - alpha) * indirect


def decayed_counts(
    state: TrustState, now: float, params: TrustParams
) -> Tuple[float, float, float]:
    """The state's (n_clean, n_polluted, n_transactions) aged to `now`:
    clean counts fade at the forgetting rate, polluted counts at the
    forgiving rate, transaction counts with the clean evidence.

    Raises ValueError when `now` precedes the state's last update.
    """
    nc, np_, n, last = state
    dt = now - last
    if dt < 0:
        raise ValueError(f"time regression: now={now} precedes last_update={last}")
    if dt == 0.0:
        return nc, np_, n
    # a zero rate keeps everything; exp(-0.0 * dt) is exactly 1.0 anyway
    keep_clean = math.exp(-params.forgetting * dt) if params.forgetting else 1.0
    keep_polluted = math.exp(-params.forgiving * dt) if params.forgiving else 1.0
    return nc * keep_clean, np_ * keep_polluted, n * keep_clean


def decays(state: TrustState, params: TrustParams) -> bool:
    """Whether the state's decayed counts move with time. When false they
    equal the stored counts bit for bit at every later time: a zero rate
    keeps a count unscaled, and a zero count stays 0.0 at any rate."""
    return bool((params.forgetting > 0 and (state.n_clean or state.n_transactions))
                or (params.forgiving > 0 and state.n_polluted))


def record_delivery(
    state: TrustState, quality: ChunkQuality, now: float, params: TrustParams
) -> TrustState:
    """The state decayed to `now` with one received chunk counted at full
    weight.

    Raises ValueError when `now` precedes the state's last update.
    """
    nc, np_, n = decayed_counts(state, now, params)
    if quality is ChunkQuality.CLEAN:
        return TrustState(nc + 1.0, np_, n + 1.0, now)
    return TrustState(nc, np_ + 1.0, n + 1.0, now)


def transaction_probability(trust: float, params: TrustParams) -> float:
    """Double-threshold policy: refuse below theta_p, probe with probability
    chi in the gray zone, accept unconditionally at or above theta_g."""
    if trust < params.theta_p:
        return 0.0
    if trust < params.theta_g:
        return params.chi
    return 1.0


def onoff_resistance_margin(
    state: TrustState, n_chunks: int, params: TrustParams
) -> OnOffMargin:
    """Compare the trust drop from `n_chunks` polluted uploads against the
    gain from the same number of clean uploads, under PDTM.

    Returns the drop/gain ratio, the closed-form floor
    (1 - e^{-rho N}) (eta + N), and whether rho > ln(1 + 1/eta). Since
    ratio / bound = n_clean (n_clean + N + eta) / (eta N (eta + N)), the floor
    holds iff n_clean (n_clean + N + eta) >= eta N (eta + N); with thinner
    clean evidence the ratio falls below it. n_clean >= eta * N is sufficient
    for the floor and, when `resistant` (which makes the floor exceed 1), for
    ratio > 1.
    """
    if params.dt_model is not DTModel.PDTM:
        raise ValueError("on-off resistance margin is defined for PDTM only")
    if n_chunks < 1:
        raise ValueError("n_chunks must be a positive integer")
    nc, np_ = state.n_clean, state.n_polluted
    if nc <= 0.0:
        raise ValueError("degenerate state: n_clean must be positive")
    rho, eta = params.rho, params.eta
    # the drop/gain quotient with the shared exp(-rho * n_polluted) factor
    # canceled, which stays finite even where that factor underflows
    ratio = (1.0 - math.exp(-rho * n_chunks)) * nc * (nc + n_chunks + eta) / (eta * n_chunks)
    bound = (1.0 - math.exp(-rho * n_chunks)) * (eta + n_chunks)
    return OnOffMargin(ratio=ratio, bound=bound, resistant=rho > math.log(1.0 + 1.0 / eta))
