"""Core trust math: confidence factors, direct trust, combination, decay, thresholds.

Every function here is pure: it reads its arguments, returns a value, and
touches no global state. All trust-like quantities live in [0, 1].

`Record` and `replace`, the base of validated immutable records, and
`check_increasing`, the order rule of id lists, live in this lowest module.
"""

import math
from enum import Enum
from operator import lt
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple, Union


def canonical(tp: Any, value: Any, where: str) -> Any:
    """`value` as field `where` of annotation `tp` (a class, `Optional[X]` or
    a `Tuple`) stores it, else FieldTypeError naming the path: `where[0][2]:
    expected int, got 1.0`. A class matches by exact type (a bool is never an
    int; a record checked itself), but a float field takes an int and stores
    `float(value) + 0.0`, never -0.0: equal records hold identical bits."""
    cls = type(value)
    if tp is float and (cls is float or cls is int):
        try:
            return float(value) + 0.0
        except OverflowError:  # an int beyond float range
            raise FieldTypeError(f"{where}: expected float, got an int too large") from None
    if cls is tp:
        return value
    if isinstance(tp, type):
        raise FieldTypeError(f"{where}: expected {tp.__name__}, got {value!r}")
    args = tp.__args__
    if tp.__origin__ is Union:  # Optional[X]
        return None if value is None else canonical(args[0], value, where)
    if cls is not tuple:
        raise FieldTypeError(f"{where}: expected a tuple, got {value!r}")
    if args[-1] is Ellipsis:
        args = args[:1] * len(value)
    elif len(args) != len(value):
        raise FieldTypeError(f"{where}: expected {len(args)} items, got {len(value)}")
    stored = value  # a tuple with no float item is returned as it is
    for i, (item_tp, item) in enumerate(zip(args, value)):
        if type(item) is not item_tp or item_tp is float:  # items of their class inline
            new = canonical(item_tp, item, f"{where}[{i}]")
            if new is not item:
                stored = stored[:i] + (new,) + stored[i + 1:]
    return stored


def check_increasing(name: str, items: Sequence[Any]) -> None:
    """Raise ValueError unless id list `name` is strictly increasing (one spelling,
    no repeat), naming the first item out of order: `...: 2 follows 5`."""
    if not all(map(lt, items, items[1:])):
        prev, item = next((a, b) for a, b in zip(items, items[1:]) if not a < b)
        raise ValueError(f"{name} must be strictly increasing: {item} follows {prev}")


class FieldTypeError(ValueError):
    """A record field not of its annotated type; the message starts with its path."""


class Record:
    """A frozen dataclass without `dataclasses` (which imports `inspect`).

    A subclass's fields are its annotations, in order, evaluated (no module
    defining a record imports `annotations` from `__future__`, so no run
    resolves a string); a class attribute gives a field's default. A record
    is built by keyword only, each field stored as `canonical` gives it, then
    checked by `validate`; it is compared, hashed and printed by its fields in
    order, and changed only through `replace`. Fields are read with getattr,
    never via the instance `__dict__`: on CPython 3.11 reading that dict stops
    the hot path's specialised attribute loads on the instance.

    The hash is worked out on first use and kept on the record as `_hash`,
    which is no field. Pickling leaves it out, since an Enum member hashes
    by its name, and string hashes differ between processes.
    """

    _fields: Tuple[str, ...] = ()  # the field names, set per subclass
    _hash = None  # the kept hash; no field, since it has no annotation

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, **values: Any) -> None:
        cls = type(self)
        for name, tp in cls.__annotations__.items():
            try:
                value = values.pop(name) if name in values else getattr(cls, name)
            except AttributeError:
                raise TypeError(f"{cls.__name__}() missing keyword argument {name!r}") from None
            object.__setattr__(self, name, canonical(tp, value, name))
        if values:  # what no field took
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {min(values)!r}")
        self.validate()

    def validate(self) -> None:
        """Raise ValueError unless the fields hold a valid record."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:  # as tuples compare, without building them
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine is not theirs and not mine == theirs:
                return False
        return True

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(getattr(self, name) for name in self._fields))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._fields}

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"


def replace(record: Record, **changes: Any) -> Record:
    """A new record with `changes` applied to `record`'s fields, built and
    so validated anew; an unknown field raises TypeError."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)


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


# bound once: before Python 3.12, `Enum.MEMBER` in a function costs an EnumType.__getattr__ call
_DTMA, _DTMB, _PDTM = DTModel.DTMA, DTModel.DTMB, DTModel.PDTM
_CFDA, _CFDB, _CONSTANT = CFModel.CFDA, CFModel.CFDB, CFModel.CONSTANT
_CLEAN = ChunkQuality.CLEAN
# bound once: a NamedTuple's own __new__ is a Python function, one more frame per build
_new_tuple = tuple.__new__


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


class TrustParams(Record):
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

    def validate(self) -> None:
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
    model = params.cf_model
    if model is _CFDA:
        return n / (n + params.c)
    if model is _CFDB:
        return 1.0 - params.beta ** n
    return params.cf_constant


def direct_trust(nc: float, np_: float, params: TrustParams) -> float:
    """Trust from first-hand chunk deliveries under the selected model,
    given the decayed clean and polluted counts.

    DTMA is undefined at (0, 0); it falls back to cold_start_trust so an
    unknown peer is neither embraced nor condemned.
    """
    model = params.dt_model
    if model is _DTMA:
        total = nc + np_
        if total == 0.0:
            return params.cold_start_trust
        return nc / total
    if model is _DTMB:
        return (nc + 1.0) / (nc + np_ + 2.0)
    return math.exp(-params.rho * np_) * nc / (nc + params.eta)


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
    # a zero rate keeps everything (exp(-0.0 * dt) is exactly 1.0 anyway),
    # and a zero count stays the same zero at any keep in [0, 1]
    keep_clean = math.exp(-params.forgetting * dt) if params.forgetting and (nc or n) else 1.0
    keep_polluted = math.exp(-params.forgiving * dt) if params.forgiving and np_ else 1.0
    return nc * keep_clean, np_ * keep_polluted, n * keep_clean


def decays(state: TrustState, params: TrustParams) -> bool:
    """Whether direct trust or the confidence factor of the state's decayed
    counts moves with time. When false both equal their values at the
    state's last update bit for bit at every later time.

    Forgetting fades the clean and transaction counts, forgiving the
    polluted count; a zero rate keeps a count unscaled, and a zero count
    stays 0.0 at any rate. The confidence factor reads only the
    transaction count, and CONSTANT reads none. PDTM direct trust with no
    clean count is 0.0 x finite = 0.0 whatever the polluted count. DTMA
    and DTMB do not share that: DTMA falls back to cold start once a
    polluted count underflows to 0.0, and DTMB moves with the polluted
    count."""
    nc, np_, n, _ = state
    return bool(
        (params.forgetting and (nc or (n and params.cf_model is not _CONSTANT)))
        or (params.forgiving and np_ and (nc or params.dt_model is not _PDTM)))


def record_delivery(
    state: TrustState, quality: ChunkQuality, now: float, params: TrustParams
) -> TrustState:
    """The state decayed to `now` with one received chunk counted at full
    weight.

    Raises ValueError when `now` precedes the state's last update.
    """
    nc, np_, n = decayed_counts(state, now, params)
    if quality is _CLEAN:
        return _new_tuple(TrustState, (nc + 1.0, np_, n + 1.0, now))
    return _new_tuple(TrustState, (nc, np_ + 1.0, n + 1.0, now))


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
