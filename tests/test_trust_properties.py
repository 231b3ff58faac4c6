import math

from hypothesis import given, strategies as st

from pollushield.trust_core import (
    CFModel,
    DTModel,
    TrustParams,
    TrustState,
    combine_trust,
    confidence_factor,
    decayed_counts,
    direct_trust,
    onoff_resistance_margin,
    transaction_probability,
)
from test_sim_engine import make_world, seed_history, walk_indirect
from test_trust_cache import indirect_trust, oracle_direct_trust

counts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

ALL_DT = [DTModel.DTMA, DTModel.DTMB, DTModel.PDTM]
ALL_CF = [CFModel.CFDA, CFModel.CFDB]


@given(nc=counts, np_=counts, nt=counts, dt=st.sampled_from(ALL_DT), cf=st.sampled_from(ALL_CF))
def test_trust_and_confidence_stay_in_unit_range(nc, np_, nt, dt, cf):
    params = TrustParams(cf_model=cf, dt_model=dt)
    assert 0.0 <= direct_trust(nc, np_, params) <= 1.0
    assert 0.0 <= confidence_factor(nt, params) <= 1.0


@given(n1=counts, n2=counts, cf=st.sampled_from(ALL_CF))
def test_confidence_factor_monotone_over_full_range(n1, n2, cf):
    lo, hi = sorted((n1, n2))
    params = TrustParams(cf_model=cf)
    a_lo = confidence_factor(lo, params)
    a_hi = confidence_factor(hi, params)
    assert a_hi >= a_lo


@given(
    lo=st.floats(min_value=0.0, max_value=1e4),
    gap=st.floats(min_value=1e-3, max_value=1e4),
    cf=st.sampled_from(ALL_CF),
)
def test_confidence_factor_strictly_increasing(lo, gap, cf):
    # strict away from float saturation; CFDB pins at exactly 1.0 once
    # beta ** n underflows
    params = TrustParams(cf_model=cf)
    a_lo = confidence_factor(lo, params)
    a_hi = confidence_factor(lo + gap, params)
    assert a_hi > a_lo or a_lo == a_hi == 1.0


def test_confidence_factor_tends_to_one():
    big = 1e6
    assert confidence_factor(big, TrustParams(cf_model=CFModel.CFDA, c=1.0)) > 0.999
    assert confidence_factor(big, TrustParams(cf_model=CFModel.CFDB, beta=0.5)) > 0.999


@given(nc=counts, np_=counts, bump=st.floats(min_value=1e-3, max_value=1e5), dt=st.sampled_from(ALL_DT))
def test_direct_trust_monotone_in_clean(nc, np_, bump, dt):
    params = TrustParams(dt_model=dt)
    base = direct_trust(nc, np_, params)
    more = direct_trust(nc + bump, np_, params)
    assert more >= base - 1e-12


@given(nc=counts, np_=counts, bump=st.floats(min_value=1e-3, max_value=1e5), dt=st.sampled_from(ALL_DT))
def test_direct_trust_antitone_in_polluted(nc, np_, bump, dt):
    params = TrustParams(dt_model=dt)
    base = direct_trust(nc, np_, params)
    worse = direct_trust(nc, np_ + bump, params)
    assert worse <= base + 1e-12


@given(d=unit, i=unit, alpha=unit)
def test_combined_trust_is_convex(d, i, alpha):
    t = combine_trust(d, i, alpha)
    assert min(d, i) - 1e-12 <= t <= max(d, i) + 1e-12


chunks = st.integers(min_value=0, max_value=6)


@given(
    # per recommender: clean and polluted chunks the observer got from it,
    # then clean and polluted chunks it got from the subject
    histories=st.lists(st.tuples(chunks, chunks, chunks, chunks), min_size=1, max_size=8),
    k=st.integers(min_value=1, max_value=8),
    dt=st.sampled_from(ALL_DT),
)
def test_indirect_trust_bounded_by_recommendations(histories, k, dt):
    """The ranked walk's indirect trust of subject 1 equals the oracle's
    aggregation over the top k reports in rank order (credibility, ties to
    the lowest id), and lies within those reports' range."""
    params = TrustParams(dt_model=dt, k_recommenders=k)
    world = make_world(2 + len(histories), params=params)
    reports = []
    for pid, (cred_clean, cred_polluted, clean, polluted) in enumerate(histories, start=2):
        seed_history(world, 0, pid, cred_clean, cred_polluted)
        seed_history(world, pid, 1, clean, polluted)
        cred = oracle_direct_trust(world.peers[0].trust_table[pid], params)
        value = oracle_direct_trust(world.peers[pid].trust_table[1], params)
        reports.append((-cred, pid, value))
    top = [(-neg_cred, value) for neg_cred, _, value in sorted(reports)[:k]]
    got = walk_indirect(world, 0, (1,)).get(1)
    assert got == indirect_trust(top)
    if got is not None:
        values = [value for _, value in top]
        # 1e-9 absorbs the rounding of the weighted sum
        assert min(values) - 1e-9 <= got <= max(values) + 1e-9


@given(d=unit, a=unit, ind=unit)
def test_combined_trust_lies_between_its_indirect_extremes(d, a, ind):
    """Bounded selection's bounds: `combine_trust` never decreases as
    indirect trust grows, rounding included, so at any indirect value in
    [0, 1] it lies between its values at 0 and 1, a * d and a * d + (1 - a)."""
    assert a * d <= combine_trust(d, ind, a) <= a * d + (1.0 - a)
    assert combine_trust(d, 1.0, a) == a * d + (1.0 - a)
    assert combine_trust(d, 0.0, a) == a * d


@given(
    nc=st.floats(min_value=1e-6, max_value=1e3),
    np_=st.floats(min_value=0.0, max_value=1e2),
    eta=st.floats(min_value=1e-6, max_value=10.0),
    eps=st.floats(min_value=1e-9, max_value=2.0),
    n=st.integers(min_value=1, max_value=50),
)
def test_margin_ratio_matches_direct_trust_recomputation(nc, np_, eta, eps, n):
    """The margin's drop/gain quotient must agree with differencing the trust
    model itself (independent recomputation of the same quantities). The
    differenced values carry ~1e-16 absolute float error, so the comparison
    happens on drop and gain rather than their ill-conditioned quotient."""
    rho = math.log(1.0 + 1.0 / eta) + eps
    params = TrustParams(dt_model=DTModel.PDTM, rho=rho, eta=eta)
    margin = onoff_resistance_margin(TrustState(nc, np_, nc + np_, 0), n, params)
    here = direct_trust(nc, np_, params)
    drop = here - direct_trust(nc, np_ + n, params)
    gain = direct_trust(nc + n, np_, params) - here
    # differencing costs ~1 ulp of the O(1) trust values; the quotient scales it
    tolerance = 1e-12 + margin.ratio * 5e-15
    assert abs(margin.ratio * gain - drop) <= tolerance


@given(
    np_=st.floats(min_value=0.0, max_value=1e2),
    eta=st.floats(min_value=1e-3, max_value=10.0),
    eps=st.floats(min_value=1e-6, max_value=2.0),
    n=st.integers(min_value=1, max_value=50),
    slack=st.floats(min_value=0.0, max_value=1e3),
)
def test_margin_dominates_bound_when_clean_evidence_dominates(np_, eta, eps, n, slack):
    """The closed-form estimate is a true lower bound once n_clean >= eta * n;
    with thinner clean evidence it can overshoot the actual ratio."""
    nc = eta * n + slack
    rho = math.log(1.0 + 1.0 / eta) + eps
    params = TrustParams(dt_model=DTModel.PDTM, rho=rho, eta=eta)
    margin = onoff_resistance_margin(TrustState(nc, np_, nc + np_, 0), n, params)
    assert margin.ratio >= margin.bound * (1.0 - 1e-12)
    assert margin.ratio > 1.0  # resistant region: drops outweigh gains


@given(
    counters=st.floats(min_value=1e-3, max_value=1e5),
    dt=st.floats(min_value=1e-3, max_value=100.0),
)
def test_decay_keeps_bad_memories_longer(counters, dt):
    params = TrustParams(forgetting=0.2, forgiving=0.05)
    nc, np_, _ = decayed_counts(TrustState(counters, counters, 2 * counters, 0.0), dt, params)
    assert nc < np_


def always_two_exp(state, now, params):
    """`decayed_counts` as it was first written: both keep factors taken
    with `exp` whenever time passed, whatever the counts and rates."""
    nc, np_, n, last = state
    dt = now - last
    if dt == 0.0:
        return nc, np_, n
    keep_clean = math.exp(-params.forgetting * dt)
    keep_polluted = math.exp(-params.forgiving * dt)
    return nc * keep_clean, np_ * keep_polluted, n * keep_clean


zero_or_count = st.one_of(st.sampled_from([0.0, -0.0]), counts)
zero_or_rate = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=200.0))


@given(nc=zero_or_count, np_=zero_or_count, n=zero_or_count,
       forgetting=zero_or_rate, forgiving=zero_or_rate,
       last=st.integers(0, 50), dt=st.integers(0, 50))
def test_decay_skips_exp_only_where_it_changes_nothing(nc, np_, n, forgetting, forgiving, last, dt):
    """Skipping `exp` for a zero count or a zero rate gives the
    always-two-`exp` formula's floats bit for bit, sign of zero included."""
    params = TrustParams(forgetting=forgetting, forgiving=forgiving)
    state = TrustState(nc, np_, n, last)
    got = decayed_counts(state, last + dt, params)
    want = always_two_exp(state, last + dt, params)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@given(t1=unit, t2=unit)
def test_transaction_probability_non_decreasing(t1, t2):
    params = TrustParams(theta_p=0.5, theta_g=0.9, chi=0.5)
    lo, hi = sorted((t1, t2))
    assert transaction_probability(lo, params) <= transaction_probability(hi, params)
