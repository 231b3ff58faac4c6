import math
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as hs

from pollushield import replace, trust_core
from pollushield.behaviors import PeerBehavior, recommendation_value, upload_quality
from pollushield.scenarios import build_experiment
from pollushield.trust_core import (
    CFModel,
    ChunkQuality,
    DTModel,
    TrustParams,
    TrustState,
    combine_trust,
    confidence_factor,
    decayed_counts,
    decays,
    direct_trust,
    onoff_resistance_margin,
    record_delivery,
    transaction_probability,
)
from test_trust_cache import indirect_trust


def state(n_clean=0.0, n_polluted=0.0, n_transactions=None, last_update=0.0):
    if n_transactions is None:
        n_transactions = n_clean + n_polluted
    return TrustState(n_clean, n_polluted, n_transactions, last_update)


class TestConfidenceFactor:
    def test_cfda_zero_history(self):
        params = TrustParams(cf_model=CFModel.CFDA, c=1.0)
        assert confidence_factor(0.0, params) == 0.0

    def test_cfda_one_transaction(self):
        # 1 / (1 + 1)
        params = TrustParams(cf_model=CFModel.CFDA, c=1.0)
        assert confidence_factor(1.0, params) == pytest.approx(0.5)

    def test_cfdb_three_transactions(self):
        # 1 - 0.5^3
        params = TrustParams(cf_model=CFModel.CFDB, beta=0.5)
        assert confidence_factor(3.0, params) == pytest.approx(0.875)

    def test_cfdb_zero_history(self):
        params = TrustParams(cf_model=CFModel.CFDB, beta=0.5)
        assert confidence_factor(0.0, params) == 0.0

    def test_constant_ignores_history(self):
        params = TrustParams(cf_model=CFModel.CONSTANT, cf_constant=0.37)
        assert confidence_factor(0.0, params) == 0.37
        assert confidence_factor(105.0, params) == 0.37


class TestDirectTrust:
    def test_pdtm_zero_clean_is_zero(self):
        params = TrustParams(dt_model=DTModel.PDTM, rho=math.log(2), eta=1.0)
        assert direct_trust(0.0, 0.0, params) == 0.0

    def test_pdtm_hand_value(self):
        # e^{-ln2} * 2/3 = 1/3
        params = TrustParams(dt_model=DTModel.PDTM, rho=math.log(2), eta=1.0)
        assert direct_trust(2.0, 1.0, params) == pytest.approx(1 / 3, rel=1e-12)

    def test_dtmb_empty_is_half(self):
        params = TrustParams(dt_model=DTModel.DTMB)
        assert direct_trust(0.0, 0.0, params) == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [1.0, 3.0, 250.0])
    def test_dtma_symmetry(self, k):
        params = TrustParams(dt_model=DTModel.DTMA)
        assert direct_trust(k, k, params) == pytest.approx(0.5)

    def test_dtma_empty_falls_back_to_cold_start(self):
        params = TrustParams(dt_model=DTModel.DTMA, cold_start_trust=0.3)
        assert direct_trust(0.0, 0.0, params) == 0.3


class TestModelTruthTable:
    """Each model against its closed form at fractional counts, with
    parameters at which no two models agree, so a model answered by
    another model's branch fails."""

    PARAMS = dict(c=1.7, beta=0.35, cf_constant=0.42, rho=0.9, eta=1.3, cold_start_trust=0.3)
    COUNTS = [(0.0, 0.0), (2.5, 0.0), (0.4, 1.6), (2.5, 0.75), (0.3, 4.2)]
    DIRECT = {
        DTModel.DTMA: lambda nc, np_, p: nc / (nc + np_) if nc + np_ else p.cold_start_trust,
        DTModel.DTMB: lambda nc, np_, p: (nc + 1.0) / (nc + np_ + 2.0),
        DTModel.PDTM: lambda nc, np_, p: math.exp(-p.rho * np_) * nc / (nc + p.eta),
    }
    CONFIDENCE = {
        CFModel.CFDA: lambda n, p: n / (n + p.c),
        CFModel.CFDB: lambda n, p: 1.0 - p.beta ** n,
        CFModel.CONSTANT: lambda n, p: p.cf_constant,
    }

    def test_covers_every_model(self):
        assert set(self.DIRECT) == set(DTModel)
        assert set(self.CONFIDENCE) == set(CFModel)

    @pytest.mark.parametrize("model", list(DTModel))
    @pytest.mark.parametrize("nc, np_", COUNTS)
    def test_direct_trust(self, model, nc, np_):
        params = TrustParams(dt_model=model, **self.PARAMS)
        assert direct_trust(nc, np_, params) == self.DIRECT[model](nc, np_, params)
        others = {f(nc, np_, params) for m, f in self.DIRECT.items() if m is not model}
        assert direct_trust(nc, np_, params) not in others

    @pytest.mark.parametrize("model", list(CFModel))
    @pytest.mark.parametrize("n", [0.6, 2.5, 4.95])
    def test_confidence_factor(self, model, n):
        params = TrustParams(cf_model=model, **self.PARAMS)
        assert confidence_factor(n, params) == self.CONFIDENCE[model](n, params)
        others = {f(n, params) for m, f in self.CONFIDENCE.items() if m is not model}
        assert confidence_factor(n, params) not in others


@pytest.mark.parametrize("fn", [
    direct_trust, confidence_factor, decays, record_delivery,
    upload_quality, recommendation_value,
])
def test_hot_functions_bind_enum_members_once(fn):
    """Trust reads, kept-view fills, deliveries and reports compare against
    enum members bound at module level: before Python 3.12, `Enum.MEMBER`
    in a function body is an EnumType.__getattr__ call each time it runs."""
    assert {"CFModel", "DTModel", "ChunkQuality", "BehaviorKind"}.isdisjoint(fn.__code__.co_names)


class TestIndirectTrust:
    """The test oracle's aggregation, which the ranked walk reproduces."""

    def test_single_recommender_weight_cancels(self):
        assert indirect_trust([(0.7, 0.9)]) == pytest.approx(0.9)

    def test_two_equal_weights(self):
        assert indirect_trust([(1.0, 1.0), (1.0, 0.0)]) == pytest.approx(0.5)

    def test_empty_is_no_evidence(self):
        assert indirect_trust([]) is None

    def test_all_zero_credibility_is_no_evidence(self):
        assert indirect_trust([(0.0, 1.0), (0.0, 0.3)]) is None


class TestCombineTrust:
    def test_full_direct(self):
        assert combine_trust(1.0, 0.0, 1.0) == 1.0

    def test_full_indirect(self):
        assert combine_trust(1.0, 0.0, 0.0) == 0.0

    def test_hand_value(self):
        assert combine_trust(0.8, 0.4, 0.5) == pytest.approx(0.6)


class TestDecay:
    def test_zero_dt_unchanged(self):
        params = TrustParams(forgetting=0.7, forgiving=0.2)
        st = state(4, 2, 6, last_update=3)
        assert decayed_counts(st, 3, params) == (4, 2, 6)

    def test_zero_rates_unchanged_counters(self):
        params = TrustParams()
        st = state(4, 2, 6)
        assert decayed_counts(st, 10, params) == (4, 2, 6)
        assert record_delivery(st, ChunkQuality.CLEAN, 10, params).last_update == 10

    def test_half_life(self):
        params = TrustParams(forgetting=math.log(2), forgiving=0.0)
        nc, np_, n = decayed_counts(state(10, 4, 14), 1, params)
        assert nc == pytest.approx(5.0)
        assert np_ == pytest.approx(4.0)  # forgiving rate is zero
        assert n == pytest.approx(7.0)

    def test_forgiving_applies_to_polluted(self):
        params = TrustParams(forgetting=math.log(2), forgiving=math.log(4))
        nc, np_, _ = decayed_counts(state(8, 8, 16), 1, params)
        assert nc == pytest.approx(4.0)
        assert np_ == pytest.approx(2.0)

    def test_time_regression_rejected(self):
        params = TrustParams()
        with pytest.raises(ValueError, match="time regression"):
            decayed_counts(state(1, 0, 1, last_update=5), 4, params)
        with pytest.raises(ValueError, match="time regression"):
            record_delivery(state(1, 0, 1, last_update=5), ChunkQuality.CLEAN, 4, params)

    @pytest.mark.parametrize("forgetting, forgiving, exp_calls", [
        (0.0, 0.0, 0), (0.0, 0.3, 1), (0.3, 0.0, 1), (0.3, 0.7, 2)])
    def test_zero_rate_skips_exp_bit_identically(
        self, monkeypatch, forgetting, forgiving, exp_calls
    ):
        params = TrustParams(forgetting=forgetting, forgiving=forgiving)
        st = state(7.3, 2.9, 10.2, last_update=1.5)
        dt = 4.25
        keep_clean = math.exp(-forgetting * dt)
        keep_polluted = math.exp(-forgiving * dt)
        want = (7.3 * keep_clean, 2.9 * keep_polluted, 10.2 * keep_clean)
        calls = []

        def exp(x):
            calls.append(x)
            return math.exp(x)

        monkeypatch.setattr(trust_core, "math", SimpleNamespace(exp=exp))
        got = decayed_counts(st, 1.5 + dt, params)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert len(calls) == exp_calls
        # record_delivery decays through the same function, then counts
        got = record_delivery(st, ChunkQuality.POLLUTED, 1.5 + dt, params)
        want = (want[0], want[1] + 1.0, want[2] + 1.0, 1.5 + dt)
        assert [v.hex() for v in got] == [v.hex() for v in want]


def components_hex(st, t, params):
    """Direct trust and confidence factor of the state decayed to t, exactly."""
    nc, np_, n = decayed_counts(st, t, params)
    return direct_trust(nc, np_, params).hex(), confidence_factor(n, params).hex()


class TestDecays:
    # (forgetting, forgiving, n_clean, n_polluted, n_transactions, moves,
    # models): whether direct trust or the confidence factor of the decayed
    # counts moves with time; `models` overrides the default PDTM and CFDA
    TRUTH_TABLE = [
        (0.0, 0.0, 3, 2, 5, False, {}),   # no rate
        (0.3, 0.0, 3, 0, 3, True, {}),    # clean evidence fades
        (0.3, 0.0, 0, 2, 2, True, {}),    # only polluted chunks: the transaction count fades
        (0.3, 0.0, 2, 0, 0, True, {}),    # a clean count alone fades
        (0.3, 0.0, 0, 0, 0, False, {}),   # nothing left to fade
        (0.0, 0.3, 3, 0, 3, False, {}),   # forgiving has no polluted count to act on
        (0.0, 0.3, 0, 2, 2, False, {}),   # no clean count: PDTM reads 0.0 at any polluted count
        (0.3, 0.3, 0, 0, 0, False, {}),
        (0.3, 0.3, 3, 2, 5, True, {}),
        (0.3, 0.3, 0, 2, 2, True, {}),    # direct trust holds, CFDA's weight fades
        (0.3, 0.3, 0, 2, 2, False, {"cf_model": CFModel.CONSTANT}),  # and a fixed weight holds
        (0.3, 0.0, 0, 2, 2, True, {"cf_model": CFModel.CFDB}),
        (0.0, 0.3, 0, 2, 2, True, {"dt_model": DTModel.DTMB}),  # (0 + 1) / (np + 2) rises
        # 0/np = 0.0 until np underflows, then cold start
        (0.0, 100.0, 0, 2, 2, True, {"dt_model": DTModel.DTMA}),
        (0.0, 0.0, 0, 2, 2, False, {"dt_model": DTModel.DTMA}),
    ]

    @pytest.mark.parametrize(
        "forgetting, forgiving, nc, np_, n, want, models",
        [pytest.param(*row, id="-".join(map(str, row[:6])) + "".join(
            f"-{m.value}" for m in row[6].values())) for row in TRUTH_TABLE])
    def test_truth_table(self, forgetting, forgiving, nc, np_, n, want, models):
        params = TrustParams(forgetting=forgetting, forgiving=forgiving, **models)
        st = state(float(nc), float(np_), float(n), last_update=1.0)
        assert decays(st, params) is want
        # exactly when the components move; otherwise they stay bit for bit
        stored = components_hex(st, 1.0, params)
        later = [components_hex(st, t, params) for t in (2.0, 9.5)]
        assert (later != [stored, stored]) is want

    def test_dtma_underflow_reads_cold_start(self):
        # forgiving = 100 drives the polluted count below the smallest float
        params = TrustParams(dt_model=DTModel.DTMA, forgiving=100.0)
        st = state(0.0, 2.0, last_update=1.0)
        assert decayed_counts(st, 9.5, params)[1] == 0.0
        assert direct_trust(*decayed_counts(st, 2.0, params)[:2], params) == 0.0
        assert direct_trust(*decayed_counts(st, 9.5, params)[:2], params) == 0.5

    @given(
        counts=hs.tuples(*[hs.sampled_from([0.0, 0.0, 1e-300, 0.37, 1.0, 4.0])] * 3),
        rates=hs.tuples(*[hs.sampled_from([0.0, 0.0, 0.05, 0.4, 100.0])] * 2),
        dt_model=hs.sampled_from(list(DTModel)),
        cf_model=hs.sampled_from(list(CFModel)),
        later=hs.lists(hs.floats(0.0, 1e4), min_size=1, max_size=4),
    )
    def test_held_components_never_move(self, counts, rates, dt_model, cf_model, later):
        params = TrustParams(forgetting=rates[0], forgiving=rates[1],
                             dt_model=dt_model, cf_model=cf_model)
        st = state(*counts, last_update=3.0)
        if decays(st, params):
            return
        stored = components_hex(st, 3.0, params)
        for dt in later:
            assert components_hex(st, 3.0 + dt, params) == stored


class TestRecordDelivery:
    PARAMS = TrustParams()

    def test_clean_increments(self):
        got = record_delivery(state(), ChunkQuality.CLEAN, 0, self.PARAMS)
        assert got == TrustState(1, 0, 1, 0)

    def test_polluted_increments(self):
        st = record_delivery(TrustState(1, 0, 1, 0), ChunkQuality.POLLUTED, 0, self.PARAMS)
        assert st == TrustState(1, 1, 2, 0)

    def test_counts_accumulate(self):
        st = record_delivery(TrustState(5, 2, 7, 9), ChunkQuality.CLEAN, 9, self.PARAMS)
        assert st == TrustState(6, 2, 8, 9)

    def test_decays_then_counts(self):
        # clean evidence halves every round and polluted every two; two
        # rounds pass before one clean chunk arrives
        params = TrustParams(forgetting=math.log(2), forgiving=math.log(2) / 2)
        st = record_delivery(TrustState(8, 4, 12, 3), ChunkQuality.CLEAN, 5, params)
        assert st.n_clean == pytest.approx(8 / 4 + 1)
        assert st.n_polluted == pytest.approx(4 / 2)
        assert st.n_transactions == pytest.approx(12 / 4 + 1)
        assert st.last_update == 5

    def test_first_delivery_starts_from_empty_state(self):
        params = TrustParams(forgetting=0.3, forgiving=0.1)
        st = record_delivery(trust_core.EMPTY_STATE, ChunkQuality.POLLUTED, 7, params)
        assert st == TrustState(0, 1, 1, 7)


class TestTransactionProbability:
    PARAMS = TrustParams(theta_p=0.5, theta_g=0.9, chi=0.5)

    def test_below_malicious_threshold(self):
        assert transaction_probability(0.3, self.PARAMS) == 0.0

    def test_gray_zone(self):
        assert transaction_probability(0.7, self.PARAMS) == 0.5

    def test_above_good_threshold(self):
        assert transaction_probability(0.95, self.PARAMS) == 1.0

    def test_boundaries(self):
        assert transaction_probability(0.5, self.PARAMS) == 0.5
        assert transaction_probability(0.9, self.PARAMS) == 1.0


class TestOnOffMargin:
    def test_boundary_bound_is_one(self):
        params = TrustParams(dt_model=DTModel.PDTM, rho=math.log(2), eta=1.0)
        margin = onoff_resistance_margin(state(10, 0), 1, params)
        assert margin.bound == pytest.approx(1.0)
        assert margin.resistant is False  # strict inequality fails at the boundary

    def test_resistant_bound(self):
        # (1 - e^{-1}) * 2
        params = TrustParams(dt_model=DTModel.PDTM, rho=1.0, eta=1.0)
        margin = onoff_resistance_margin(state(10, 0), 1, params)
        assert margin.bound == pytest.approx(1.2642411176571153, rel=1e-12)
        assert margin.resistant is True

    def test_not_resistant_small_rho(self):
        params = TrustParams(dt_model=DTModel.PDTM, rho=0.1, eta=1.0)
        assert onoff_resistance_margin(state(5, 0), 1, params).resistant is False

    def test_degenerate_state_rejected(self):
        params = TrustParams(dt_model=DTModel.PDTM)
        with pytest.raises(ValueError, match="n_clean"):
            onoff_resistance_margin(state(0, 3), 1, params)

    def test_requires_pdtm(self):
        params = TrustParams(dt_model=DTModel.DTMA)
        with pytest.raises(ValueError, match="PDTM"):
            onoff_resistance_margin(state(5, 0), 1, params)

    def test_requires_positive_chunks(self):
        params = TrustParams(dt_model=DTModel.PDTM)
        with pytest.raises(ValueError, match="positive"):
            onoff_resistance_margin(state(5, 0), 0, params)


class TestParamsValidation:
    def test_threshold_order_enforced(self):
        with pytest.raises(ValueError, match="theta_p"):
            TrustParams(theta_p=0.9, theta_g=0.5)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            TrustParams(beta=1.0)

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            TrustParams(c=0.0)

    @pytest.mark.parametrize("name", ["c", "rho", "eta", "forgetting", "forgiving"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrustParams(**{name: value})

    def test_warns_when_forgiving_outpaces_forgetting(self):
        found = TrustParams(forgetting=0.1, forgiving=0.5).diagnostics()
        assert len(found) == 1
        assert "forgetting <= forgiving" in found[0]

    def test_silent_when_forgetting_dominates(self):
        assert TrustParams(forgetting=0.5, forgiving=0.1).diagnostics() == []
        assert TrustParams().diagnostics() == []  # both rates zero: nothing to report


class TestRecord:
    """The records keep the frozen dataclasses' contract: keyword fields in
    annotation order, validation on every build, value equality and hash,
    and no assignment."""

    def test_repr_is_the_dataclass_repr(self):
        assert repr(TrustParams()) == (
            "TrustParams(cf_model=<CFModel.CFDA: 'cfda'>, cf_constant=0.5, c=1.0, beta=0.5, "
            "dt_model=<DTModel.PDTM: 'pdtm'>, rho=0.6931471805599453, eta=1.0, "
            "forgetting=0.0, forgiving=0.0, theta_p=0.5, theta_g=0.9, chi=0.5, "
            "k_providers=5, k_recommenders=5, cold_start_trust=0.5)")
        # format 0.7.0: an on-off peer states its period, not a polluted share
        assert repr(PeerBehavior.onoff(5)) == (
            "PeerBehavior(kind=<BehaviorKind.ONOFF: 'onoff'>, period=5, "
            "target_set=(), group=())")

    def test_equal_records_hash_equal(self):
        assert TrustParams(chi=0.2) == TrustParams(chi=0.2) != TrustParams()
        assert hash(TrustParams(chi=0.2)) == hash(TrustParams(chi=0.2))
        assert hash(PeerBehavior.onoff(5)) == hash(PeerBehavior.onoff(5))

    def test_records_of_different_classes_never_equal(self):
        assert TrustParams() != PeerBehavior.persistent()
        assert TrustParams() != tuple(getattr(TrustParams(), f) for f in TrustParams._fields)

    def test_fields_cannot_change(self):
        params = TrustParams()
        with pytest.raises(AttributeError):
            params.chi = 0.1
        with pytest.raises(AttributeError):
            del params.chi
        assert params.chi == 0.5

    def test_unknown_or_missing_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="gamma"):
            TrustParams(gamma=1.0)
        with pytest.raises(TypeError, match="kind"):
            PeerBehavior()

    def test_replace_validates(self):
        with pytest.raises(ValueError, match="beta"):
            replace(TrustParams(), beta=1.0)
        with pytest.raises(ValueError, match="rounds"):
            replace(build_experiment("e2"), rounds=0)

    def test_replace_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="gamma"):
            replace(TrustParams(), gamma=1.0)

    def test_replace_leaves_its_source(self):
        params = TrustParams()
        changed = replace(params, chi=0.1, k_providers=2)
        assert (changed.chi, changed.k_providers, changed.eta) == (0.1, 2, params.eta)
        assert params == TrustParams()
