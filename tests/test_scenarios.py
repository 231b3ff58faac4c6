import hashlib
import inspect
import math
import random
from collections.abc import Sequence
from pollushield import replace
from functools import partial

import pytest
from hypothesis import example, given, strategies as st

from pollushield.behaviors import BehaviorKind, PeerBehavior, upload_quality
from pollushield.scenarios import (
    _BUILDERS,
    EXPERIMENT_IDS,
    EXPERIMENT_OVERRIDES,
    Run,
    ScenarioConfig,
    _sample_candidates,
    build_experiment,
    build_world,
    config_digest,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    mean_requester_goodput,
    run_grid,
    run_scenario,
    save_config,
)
from pollushield.sim_engine import World, run_round
from pollushield.trust_core import CFModel, ChunkQuality, DTModel, TrustParams, canonical


class TestBuilders:
    def test_builders_are_deterministic(self):
        for exp in EXPERIMENT_IDS:
            assert build_experiment(exp, seed=5) == build_experiment(exp, seed=5)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="e9"):
            build_experiment("e9")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unsupported overrides"):
            build_experiment("e2", bogus=1)

    @pytest.mark.parametrize("exp, key, value, expected", [
        ("e4", "group_size", 2.0, "int"),  # was a TypeError from range
        ("e6", "malicious_fraction", "0.2", "float"),  # were TypeErrors from <=
        ("e3", "loss_rate", "0.1", "float"),
        ("e3", "policy", 1, "str"),
        ("e1", "seed", True, "int"),
    ])
    def test_wrongly_typed_override_rejected(self, exp, key, value, expected):
        # the rule of a record's fields: exact type, but an int fills a float
        with pytest.raises(ValueError, match=f"^{key}: expected {expected}, got {value!r}$"):
            build_experiment(exp, **{key: value})
        assert repr(build_experiment("e3", loss_rate=0).loss_rate_range) == "(0.0, 0.0)"

    @pytest.mark.parametrize("exp", EXPERIMENT_IDS)
    def test_override_types_are_the_annotations(self, exp):
        # EXPERIMENT_OVERRIDES holds each keyword's annotation, its one type
        # declaration: every parameter is keyword-only and annotated, and
        # `canonical` stores its default unchanged (an int default of a float
        # keyword would not be)
        params = inspect.signature(_BUILDERS[exp]).parameters.values()
        assert list(EXPERIMENT_OVERRIDES[exp]) == [param.name for param in params]
        for param in params:
            assert param.kind is param.KEYWORD_ONLY, param
            assert EXPERIMENT_OVERRIDES[exp][param.name] is param.annotation is not param.empty
            stored = canonical(param.annotation, param.default, param.name)
            assert type(stored) is type(param.default) and repr(stored) == repr(param.default)

    @pytest.mark.parametrize("exp, rounds", [
        ("e3", 24), ("e3", 10), ("e6", 24), ("e6", 0), ("e5", 10), ("e5", 0)])
    def test_population_rounds_must_pass_warmup(self, exp, rounds):
        # the caller set rounds, not warmup_rounds: the message names rounds
        warmup = 10 if exp == "e5" else 24
        with pytest.raises(ValueError, match=rf"^rounds must be >= {warmup + 1} "
                                             rf"\({warmup} warmup rounds \+ 1\), got {rounds}$"):
            build_experiment(exp, rounds=rounds)
        assert build_experiment(exp, rounds=warmup + 1).rounds == warmup + 1

    @pytest.mark.parametrize("loss_rate", [1.5, -0.1, math.nan])
    def test_e3_loss_rate_must_be_a_probability(self, loss_rate):
        # the caller set loss_rate, not loss_rate_range: the message names loss_rate
        with pytest.raises(ValueError, match=r"^loss_rate must lie in \[0, 1\]$"):
            build_experiment("e3", loss_rate=loss_rate)
        assert build_experiment("e3", loss_rate=1.0).loss_rate_range == (1.0, 1.0)

    def test_e1_has_both_confidence_schemes(self):
        cfg = build_experiment("e1")
        assert cfg.params.cf_model is CFModel.CFDA
        overrides = dict(cfg.param_overrides)
        assert overrides[1].cf_model is CFModel.CONSTANT
        assert overrides[1].cf_constant == 0.5
        liars = [
            (b, n) for b, n in cfg.behavior_mix if b.kind is BehaviorKind.BADMOUTH
        ]
        assert sum(n for _, n in liars) == 8

    def test_e2_mix_contains_all_ratios(self):
        cfg = build_experiment("e2")
        periods = {b.period for b, _ in cfg.behavior_mix if b.kind is BehaviorKind.ONOFF}
        assert periods == {2, 5, 10}
        assert {b.label for b, _ in cfg.behavior_mix} >= {"onoff(0.5)", "onoff(0.2)", "onoff(0.1)"}
        assert dict(cfg.param_overrides)[1].dt_model is DTModel.DTMA

    def test_e3_thresholds_from_setup(self):
        cfg = build_experiment("e3")
        assert cfg.params.theta_p == 0.5
        assert cfg.params.theta_g == 0.9
        assert cfg.params.chi == 0.5
        assert cfg.n_peers == 500
        counts = {b.kind: n for b, n in cfg.behavior_mix}
        assert counts[BehaviorKind.PERSISTENT] == 50
        assert counts[BehaviorKind.ONOFF] == 50

    def test_e3_policy_override(self):
        single = build_experiment("e3", policy="single").params
        assert (single.theta_p, single.theta_g) == (0.8, 0.8)
        default = build_experiment("e3").params
        assert (default.theta_p, default.theta_g) == (0.5, 0.9)

    def test_e4_modes(self):
        rot = build_experiment("e4", mode="rotating", group_size=5)
        static = build_experiment("e4", mode="static", group_size=10)
        assert rot.n_peers == 6
        assert static.n_peers == 11
        kinds = {b.kind for b, _ in static.behavior_mix}
        assert BehaviorKind.COLLAB_STATIC in kinds
        with pytest.raises(ValueError):
            build_experiment("e4", mode="waltz")
        with pytest.raises(ValueError, match="group_size"):
            build_experiment("e4", mode="static", group_size=1)
        with pytest.raises(ValueError, match="group_size"):
            build_experiment("e4", group_size=0)

    @pytest.mark.parametrize("exp, overrides", [
        *((exp, {}) for exp in EXPERIMENT_IDS), ("e4", {"group_size": 1})])
    def test_requesters_are_the_peers_with_candidates(self, exp, overrides):
        # e4's lone rotating colluder has no candidate_map entry
        cfg = build_experiment(exp, seed=1, **overrides)
        world = build_world(cfg)
        assert world.requesters == sorted(pid for pid, _, _ in cfg.candidate_map)
        for pid, cands, budget in cfg.candidate_map:
            assert (world.peers[pid].candidates, world.peers[pid].budget) == (cands, budget)

    def test_e6_fraction_sweep_shapes(self):
        cfg = build_experiment("e6", malicious_fraction=0.4)
        counts = {BehaviorKind.PERSISTENT: 0, BehaviorKind.ONOFF: 0}
        for b, n in cfg.behavior_mix:
            if b.kind in counts:
                counts[b.kind] += n
        assert counts[BehaviorKind.PERSISTENT] == 100
        assert counts[BehaviorKind.ONOFF] == 100
        peertrust = build_experiment("e6", policy="peertrust").params
        assert (peertrust.theta_p, peertrust.theta_g) == (0.5, 0.5)

    def test_paper_constants(self):
        cfg = build_experiment("e3")
        assert cfg.params.c == 1.0
        assert cfg.params.eta == 1.0
        assert cfg.params.rho == pytest.approx(math.log(2))


def sample_by_copy(rng, pid, pool, count):
    """Reference sampler: copy the pool without pid, then sample the copy."""
    eligible = [p for p in pool if p != pid]
    if count >= len(eligible):
        return tuple(eligible)
    return tuple(sorted(rng.sample(eligible, count)))


@st.composite
def sampler_cases(draw):
    """(pool, pid, count): a range or a sorted tuple of distinct ids, large
    enough that random.sample takes both its copying branch (a small pool)
    and its selected-set branch (a large one); pid inside the pool or
    outside it; count below, at and above the ids left without pid."""
    if draw(st.booleans()):
        start = draw(st.integers(0, 50))
        pool = range(start, start + draw(st.integers(0, 300)))
    else:
        pool = tuple(sorted(draw(st.sets(st.integers(0, 1000), max_size=300))))
    if pool and draw(st.booleans()):
        pid = draw(st.sampled_from(pool))
    else:
        pid = draw(st.integers(-1, 1001).filter(lambda p: p not in pool))
    count = draw(st.integers(0, len(pool) + 1))
    return pool, pid, count


class CountingPool(Sequence):
    """range(100_000) that counts the items read from it one by one."""

    def __init__(self):
        self.ids = range(100_000)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return self.ids[i]

    def __len__(self):
        return len(self.ids)

    def __contains__(self, pid):
        return pid in self.ids

    def index(self, pid, *args):
        return self.ids.index(pid, *args)


class TestSampleCandidates:
    # random.sample copies a population of up to 85 ids when drawing 10, and
    # draws positions into a set above that
    @given(case=sampler_cases(), seed=st.integers(0, 2 ** 32))
    @example(case=(range(30), 7, 10), seed=1)
    @example(case=(range(500), 7, 10), seed=1)
    @example(case=(tuple(range(0, 200, 2)), 120, 10), seed=1)
    @example(case=(tuple(range(100)), 130, 20), seed=1)
    def test_same_draw_as_sampling_a_copy(self, case, seed):
        pool, pid, count = case
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert _sample_candidates(rng, pid, pool, count) == sample_by_copy(
            oracle_rng, pid, pool, count)
        assert rng.getstate() == oracle_rng.getstate()

    @pytest.mark.parametrize("pid", [5_000, -1])
    def test_reads_only_the_drawn_ids(self, pid):
        pool, rng = CountingPool(), random.Random(3)
        for _ in range(3):
            pool.reads = 0
            picked = _sample_candidates(rng, pid, pool, 10)
            assert pool.reads == 10
            assert len(picked) == 10 and pid not in picked


class TestConfigFiles:
    @pytest.mark.parametrize("exp", EXPERIMENT_IDS)
    def test_digest_is_the_sha256_of_the_file(self, exp):
        # config_digest avoids hashlib, whose OpenSSL module is slow to load
        cfg = build_experiment(exp)
        assert config_digest(cfg) == hashlib.sha256(dump_config(cfg).encode()).hexdigest()

    @pytest.mark.parametrize("exp", EXPERIMENT_IDS)
    def test_round_trip_is_bit_identical(self, exp, tmp_path):
        cfg = build_experiment(exp, seed=11)
        path = tmp_path / f"{exp}.cfg"
        save_config(cfg, str(path))
        loaded = load_config(str(path))
        assert loaded == cfg
        assert dump_config(loaded) == path.read_text()

    def test_digest_tracks_content(self):
        a = build_experiment("e2", seed=1)
        b = build_experiment("e2", seed=2)
        assert config_digest(a) == config_digest(build_experiment("e2", seed=1))
        assert config_digest(a) != config_digest(b)

    def test_unknown_field_rejected(self):
        d = config_to_dict(build_experiment("e2"))
        d["surprise"] = 1
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict(d)

    def test_missing_field_rejected(self):
        d = config_to_dict(build_experiment("e2"))
        del d["rounds"]
        with pytest.raises(ValueError, match="missing config fields"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("seed",), 1.5),
            (("rounds",), True),
            (("warmup_rounds",), "5"),
            (("params", "theta_p"), "0.5"),
            (("behavior_mix", 0, 0, "kind"), "bogus"),
            (("policy",), {"kind": "proposed", "theta": None}),
            (("params", "k_providers"), True),
            (("params", "dt_model"), 5),
            (("name",), 5),
            (("params",), 5),
            (("behavior_mix", 0, 0), []),
        ],
        ids=["seed_float", "rounds_bool", "warmup_rounds_str", "theta_p_str", "kind_bogus",
             "policy_leftover", "k_providers_bool", "dt_model_int", "name_int",
             "params_int", "behavior_list"],
    )
    def test_wrong_type_or_unknown_value_rejected(self, path, value):
        d = config_to_dict(build_experiment("e2"))
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=str(path[-1])):
            config_from_dict(d)


    @pytest.mark.parametrize("value", [[], 5, "x", None])
    def test_non_object_config_rejected(self, value):
        with pytest.raises(ValueError, match=r"^config: expected an object, got "):
            config_from_dict(value)


def tiny_config(**kwargs):
    params = TrustParams(
        cf_model=CFModel.CFDA, dt_model=DTModel.PDTM, theta_p=0.0, theta_g=0.0,
        k_providers=2,
    )
    defaults = dict(
        name="tiny",
        rounds=20,
        seed=9,
        behavior_mix=((PeerBehavior.honest(), 3),),
        params=params,
        candidate_map=((0, (1, 2), 1),),
        observed_pairs=((0, 1),),
        measure_from=0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestValidation:
    def test_mix_count_mismatch(self):
        # the mix counts the peers: two leave peer 0's candidate 2 outside the world
        with pytest.raises(ValueError, match="^invalid candidate 2 for peer 0"):
            tiny_config(behavior_mix=((PeerBehavior.honest(), 2),)).validate()

    @pytest.mark.parametrize("mix", [(), ((PeerBehavior.honest(), 0),)])
    def test_empty_mix_rejected(self, mix):
        # a mix of one count-0 entry fails on the count, which must be at least 1
        message = ("behavior mix counts must be positive" if mix
                   else "behavior_mix must be non-empty")
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(behavior_mix=mix, candidate_map=(), observed_pairs=())

    def test_self_observation_rejected(self):
        with pytest.raises(ValueError, match="observed pair"):
            tiny_config(observed_pairs=((1, 1),)).validate()

    def test_unknown_requester_rejected(self):
        with pytest.raises(ValueError, match="^invalid requester id 7"):
            tiny_config(candidate_map=((0, (1, 2), 1), (7, (1,), 1))).validate()

    def test_warmup_must_fit(self):
        with pytest.raises(ValueError, match="warmup_rounds"):
            tiny_config(warmup_rounds=20).validate()

    def test_candidate_self_reference_rejected(self):
        with pytest.raises(ValueError, match="candidate"):
            tiny_config(candidate_map=((0, (0,), 1),)).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("observed_pairs", ((0, 1), (0, 1)),
             r"observed_pairs must be strictly increasing: \(0, 1\) follows \(0, 1\)"),
            # the same entry twice
            ("candidate_map", ((0, (1, 2), 1), (0, (1, 2), 1)),
             "candidate_map must be strictly increasing: 0 follows 0"),
            ("candidate_map", ((0, (1, 2, 1), 1),),
             r"candidate_map\[0\] must be strictly increasing: 1 follows 2"),
            ("candidate_map", ((0, (1,), 1), (0, (2,), 1)),
             "candidate_map must be strictly increasing: 0 follows 0"),
            ("candidate_map", ((0, (1, 2), 2), (0, (1, 2), 3)),
             "candidate_map must be strictly increasing: 0 follows 0"),
            ("param_overrides", ((1, TrustParams()), (1, TrustParams(chi=0.1))),
             "param_overrides must be strictly increasing: 1 follows 1"),
            # each list reversed: the same run, spelled another way
            ("observed_pairs", ((0, 2), (0, 1)),
             r"observed_pairs must be strictly increasing: \(0, 1\) follows \(0, 2\)"),
            ("candidate_map", ((1, (0, 2), 1), (0, (1, 2), 1)),
             "candidate_map must be strictly increasing: 0 follows 1"),
            ("candidate_map", ((0, (2, 1), 1),),
             r"candidate_map\[0\] must be strictly increasing: 1 follows 2"),
            ("param_overrides", ((2, TrustParams()), (1, TrustParams(chi=0.1))),
             "param_overrides must be strictly increasing: 1 follows 2"),
            # the same population as the mix without the entry
            ("behavior_mix", ((PeerBehavior.honest(), 3), (PeerBehavior.persistent(), 0)),
             "behavior mix counts must be positive"),
        ],
        ids=["observed_pair", "requester", "candidate", "candidate_map_key",
             "two_budgets", "param_overrides_key", "reversed_observed_pairs",
             "reversed_requesters", "reversed_candidates", "reversed_param_overrides",
             "count_0_mix_entry"],
    )
    def test_repeated_entry_rejected(self, field, value, message):
        # one order rule for every id list: a repeat is an item that does not
        # rise above the one before it, like any other out of order
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("exp", ["e1", "e4", "e5", "e2"])
    def test_permuted_builder_config_rejected(self, exp):
        # e1, e4 and e5 with their keyed lists reversed, or e2 with one
        # candidate list reversed, run as the builder's config does; sorting
        # the lists again gives back the builder's config and its digest
        cfg = build_experiment(exp)
        d = config_to_dict(cfg)
        if exp == "e2":
            lists, name = [d["candidate_map"][0][1]], r"candidate_map\[0\]"
        else:
            lists = [d[field] for field in ("observed_pairs", "candidate_map", "param_overrides")]
            name = "observed_pairs" if len(cfg.observed_pairs) > 1 else "candidate_map"
        for items in lists:
            items.reverse()
        with pytest.raises(ValueError, match=f"^{name} must be strictly increasing: "):
            config_from_dict(d)
        for items in lists:
            items.sort()
        assert config_digest(config_from_dict(d)) == config_digest(cfg)

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((2, (), 1), "requester 2 has no candidates"),
            ((2, (0, 1), 0), "requester 2 has request budget 0, expected >= 1"),
        ],
        ids=["no_candidates", "zero_budget"],
    )
    def test_entries_for_non_requesters_rejected(self, entry, message):
        # an entry makes its peer a requester: one that could never request is refused
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(candidate_map=((0, (1, 2), 1), entry)).validate()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ((0, (2, 3)), r"candidate_map\[0\]: expected 3 items, got 2$"),
            (7, r"candidate_map\[0\]: expected a tuple, got 7$"),
            ((0, (2, 3), 1.0), r"candidate_map\[0\]\[2\]: expected int, got 1\.0$"),
            ((0, (2, 3), "2"), r"candidate_map\[0\]\[2\]: expected int, got '2'$"),
            # saved as `true`, which load_config refuses
            ((0, (2, 3), True), r"candidate_map\[0\]\[2\]: expected int, got True$"),
        ],
        ids=["two_items", "not_a_triple", "float_budget", "str_budget", "bool_budget"],
    )
    def test_malformed_candidate_map_entry_named(self, entry, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(build_experiment("e2"), candidate_map=(entry,))

    @pytest.mark.parametrize("name", ["", "../escaped", "sub/dir", "a\\b", "a\0b"])
    def test_name_must_be_file_stem(self, name):
        # the name is joined into output paths
        with pytest.raises(ValueError, match="^name must be a file-name stem"):
            tiny_config(name=name)

    def test_invalid_config_cannot_be_constructed(self):
        with pytest.raises(ValueError, match="rounds must be positive"):
            tiny_config(rounds=0)

    def test_replace_cannot_make_invalid_config(self):
        with pytest.raises(ValueError, match="rounds must be positive"):
            replace(build_experiment("e2"), rounds=0)

    @pytest.mark.parametrize("field, value", [
        ("rounds", 44.0), ("seed", 1.0), ("seed", True), ("warmup_rounds", 0.0),
        ("measure_from", False), ("ads_per_round", 2.0), ("ads_per_round", "2"),
    ])
    def test_non_int_field_rejected(self, field, value):
        # each would be saved as a float, bool or string that load_config refuses
        with pytest.raises(ValueError, match=f"^{field}: expected int, got {value!r}$"):
            replace(build_experiment("e2"), **{field: value})

    @pytest.mark.parametrize("record, changes, message", [
        # ran as PDTM, but saved and reloaded ran as DTMA
        ("params", {"dt_model": "dtma"}, "dt_model: expected DTModel, got 'dtma'"),
        # built, then the first round raised a bare TypeError
        ("params", {"k_providers": 2.0}, "k_providers: expected int, got 2.0"),
        # built and saved, but load_config refused the file
        ("params", {"k_providers": True}, "k_providers: expected int, got True"),
        ("params", {"theta_g": True}, "theta_g: expected float, got True"),
        # was a bare TypeError
        ("params", {"theta_p": "0.5"}, "theta_p: expected float, got '0.5'"),
        # built, but the config could not be hashed
        ("config", {"candidate_map": [(0, (2, 3, 4), 3)]},
         r"candidate_map: expected a tuple, got \[\(0, \(2, 3, 4\), 3\)\]"),
        ("config", {"param_overrides": ((1, "x"),)},
         r"param_overrides\[0\]\[1\]: expected TrustParams, got 'x'"),
        # float and bool peer ids passed `in range(n_peers)`
        ("config", {"observed_pairs": ((0, 2.0),)}, r"observed_pairs\[0\]\[1\]: expected int"),
        ("config", {"observed_pairs": ((True, 2),)}, r"observed_pairs\[0\]\[0\]: expected int"),
        ("config", {"candidate_map": ((0, (2.0, 3, 4), 3),)},
         r"candidate_map\[0\]\[1\]\[0\]: expected int, got 2.0"),
        ("config", {"candidate_map": ((0.0, (2, 3, 4), 3),)},
         r"candidate_map\[0\]\[0\]: expected int, got 0.0"),
        ("config", {"param_overrides": ((1.0, TrustParams()),)},
         r"param_overrides\[0\]\[0\]: expected int, got 1.0"),
        # a bare TypeError from the file-stem check
        ("config", {"name": 5}, "name: expected str, got 5"),
        # an AttributeError from the behaviour checks
        ("config", {"behavior_mix": (("x", 3), (PeerBehavior.honest(), 4))},
         r"behavior_mix\[0\]\[0\]: expected PeerBehavior, got 'x'"),
    ], ids=["dt_model_str", "k_providers_float", "k_providers_bool", "theta_g_bool",
            "theta_p_str", "candidate_map_list", "override_params_str", "observed_float_id",
            "observed_bool_id", "candidate_float_id", "requester_float_id",
            "override_float_id", "name_int", "mix_behavior_str"])
    def test_python_api_refuses_what_no_file_holds(self, record, changes, message):
        cfg = build_experiment("e2")
        with pytest.raises(ValueError, match=f"^{message}"):
            if record == "params":
                replace(cfg.params, **changes)
            else:
                replace(cfg, **changes)

    def test_float_rounds_override_rejected(self):
        # it used to build a config that run_scenario failed on with a TypeError
        with pytest.raises(ValueError, match="^rounds: expected int, got 44.0$"):
            build_experiment("e3", rounds=44.0)

    @pytest.mark.parametrize("count", [2.0, True, -1])
    def test_mix_count_must_be_a_non_negative_int(self, count):
        # 2.0 was a bare TypeError, and True would be saved as `true`
        message = "^behavior mix counts must be positive$"
        if count != -1:
            message = rf"^behavior_mix\[1\]\[1\]: expected int, got {count!r}$"
        with pytest.raises(ValueError, match=message):
            tiny_config(behavior_mix=((PeerBehavior.honest(), 3), (PeerBehavior.honest(), count)))

    @pytest.mark.parametrize("value", [None, [0.0, 0.0], (0.0,)])
    def test_loss_rate_range_must_be_a_pair(self, value):
        # None was a bare TypeError; a list would reload as a tuple
        with pytest.raises(ValueError, match=r"^loss_rate_range: expected (a tuple|2 items), got "):
            replace(build_experiment("e2"), loss_rate_range=value)

    def test_every_valid_config_survives_save_and_load(self, tmp_path):
        path = str(tmp_path / "e2.cfg")
        cfg = replace(build_experiment("e2"), ads_per_round=2, seed=2 ** 64 - 1)
        save_config(cfg, path)
        assert load_config(path) == cfg


class TestRunScenario:
    def test_zero_attacker_goodput_is_one(self):
        report = run_scenario(tiny_config())
        rows = {s.peer: s for s in report.summary}
        assert rows[0].goodput == pytest.approx(1.0)
        assert rows[0].polluted_accepted == 0

    def test_trajectories_cover_every_round(self):
        cfg = tiny_config(rounds=15)
        report = run_scenario(cfg)
        rows = report.trajectories[(0, 1)]
        assert [r[0] for r in rows] == list(range(1, 16))
        for _, d, ind, alpha, combined in rows:
            for v in (d, ind, alpha, combined):
                assert 0.0 <= v <= 1.0

    def test_run_meta_carries_digest_and_version(self):
        cfg = tiny_config()
        report = run_scenario(cfg)
        assert report.run_meta["config_digest"] == config_digest(cfg)
        assert report.run_meta["name"] == "tiny"
        assert report.run_meta["engine_version"]

    @pytest.mark.parametrize("steps", [(), (9,), (9, 2)])
    def test_report_needs_every_round(self, steps):
        # goodput divides by the measured span of all cfg.rounds, so a
        # report of a run stopped early or advanced past them would be wrong
        run = Run(tiny_config(rounds=10))
        for rounds in steps:
            run.advance(rounds)
        with pytest.raises(ValueError, match=f"advanced through {sum(steps)} of 10 rounds"):
            run.report()

    def test_mean_requester_goodput_subsets(self):
        cfg = tiny_config()
        report = run_scenario(cfg)
        assert mean_requester_goodput(cfg, report) == pytest.approx(1.0)

    def test_mean_requester_goodput_skips_a_member_without_candidates(self):
        # e4 with one member: colluder 1 has no one to request from, so peer 0
        # alone is averaged; it receives only polluted chunks
        cfg = build_experiment("e4", group_size=1, rounds=20)
        report = run_scenario(cfg)
        assert [pid for pid, _, _ in cfg.candidate_map] == [0]
        assert mean_requester_goodput(cfg, report) == 0.0
        summary = [s._replace(goodput=float(s.peer + 1)) for s in report.summary]
        assert mean_requester_goodput(cfg, report._replace(summary=summary)) == 1.0

    def test_world_honours_per_peer_losses(self):
        cfg = tiny_config(
            behavior_mix=((PeerBehavior.honest(), 3),),
            loss_rate_range=(0.2, 0.4),
        )
        world = build_world(cfg)
        rates = [rec.loss_rate for rec in world.peers.values()]
        assert all(0.2 <= r <= 0.4 for r in rates)
        assert len(set(rates)) > 1

    def test_loss_rate_drawn_exactly_where_loss_pollutes(self):
        """A peer draws a loss rate exactly when `World.add_peer` takes one
        for its kind, and at loss rate 1 an upload it sends clean arrives
        polluted."""
        one_of_each = {
            BehaviorKind.HONEST: PeerBehavior.honest(),
            BehaviorKind.PERSISTENT: PeerBehavior.persistent(),
            BehaviorKind.ONOFF: PeerBehavior.onoff(2),
            BehaviorKind.BADMOUTH: PeerBehavior.badmouther((0,)),
            BehaviorKind.COLLAB_STATIC: PeerBehavior.collab_static((4, 6)),
            BehaviorKind.COLLAB_ROTATING: PeerBehavior.collab_rotating((5, 7)),
        }
        assert set(one_of_each) == set(BehaviorKind)
        behaviors = list(one_of_each.values())
        behaviors += behaviors[-2:]  # peers 6 and 7 complete the two groups
        world = build_world(tiny_config(
            behavior_mix=tuple((b, 1) for b in behaviors),
            loss_rate_range=(0.5, 0.5),
        ))
        forced = TrustParams(theta_p=0.0, theta_g=0.0)
        for pid, b in enumerate(behaviors):
            drawn = world.peers[pid].loss_rate == 0.5
            # peer pid uploads once, in round 1, to a requester at pid + 1
            lossy = World(seed=1)
            lossy.add_peer(pid + 1, PeerBehavior.honest(), forced, candidates=(pid,))
            try:
                lossy.add_peer(pid, b, forced, loss_rate=1.0)
            except ValueError:
                assert not drawn, b.kind
                continue
            run_round(lossy)
            assert upload_quality(b, pid, 1, 0) is ChunkQuality.CLEAN
            assert [ev.quality for ev in lossy.event_log] == [ChunkQuality.POLLUTED]
            assert drawn, b.kind

    def test_detection_round_reported(self):
        cfg = tiny_config(
            behavior_mix=((PeerBehavior.honest(), 2), (PeerBehavior.persistent(), 1)),
            candidate_map=((0, (1, 2), 2),),
            rounds=10,
        )
        report = run_scenario(cfg)
        rows = {s.peer: s for s in report.summary}
        assert rows[2].detection_round is not None
        assert rows[1].detection_round is None

    def test_overlapping_collusion_groups_rejected(self):
        overlapping = (
            (PeerBehavior.collab_rotating((1, 2)), 2),
            (PeerBehavior.collab_rotating((2, 0)), 1),
        )
        with pytest.raises(ValueError, match="collusion group"):
            tiny_config(behavior_mix=overlapping).validate()

    @pytest.mark.parametrize("mix", [
        # peer 2 is named but honest
        ((PeerBehavior.honest(), 1), (PeerBehavior.collab_rotating((1, 2)), 1),
         (PeerBehavior.honest(), 1)),
        # peer 2 carries the group but is not named
        ((PeerBehavior.honest(), 1), (PeerBehavior.collab_static((1,)), 2)),
    ])
    def test_group_members_are_exactly_its_carriers(self, mix):
        with pytest.raises(ValueError, match=r"collusion group \[1(, 2)?\] is carried by peers"):
            tiny_config(behavior_mix=mix)

    @pytest.mark.parametrize("kind, lossless", [
        ("persistent", PeerBehavior.persistent()),
        ("onoff", PeerBehavior.onoff(2)),
        ("collab_rotating", PeerBehavior.collab_rotating((1, 2))),
    ])
    def test_loss_rate_no_upload_reads_rejected(self, kind, lossless):
        # World.add_peer refuses a loss rate on a kind whose uploads it never
        # corrupts, so build_world draws none for it, whatever the range
        with pytest.raises(ValueError, match=f"^loss_rate is read only .*, not {kind}$"):
            World(seed=1).add_peer(1, lossless, TrustParams(), loss_rate=0.3)
        world = build_world(tiny_config(
            behavior_mix=((PeerBehavior.honest(), 1), (lossless, 2)),
            loss_rate_range=(0.3, 0.3)))
        assert [rec.loss_rate for rec in world.peers.values()] == [0.3, 0.0, 0.0]

    def test_loss_rate_kept_where_it_is_read(self):
        # each lossy peer keeps its drawn rate on its record, and the peers
        # of one behaviour share its one object
        honest = PeerBehavior.honest()
        world = build_world(tiny_config(behavior_mix=((honest, 3),), loss_rate_range=(0.3, 0.3)))
        assert [rec.loss_rate for rec in world.peers.values()] == [0.3] * 3
        assert all(rec.behavior is honest for rec in world.peers.values())

    def test_e6_world_holds_one_behaviour_object_per_role(self):
        world = build_world(build_experiment("e6"))
        assert len({id(rec.behavior) for rec in world.peers.values()}) == 3


class TestRunGrid:
    def test_points_in_product_order_last_axis_fastest(self):
        runs = list(run_grid(tiny_config, {"seed": (3, 1), "rounds": (2, 5, 4)}))
        assert [point for point, _ in runs] == [
            {"seed": s, "rounds": r} for s in (3, 1) for r in (2, 5, 4)
        ]
        for point, run in runs:
            assert (run.cfg.seed, run.cfg.rounds, run.world.round) == (
                point["seed"], point["rounds"], point["rounds"])
            assert run.report().summary == run_scenario(run.cfg).summary

    def test_empty_grid_runs_one_point(self):
        runs = list(run_grid(partial(tiny_config, rounds=3), {}))
        assert [point for point, _ in runs] == [{}]
        assert runs[0][1].world.round == 3

    def test_bad_last_point_raises_before_any_round(self, monkeypatch):
        from pollushield import scenarios

        calls = []
        run_round = scenarios.run_round
        monkeypatch.setattr(
            scenarios, "run_round", lambda world: calls.append(world.round) or run_round(world))
        with pytest.raises(ValueError, match="rounds must be positive"):
            run_grid(tiny_config, {"seed": (1, 2), "rounds": (3, 0)})
        assert calls == []
        # the hook counts: a good grid goes through it
        list(run_grid(tiny_config, {"rounds": (3,)}))
        assert calls == [0, 1, 2]
