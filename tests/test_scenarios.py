import math
from dataclasses import replace

import pytest

from pollushield.behaviors import BehaviorKind, PeerBehavior
from pollushield.scenarios import (
    EXPERIMENT_IDS,
    ScenarioConfig,
    build_experiment,
    build_world,
    config_digest,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    mean_requester_goodput,
    run_scenario,
    save_config,
)
from pollushield.trust_core import CFModel, DTModel, TrustParams


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

    @pytest.mark.parametrize("exp, rounds", [("e3", 24), ("e3", 10), ("e6", 24), ("e6", 0)])
    def test_population_rounds_must_pass_warmup(self, exp, rounds):
        with pytest.raises(ValueError, match=f"rounds must be >= 25.*got {rounds}$"):
            build_experiment(exp, rounds=rounds)
        assert build_experiment(exp, rounds=25).rounds == 25

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
        ratios = {b.on_ratio for b, _ in cfg.behavior_mix if b.kind is BehaviorKind.ONOFF}
        assert ratios == {0.5, 0.2, 0.1}
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


class TestConfigFiles:
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
            (("n_peers",), "5"),
            (("params", "theta_p"), "0.5"),
            (("behavior_mix", 0, 0, "kind"), "bogus"),
            (("policy",), {"kind": "proposed", "theta": None}),
        ],
        ids=["seed_float", "rounds_bool", "n_peers_str", "theta_p_str", "kind_bogus",
             "policy_leftover"],
    )
    def test_wrong_type_or_unknown_value_rejected(self, path, value):
        d = config_to_dict(build_experiment("e2"))
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=str(path[-1])):
            config_from_dict(d)


def tiny_config(**kwargs):
    params = TrustParams(
        cf_model=CFModel.CFDA, dt_model=DTModel.PDTM, theta_p=0.0, theta_g=0.0,
        k_providers=2,
    )
    defaults = dict(
        name="tiny",
        n_peers=3,
        rounds=20,
        seed=9,
        behavior_mix=((PeerBehavior.honest(), 3),),
        params=params,
        requesters=(0,),
        candidate_map=((0, (1, 2)),),
        observed_pairs=((0, 1),),
        detection_threshold=0.5,
        measure_from=0,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestValidation:
    def test_mix_count_mismatch(self):
        with pytest.raises(ValueError, match="behavior mix"):
            tiny_config(behavior_mix=((PeerBehavior.honest(), 2),)).validate()

    def test_self_observation_rejected(self):
        with pytest.raises(ValueError, match="observed pair"):
            tiny_config(observed_pairs=((1, 1),)).validate()

    def test_unknown_requester_rejected(self):
        with pytest.raises(ValueError, match="requester"):
            tiny_config(requesters=(7,)).validate()

    def test_warmup_must_fit(self):
        with pytest.raises(ValueError, match="warmup_rounds"):
            tiny_config(warmup_rounds=20).validate()

    def test_candidate_self_reference_rejected(self):
        with pytest.raises(ValueError, match="candidate"):
            tiny_config(candidate_map=((0, (0,)),)).validate()

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("observed_pairs", ((0, 1), (0, 1)), "observed_pairs"),
            ("requesters", (0, 0), "requesters"),
            ("candidate_map", ((0, (1, 2, 1)),), r"candidate_map\[0\]"),
            ("candidate_map", ((0, (1,)), (0, (2,))), "candidate_map"),
            ("request_budgets", ((0, 2), (0, 3)), "request_budgets"),
            ("param_overrides", ((1, TrustParams()), (1, TrustParams(chi=0.1))),
             "param_overrides"),
        ],
        ids=["observed_pair", "requester", "candidate", "candidate_map_key",
             "request_budgets_key", "param_overrides_key"],
    )
    def test_repeated_entry_rejected(self, field, value, name):
        with pytest.raises(ValueError, match=f"^{name} repeats"):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("candidate_map", ((0, (1, 2)), (2, (1,)), (1, (0,)))),
            ("request_budgets", ((0, 2), (2, 3), (1, 1))),
        ],
    )
    def test_entries_for_non_requesters_rejected(self, field, value):
        # only requesters request: the entries of peers 1 and 2 would be ignored
        with pytest.raises(ValueError, match=rf"^{field} has entries for non-requesters \[1, 2\]"):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("value", [math.nan, 7.0, -0.1, math.inf])
    def test_detection_threshold_out_of_range_rejected(self, value):
        with pytest.raises(ValueError, match="detection_threshold"):
            tiny_config(detection_threshold=value).validate()

    @pytest.mark.parametrize("value", [None, 0.0, 1.0])
    def test_detection_threshold_bounds_accepted(self, value):
        tiny_config(detection_threshold=value).validate()

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

    def test_mean_requester_goodput_subsets(self):
        cfg = tiny_config()
        report = run_scenario(cfg)
        assert mean_requester_goodput(cfg, report) == pytest.approx(1.0)
        assert mean_requester_goodput(cfg, report, peers=[0]) == pytest.approx(1.0)

    def test_world_honours_per_peer_losses(self):
        cfg = tiny_config(
            behavior_mix=((PeerBehavior.honest(), 3),),
            loss_rate_range=(0.2, 0.4),
        )
        world = build_world(cfg)
        rates = [rec.behavior.loss_rate for rec in world.peers.values()]
        assert all(0.2 <= r <= 0.4 for r in rates)
        assert len(set(rates)) > 1

    def test_detection_round_reported(self):
        cfg = tiny_config(
            behavior_mix=((PeerBehavior.honest(), 2), (PeerBehavior.persistent(), 1)),
            candidate_map=((0, (1, 2)),),
            request_budgets=((0, 2),),
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
