import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pollushield import BehaviorKind, cli, replace
from pollushield.cli import run_command
from pollushield.metrics import MetricsReport, PeerSummary, emit_csv, paired_seeds
from pollushield.scenarios import (
    EXPERIMENT_IDS, EXPERIMENT_OVERRIDES, ScenarioConfig, build_experiment, config_digest,
    config_to_dict, load_config, save_config,
)
from pollushield.trust_core import CFModel, DTModel, Record


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunCommand:
    def test_experiment_happy_path(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_command(["run", "--experiment", "e2", "--seed", "42", "--out", str(out)])
        assert code == 0
        assert (out / "e2_trajectories.csv").exists()
        assert (out / "e2_summary.csv").exists()
        assert (out / "e2_meta.json").exists()
        assert "e2" in capsys.readouterr().out
        # 6 observed pairs x 50 rounds + header
        lines = (out / "e2_trajectories.csv").read_text().splitlines()
        assert len(lines) == 301

    def test_scenario_file_single_pair(self, tmp_path):
        cfg = build_experiment("e2", seed=3)
        from pollushield import replace

        cfg = replace(cfg, observed_pairs=((0, 2),), name="pair")
        path = tmp_path / "pair.cfg"
        save_config(cfg, str(path))
        out = tmp_path / "out"
        assert run_command(["run", "--scenario", str(path), "--out", str(out)]) == 0
        lines = (out / "pair_trajectories.csv").read_text().splitlines()
        assert len(lines) == 51  # header + 50 rounds

    def test_seed_flag_overrides_scenario_seed(self, tmp_path):
        path = tmp_path / "s5.cfg"
        save_config(build_experiment("e2", seed=5), str(path))
        out = tmp_path / "out"
        assert run_command(
            ["run", "--scenario", str(path), "--seed", "1", "--out", str(out)]
        ) == 0
        assert json.loads((out / "e2_meta.json").read_text())["seed"] == 1

    @pytest.mark.parametrize(
        "sweep",
        ["loss_rate=0,0.02", "malicious_fraction=0.1", "policy=single", "mode=static",
         "group_size=5"],
    )
    def test_sweep_on_builder_only_key_rejected(self, tmp_path, capsys, sweep):
        path = tmp_path / "e2.cfg"
        save_config(build_experiment("e2"), str(path))
        code = run_command(
            ["run", "--scenario", str(path), "--sweep", sweep, "--out", str(tmp_path)]
        )
        assert code == 1
        assert sweep.partition("=")[0] in capsys.readouterr().err

    def test_pre_0_2_0_scenario_with_policy_rejected(self, tmp_path, capsys):
        d = config_to_dict(build_experiment("e2"))
        d["behavior_mix"] = [{"behavior": b, "count": n} for b, n in d["behavior_mix"]]
        d["policy"] = {"kind": "proposed", "theta": None}
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert "policy" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("n_peers", 5, "unknown config fields: ['n_peers']"),
        ("requesters", [0, 1], "unknown config fields: ['requesters']"),
        ("measure_from", None, "config.measure_from: expected int, got None"),
    ])
    def test_pre_0_3_0_scenario_rejected(self, tmp_path, capsys, key, value, message):
        # format 0.3.0 derives n_peers and the requesters, and measure_from is a number
        d = config_to_dict(build_experiment("e2"))
        d[key] = value
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("request_budgets", [[0, 3], [1, 3]], "unknown config fields: ['request_budgets']"),
        ("candidate_map", [[0, [2, 3, 4]], [1, [2, 3, 4]]],
         "config.candidate_map[0]: expected 3 items, got 2"),
    ])
    def test_pre_0_4_0_scenario_rejected(self, tmp_path, capsys, key, value, message):
        # format 0.4.0 writes each requester's budget into its candidate_map entry
        d = config_to_dict(build_experiment("e2"))
        d[key] = value
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("exp, where, key, value, message", [
        ("e2", (), "detection_threshold", 0.5, "unknown config fields"),
        ("e5", (), "warmup_budget", 3, "unknown config fields"),
        ("e1", ("behavior_mix", 1, 0), "slander_prob", 1.0,
         "unknown config.behavior_mix[1][0] fields"),
        ("e4", ("behavior_mix", 1, 0), "rotation_period", 1,
         "unknown config.behavior_mix[1][0] fields"),
    ], ids=["detection_threshold", "warmup_budget", "slander_prob", "rotation_period"])
    def test_pre_0_5_0_scenario_rejected(self, tmp_path, capsys, exp, where, key, value,
                                         message):
        # format 0.5.0 fixes these four settings at the one value every
        # builder gave them, which a 0.4.0 file still holds
        d = config_to_dict(build_experiment(exp))
        target = d
        for step in where:
            target = target[step]
        target[key] = value
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{message}: ['{key}']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cfg, where, key, value, message", [
        # e5 draws its honest providers' rates from loss_rate_range
        (build_experiment("e5"), ("behavior_mix", 0, 0), "loss_rate", 0.9,
         "unknown config.behavior_mix[0][0] fields: ['loss_rate']"),
        # an on-off peer's uploads are never lossy
        (build_experiment("e2"), ("behavior_mix", 1, 0), "loss_rate", 0.3,
         "unknown config.behavior_mix[1][0] fields: ['loss_rate']"),
        (build_experiment("e4", mode="static"), ("behavior_mix", 1, 0), "designated_polluter", 1,
         "unknown config.behavior_mix[1][0] fields: ['designated_polluter']"),
        (build_experiment("e2"), (), "loss_rate_range", None,
         "config.loss_rate_range: expected a tuple, got None"),
    ], ids=["ignored_loss_rate", "loss_rate_the_kind_never_reads", "designated_polluter",
            "null_loss_rate_range"])
    def test_pre_0_6_0_scenario_rejected(self, tmp_path, capsys, cfg, where, key, value,
                                         message):
        # format 0.6.0 states loss only as loss_rate_range, [0, 0] for none,
        # and a static group's polluter is its lowest member
        d = config_to_dict(cfg)
        target = d
        for step in where:
            target = target[step]
        target[key] = value
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("on_ratio, period, message", [
        (0.5, None, "unknown config.behavior_mix[1][0] fields: ['on_ratio']"),
        (None, 1, "period must be an int >= 2, got 1"),
        (None, 2.0, "config.behavior_mix[1][0].period: expected int, got 2.0"),
    ], ids=["on_ratio", "period_1", "float_period"])
    def test_pre_0_7_0_scenario_rejected(self, tmp_path, capsys, on_ratio, period, message):
        # format 0.7.0 states an on-off peer's period, one polluted chunk per
        # `period` uploads, where a 0.6.0 file held its polluted share
        d = config_to_dict(build_experiment("e2"))
        behavior = d["behavior_mix"][1][0]
        assert behavior["kind"] == "onoff"
        if on_ratio is not None:
            del behavior["period"]
            behavior["on_ratio"] = on_ratio
        else:
            behavior["period"] = period
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("reorder, message", [
        (lambda d: d["candidate_map"].reverse(),
         "candidate_map must be strictly increasing: 9 follows 10"),
        (lambda d: d["behavior_mix"].append([d["behavior_mix"][0][0], 0]),
         "behavior mix counts must be positive"),
    ], ids=["reversed_candidate_map", "count_0_mix_entry"])
    def test_pre_0_8_0_scenario_rejected(self, tmp_path, capsys, reorder, message):
        # format 0.8.0 lists every id list strictly increasing and no mix
        # entry of count 0, so a run has one spelling
        d = config_to_dict(build_experiment("e4"))
        reorder(d)
        path = tmp_path / "old.cfg"
        path.write_text(json.dumps(d, sort_keys=True, indent=2))
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value", ["NaN", "7.0", "-0.5", "null"])
    def test_bad_detection_threshold_rejected(self, tmp_path, capsys, value):
        # detection_threshold is no longer a field, so a file holding any
        # value for it, in range or not, is refused by name
        d = config_to_dict(build_experiment("e2"))
        d["detection_threshold"] = "PLACEHOLDER"
        path = tmp_path / "threshold.cfg"
        path.write_text(json.dumps(d).replace('"PLACEHOLDER"', value))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config fields: ['detection_threshold']" in err
        assert "Traceback" not in err

    def test_missing_scenario_names_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = run_command(["run", "--scenario", str(missing)])
        assert code == 1
        assert "missing.cfg" in capsys.readouterr().err

    def test_malformed_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("{not json")
        assert run_command(["run", "--scenario", str(bad)]) == 1
        assert "bad.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "5", '"x"', "null"])
    def test_non_object_scenario_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "top.cfg"
        path.write_text(text)
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"config: expected an object, got {json.loads(text)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("rho", "NaN"), ("eta", "Infinity"),
                                            ("forgiving", "-Infinity")])
    def test_non_finite_scenario_param_rejected(self, tmp_path, capsys, key, value):
        # json accepts these literals; TrustParams must not
        d = config_to_dict(build_experiment("e2"))
        d["params"][key] = "PLACEHOLDER"
        path = tmp_path / "nonfinite.cfg"
        path.write_text(json.dumps(d).replace('"PLACEHOLDER"', value))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err
        assert "Traceback" not in err

    def test_invalid_rounds_override_rejected(self, tmp_path, capsys):
        path = tmp_path / "e2.cfg"
        save_config(build_experiment("e2"), str(path))
        code = run_command(
            ["run", "--scenario", str(path), "--rounds", "0", "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "e2.cfg" in err
        assert "rounds" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["../escaped", "sub/dir", "a\u0000b"])
    def test_name_outside_out_rejected(self, tmp_path, capsys, name):
        d = config_to_dict(build_experiment("e2"))
        d["name"] = name
        path = tmp_path / "named.cfg"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        code = run_command(["run", "--scenario", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "named.cfg" in err
        assert "name must be a file-name stem" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.rglob("*")] == ["named.cfg"]

    def test_deeply_nested_scenario_rejected(self, tmp_path, capsys):
        path = tmp_path / "deep.cfg"
        path.write_text("[" * 200_000)
        assert run_command(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "deep.cfg" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry, message", [
        ([2, [], 3], "requester 2 has no candidates"),
        ([2, [0, 1], 0], "requester 2 has request budget 0, expected >= 1"),
    ], ids=["no_candidates", "zero_budget"])
    def test_entry_for_non_requester_rejected(self, tmp_path, capsys, entry, message):
        # every candidate_map entry makes its peer a requester: peer 2 could never request
        d = config_to_dict(build_experiment("e2"))
        d["candidate_map"].append(entry)
        path = tmp_path / "stray.cfg"
        path.write_text(json.dumps(d))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exp, overrides, field, edit, strays", [
        # a rotating group of four member peers that also names peer 99
        ("e4", {"mode": "rotating", "group_size": 4}, "group", [1, 2, 3, 4, 99], [99]),
        # a bad-mouther slandering peer 500 in a 13-peer world
        ("e1", {}, "target_set", [500], [500]),
    ])
    def test_behavior_naming_non_peer_rejected(
            self, tmp_path, capsys, exp, overrides, field, edit, strays):
        d = config_to_dict(build_experiment(exp, **overrides))
        for behavior, _ in d["behavior_mix"]:
            if behavior[field]:
                behavior[field] = edit
        path = tmp_path / "stray.cfg"
        path.write_text(json.dumps(d))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"behavior_mix {field} names non-peers {strays}" in err
        assert "Traceback" not in err

    def test_field_the_kind_never_reads_rejected(self, tmp_path, capsys):
        # an honest peer never reads period: the file would run as plain honest
        d = config_to_dict(build_experiment("e2"))
        d["behavior_mix"][0][0]["period"] = 2
        path = tmp_path / "stray.cfg"
        path.write_text(json.dumps(d))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "period is read only by kind onoff, not honest" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_diagnostics_logged_once_and_stored(self, tmp_path, capsys):
        # e5's newcomer overrides the base params, and both forgive faster
        # than they forget: one distinct message, one stderr line
        out = tmp_path / "out"
        assert run_command(
            ["run", "--experiment", "e5", "--rounds", "12", "--out", str(out)]
        ) == 0
        meta = json.loads((out / "e5_meta.json").read_text())
        assert len(meta["diagnostics"]) == 1
        assert "forgetting <= forgiving" in meta["diagnostics"][0]
        assert capsys.readouterr().err.splitlines() == [f"warning: e5: {meta['diagnostics'][0]}"]

    def test_no_diagnostics_for_clean_params(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_command(["run", "--experiment", "e2", "--out", str(out)]) == 0
        assert json.loads((out / "e2_meta.json").read_text())["diagnostics"] == []
        assert capsys.readouterr().err == ""

    def test_unknown_experiment_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_command(["run", "--experiment", "e9"])
        assert err.value.code == 2

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = run_command(["run", "--experiment", "e1", "--out", str(blocker)])
        assert code == 3
        assert "blocked" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_command(
                ["run", "--experiment", "e1", "--seed", "7", "--out", str(out)]
            ) == 0
        for name in ("e1_trajectories.csv", "e1_summary.csv", "e1_meta.json"):
            assert read(a / name) == read(b / name)

    def test_rounds_override(self, tmp_path):
        out = tmp_path / "out"
        assert run_command(
            ["run", "--experiment", "e1", "--rounds", "10", "--out", str(out)]
        ) == 0
        lines = (out / "e1_trajectories.csv").read_text().splitlines()
        assert len(lines) == 21  # 2 pairs x 10 rounds + header

    def test_sweep_produces_per_value_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run_command(
            ["run", "--experiment", "e1", "--sweep", "seed=1,2", "--out", str(out)]
        )
        assert code == 0
        assert (out / "e1_seed_1_trajectories.csv").exists()
        assert (out / "e1_seed_2_trajectories.csv").exists()

    @pytest.mark.parametrize(
        "target, validations",
        [
            (["--scenario", "{cfg}"], 1),                                   # load
            (["--scenario", "{cfg}", "--sweep", "seed=3"], 2),              # load, replace
            (["--experiment", "e1", "--rounds", "3"], 1),                   # build
            (["--experiment", "e1", "--rounds", "3", "--sweep", "seed=3"], 2),  # build, rename
        ],
        ids=["scenario", "scenario-sweep", "experiment", "experiment-sweep"],
    )
    def test_each_config_validated_once_per_build(
        self, tmp_path, monkeypatch, target, validations
    ):
        """A scenario file's overrides and sweep-point name go into one
        `replace`, and a plain scenario run replaces nothing."""
        path = tmp_path / "e1.cfg"
        save_config(build_experiment("e1", rounds=3), str(path))
        calls = []
        validate = ScenarioConfig.validate
        monkeypatch.setattr(
            ScenarioConfig, "validate", lambda cfg: calls.append(cfg.name) or validate(cfg)
        )
        argv = [arg.format(cfg=path) for arg in target]
        assert run_command(["run", *argv, "--out", str(tmp_path)]) == 0
        assert len(calls) == validations, calls

    @pytest.mark.parametrize(
        "target, sweep",
        [(["--experiment", "e1"], "rounds=5,0"), (["--scenario", "{cfg}"], "rounds=4,0")],
        ids=["experiment", "scenario"],
    )
    def test_bad_sweep_value_writes_nothing(self, tmp_path, capsys, target, sweep):
        """Every point is built before any runs, so the good first point
        writes no file either."""
        path = tmp_path / "e2.cfg"
        save_config(build_experiment("e2"), str(path))
        out = tmp_path / "out"
        argv = [arg.format(cfg=path) for arg in target]
        assert run_command(["run", *argv, "--sweep", sweep, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "rounds must be positive" in err
        assert ("e2.cfg" in err) == ("--scenario" in target)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--experiment", "e5", "--rounds", "10"],
         "rounds must be >= 11 (10 warmup rounds + 1), got 10"),
        (["--experiment", "e3", "--sweep", "loss_rate=0,1.5"], "loss_rate must lie in [0, 1]"),
    ], ids=["e5_rounds", "e3_loss_rate"])
    def test_builder_error_names_the_override(self, tmp_path, capsys, argv, message):
        # the caller set rounds or loss_rate, not the config fields they become
        out = tmp_path / "out"
        assert run_command(["run", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "warmup_rounds" not in err and "loss_rate_range" not in err
        assert not out.exists()

    def test_sweep_value_overrides_seed_flag(self, tmp_path):
        out = tmp_path / "out"
        assert run_command(
            ["run", "--experiment", "e1", "--seed", "5", "--sweep", "seed=2", "--out", str(out)]
        ) == 0
        assert json.loads((out / "e1_seed_2_meta.json").read_text())["seed"] == 2

    def test_sweep_rejects_repeated_values(self, tmp_path, capsys):
        # 1 and 01 cast to the same seed and would write e2_seed_1_* three times
        out = tmp_path / "out"
        code = run_command(
            ["run", "--experiment", "e2", "--sweep", "seed=1,01,2,1", "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.rstrip().endswith("repeated values 1")
        assert not out.exists()

    def test_sweep_value_is_cast_to_its_canonical_form(self, tmp_path, capsys):
        # -0.0 names its files and digests its config as 0.0 does, so the two
        # are one value
        out = tmp_path / "out"
        argv = ["run", "--experiment", "e3", "--rounds", "25", "--out", str(out)]
        assert run_command([*argv, "--sweep", "loss_rate=-0.0"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            f"e3_loss_rate_0p0_{kind}"
            for kind in ("meta.json", "summary.csv", "trajectories.csv")]
        meta = json.loads((out / "e3_loss_rate_0p0_meta.json").read_text())
        cfg = replace(build_experiment("e3", loss_rate=0.0, rounds=25), name="e3_loss_rate_0p0")
        assert meta["config_digest"] == config_digest(cfg)
        assert run_command([*argv, "--sweep", "loss_rate=0.0,-0.0"]) == 1
        assert capsys.readouterr().err.rstrip().endswith("repeated values 0.0")

    @pytest.mark.parametrize("sweep", ["volume=11", "loss_rate=0.1"])
    def test_bad_sweep_key(self, tmp_path, capsys, sweep):
        code = run_command(
            ["run", "--experiment", "e1", "--sweep", sweep, "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sweep" in err
        assert sweep.partition("=")[0] in err


def test_readme_sweep_key_table_matches_code():
    """README's `| target | sweep keys |` table is written by hand: each row
    lists its targets' override names, values in parentheses aside."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("  | target | sweep keys |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.lstrip().startswith("|"):
            break
        targets, keys = (cell.strip() for cell in line.strip().strip("|").split("|"))
        keys = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", keys))
        for target in targets.split(", "):
            assert target not in rows, f"{target} has two rows"
            rows[target] = keys
    expected = {exp: list(EXPERIMENT_OVERRIDES[exp]) for exp in EXPERIMENT_IDS}
    expected["`--scenario` file"] = list(cli._sweep_keys(None))
    assert rows == expected


# --- single-leaf scenario-file mutations --------------------------------------

RECORD_BASES = {
    "e1": build_experiment("e1", rounds=5),
    "e2": build_experiment("e2", rounds=5),
    "e4": build_experiment("e4", rounds=5, group_size=4),
}
MUTATION_BASES = {exp: config_to_dict(cfg) for exp, cfg in RECORD_BASES.items()}


def leaf_paths(node, path=()):
    """Paths to every scalar, empty list and empty object of a JSON tree."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


LEAVES = [(exp, path) for exp, d in MUTATION_BASES.items() for path in leaf_paths(d)]
# wrong types, enum values of other fields, and edge numbers; no count is
# large, and `rounds` never grows, so no mutant runs long
REPLACEMENTS = (
    None, True, False, -1, 0, 1, 2, 7, -0.0, 0.0, 0.5, 1.0, 1.5, 1e-320, 1e308,
    math.inf, -math.inf, math.nan, "", "x", "onoff", "collab_static", "dtmb", "constant",
    [], {},
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(REPLACEMENTS))
@example(leaf=("e2", ("behavior_mix", 1, 0, "period")), value=1)
def test_single_leaf_mutation_exits_cleanly(leaf, value):
    """A scenario file with one leaf replaced either runs (exit 0) or is
    refused as a bad config (exit 1), and never ends in a traceback."""
    exp, path = leaf
    d = copy.deepcopy(MUTATION_BASES[exp])
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    growing = path[-1] == "rounds" and type(value) in (int, float) and value > old
    assume(not growing)
    parent[path[-1]] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "mutant.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_command(
                ["run", "--scenario", cfg_path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()


FLOAT_LEAVES = [(exp, path) for exp, path in LEAVES
                if type(functools.reduce(operator.getitem, path, MUTATION_BASES[exp])) is float]


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["big", "minus_big"])
@pytest.mark.parametrize(
    "leaf", FLOAT_LEAVES, ids=lambda leaf: "-".join(map(str, (leaf[0], *leaf[1]))))
def test_int_beyond_float_range_exits_cleanly(tmp_path, capsys, leaf, value):
    """A float leaf holding an int no float can hold, which JSON reads
    exactly, is refused naming the leaf's path; no traceback. Not one of
    REPLACEMENTS: in an int leaf such as a mix count it would build a world
    of that many peers."""
    exp, path = leaf
    d = copy.deepcopy(MUTATION_BASES[exp])
    functools.reduce(operator.getitem, path[:-1], d)[path[-1]] = value
    cfg_path = tmp_path / "mutant.cfg"
    cfg_path.write_text(json.dumps(d), encoding="utf-8")
    code = run_command(["run", "--scenario", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    where = "config" + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)
    assert code == 1
    assert f"{where}: expected float, got an int too large" in err
    assert "Traceback" not in err


def record_leaf_paths(node, path=()):
    """Paths to every scalar, enum member and empty tuple of a config."""
    if isinstance(node, tuple) and node:
        for i, value in enumerate(node):
            yield from record_leaf_paths(value, path + (i,))
    elif isinstance(node, Record):
        for name in node._fields:
            yield from record_leaf_paths(getattr(node, name), path + (name,))
    else:
        yield path


def with_leaf(node, path, value):
    """`node` with the leaf at `path` replaced by `value`, each record on the
    way rebuilt through `replace`."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(node, tuple):
        return node[:key] + (with_leaf(node[key], rest, value),) + node[key + 1:]
    return replace(node, **{key: with_leaf(getattr(node, key), rest, value)})


RECORD_LEAVES = [(exp, path) for exp, cfg in RECORD_BASES.items()
                 for path in record_leaf_paths(cfg)]
# the file mutations' values, plus what only the Python API can hold
RECORD_REPLACEMENTS = REPLACEMENTS + (
    [0, 1], (), (1,), (0, 1), (0.5, 0.5), (True,),
    CFModel.CONSTANT, DTModel.DTMA, BehaviorKind.HONEST, BehaviorKind.ONOFF,
)


def leaf_of(node, path):
    for key in path:
        node = node[key] if isinstance(node, tuple) else getattr(node, key)
    return node


@settings(derandomize=True, deadline=None, max_examples=200)
@given(leaf=st.sampled_from(RECORD_LEAVES), value=st.sampled_from(RECORD_REPLACEMENTS))
@example(leaf=("e1", ("params", "c")), value=2)
@example(leaf=("e1", ("param_overrides", 0, 1, "cf_constant")), value=-0.0)
@example(leaf=("e2", ("loss_rate_range", 1)), value=1)
@example(leaf=("e4", ("loss_rate_range", 0)), value=-0.0)
def test_single_leaf_replace_builds_only_what_a_file_holds(leaf, value):
    """The Python-API twin of the file mutations: a config with one leaf
    replaced either is refused with ValueError when it is built, or
    survives save and load unchanged, digest included. A float leaf given
    an int or -0.0 holds `float(value) + 0.0`, so the config is its twin
    built with that float, digest included."""
    exp, path = leaf
    try:
        cfg = with_leaf(RECORD_BASES[exp], path, value)
    except ValueError:
        return
    if type(leaf_of(RECORD_BASES[exp], path)) is float and type(value) in (int, float):
        twin = with_leaf(RECORD_BASES[exp], path, float(value) + 0.0)
        assert repr(leaf_of(cfg, path)) == repr(float(value) + 0.0)
        assert cfg == twin
        assert config_digest(cfg) == config_digest(twin)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "mutant.cfg")
        save_config(cfg, cfg_path)
        loaded = load_config(cfg_path)
    assert loaded == cfg
    assert config_digest(loaded) == config_digest(cfg)


class TestCsvFormat:
    def make_report(self):
        return MetricsReport(
            trajectories={(0, 1): [(1, 1 / 3, 0.5, 0.0, 2 / 3)]},
            summary=[
                PeerSummary(0, "honest", 1 / 3, 0, None, 4),
                PeerSummary(1, "persistent", 0.0, 2, 7, 1),
            ],
            run_meta={"name": "fmt", "seed": 1},
        )

    def test_six_digit_half_even_rounding(self, tmp_path):
        paths = emit_csv(self.make_report(), str(tmp_path))
        traj = Path(paths[0]).read_text().splitlines()
        assert traj[0] == "round,observer,subject,direct,indirect,alpha,trust"
        assert traj[1] == "1,0,1,0.333333,0.500000,0.000000,0.666667"

    def test_detection_round_empty_when_never_detected(self, tmp_path):
        paths = emit_csv(self.make_report(), str(tmp_path))
        rows = Path(paths[1]).read_text().splitlines()
        assert rows[0] == "peer,behavior,goodput,polluted_accepted,detection_round,requests_received"
        assert rows[1] == "0,honest,0.333333,0,,4"
        assert rows[2] == "1,persistent,0.000000,2,7,1"

    def test_meta_is_sorted_json(self, tmp_path):
        paths = emit_csv(self.make_report(), str(tmp_path))
        meta = json.loads(Path(paths[2]).read_text())
        assert meta == {"name": "fmt", "seed": 1}

    def test_emit_returns_written_paths(self, tmp_path):
        paths = emit_csv(self.make_report(), str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "fmt_trajectories.csv",
            "fmt_summary.csv",
            "fmt_meta.json",
        ]


class TestPairedSeeds:
    @pytest.mark.parametrize("wins, losses, p", [
        (5, 0, 0.0625),       # 2 / 2^5
        (4, 1, 0.375),        # 2 (1 + 5) / 2^5
        (3, 2, 1.0),          # 2 (1 + 5 + 10) / 2^5, capped
        (10, 0, 0.001953125),  # 2 / 2^10
    ])
    def test_exact_sign_test(self, wins, losses, p):
        got = paired_seeds([1.0] * wins + [0.0] * losses, [0.0] * wins + [1.0] * losses)
        assert (got.wins, got.losses, got.ties, got.p_value) == (wins, losses, 0, p)

    def test_ties_are_dropped(self):
        got = paired_seeds([0.5, 0.4, 0.3, 0.3], [0.25, 0.4, 0.5, 0.3])
        assert got.diffs == [0.25, 0.0, -0.2, 0.0]
        assert got.mean_diff == pytest.approx(0.0125)
        assert (got.wins, got.losses, got.ties, got.p_value) == (1, 1, 2, 1.0)

    def test_all_ties_give_p_one(self):
        assert paired_seeds([0.2, 0.2], [0.2, 0.2]) == ([0.0, 0.0], 0.0, 0, 0, 2, 1.0)

    def test_unpaired_lists_rejected(self):
        with pytest.raises(ValueError):
            paired_seeds([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            paired_seeds([], [])
