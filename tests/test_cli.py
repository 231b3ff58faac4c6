import json
import os
from pathlib import Path

import pytest

from pollushield.cli import run_command
from pollushield.metrics import MetricsReport, PeerSummary, emit_csv
from pollushield.scenarios import build_experiment, config_to_dict, save_config


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
        from dataclasses import replace

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

    @pytest.mark.parametrize("value", ["NaN", "7.0", "-0.5"])
    def test_bad_detection_threshold_rejected(self, tmp_path, capsys, value):
        # NaN would switch detection off and 7.0 would detect every peer at once
        d = config_to_dict(build_experiment("e2"))
        d["detection_threshold"] = "PLACEHOLDER"
        path = tmp_path / "threshold.cfg"
        path.write_text(json.dumps(d).replace('"PLACEHOLDER"', value))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "detection_threshold" in err
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

    @pytest.mark.parametrize("field, entry", [("candidate_map", [2, [0]]),
                                              ("request_budgets", [2, 3])])
    def test_entry_for_non_requester_rejected(self, tmp_path, capsys, field, entry):
        # e2's requesters are peers 0 and 1: peer 2's entry would be ignored
        d = config_to_dict(build_experiment("e2"))
        d[field].append(entry)
        path = tmp_path / "stray.cfg"
        path.write_text(json.dumps(d))
        code = run_command(["run", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{field} has entries for non-requesters [2]" in err
        assert "Traceback" not in err

    def test_diagnostics_logged_once_and_stored(self, tmp_path, caplog):
        # e5's newcomer overrides the base params, and both forgive faster
        # than they forget: one distinct message, one log record
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="pollushield"):
            assert run_command(
                ["run", "--experiment", "e5", "--rounds", "12", "--out", str(out)]
            ) == 0
        meta = json.loads((out / "e5_meta.json").read_text())
        assert len(meta["diagnostics"]) == 1
        assert "forgetting <= forgiving" in meta["diagnostics"][0]
        assert [r.getMessage() for r in caplog.records] == [f"e5: {meta['diagnostics'][0]}"]

    def test_no_diagnostics_for_clean_params(self, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level("WARNING", logger="pollushield"):
            assert run_command(["run", "--experiment", "e2", "--out", str(out)]) == 0
        assert json.loads((out / "e2_meta.json").read_text())["diagnostics"] == []
        assert caplog.records == []

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

    @pytest.mark.parametrize("sweep", ["volume=11", "loss_rate=0.1"])
    def test_bad_sweep_key(self, tmp_path, capsys, sweep):
        code = run_command(
            ["run", "--experiment", "e1", "--sweep", sweep, "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sweep" in err
        assert sweep.partition("=")[0] in err


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
