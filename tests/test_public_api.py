"""The package's exported names: each resolves, none repeats, and the
retired trust wrappers stay unexported; its version matches the project
metadata; and a run stays lean on imports: no OpenSSL, no `dataclasses`
and so no `inspect`."""

import subprocess
import sys
from pathlib import Path

import pytest

import pollushield


def test_every_export_resolves():
    for name in pollushield.__all__:
        assert hasattr(pollushield, name), name


def test_no_export_repeats():
    assert len(set(pollushield.__all__)) == len(pollushield.__all__)


def test_record_replace_exported():
    # configs, params and behaviours are not dataclasses: dataclasses.replace
    # does not apply to them, pollushield.replace does
    assert pollushield.replace is pollushield.trust_core.replace


def test_retired_trust_wrappers_not_exported():
    retired = {"apply_decay", "direct_trust_from_counts", "confidence_from_count",
               "query_indirect", "evaluate_components", "indirect_trust"}
    assert retired.isdisjoint(pollushield.__all__)
    assert not any(hasattr(pollushield, name) for name in retired)


def test_bench_hooks_resolve(monkeypatch):
    # the call sites a run goes through, where their callers look them up:
    # perfbench's tracer wraps them there, and its worker validates each
    # config it builds; the test oracle and work counts patch provider
    # selection, the scoring kernel, its ranking and sums, and the delivery
    # update
    from pollushield import scenarios, sim_engine

    for name in ("upload_quality", "recommendation_value", "direct_trust",
                 "select_providers", "score_candidates", "_walk_recommenders",
                 "_sum_reports", "record_delivery"):
        assert callable(getattr(sim_engine, name, None)), f"sim_engine.{name}"
    assert callable(scenarios.ScenarioConfig.validate)

    # a run must look up its scenarios hooks at call time, or a wrapper
    # put there counts nothing
    calls = dict.fromkeys(("build_world", "run_round", "score_candidates", "config_digest"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scenarios, name, counting(name, getattr(scenarios, name)))
    cfg = scenarios.build_experiment("e2")
    scenarios.run_scenario(cfg)
    observers = len({observer for observer, _ in cfg.observed_pairs})
    assert calls == {"build_world": 1, "run_round": cfg.rounds,
                     "score_candidates": cfg.rounds * observers, "config_digest": 1}


LEAN_RUN = """
import sys
import typing
hint_calls = []
get_type_hints = typing.get_type_hints
typing.get_type_hints = lambda *args, **kwargs: (
    hint_calls.append(args) or get_type_hints(*args, **kwargs))
sys.path.insert(0, sys.argv[1])
from pollushield import scenarios
from pollushield.metrics import emit_csv
emit_csv(scenarios.run_scenario(scenarios.build_experiment("e2")), sys.argv[2])
records = (scenarios.ScenarioConfig, scenarios.TrustParams, scenarios.PeerBehavior)
print("_hashlib" in sys.modules, len(hint_calls),
      any(isinstance(tp, str) for cls in records for tp in cls.__annotations__.values()),
      "dataclasses" in sys.modules, "inspect" in sys.modules)
"""

LEAN_CLI_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from pollushield.cli import run_command
assert run_command(["run", "--experiment", "e2", "--out", sys.argv[2]]) == 0
print("dataclasses" in sys.modules, "inspect" in sys.modules)
"""


def lean_child(script, tmp_path):
    """stdout of `script` in a fresh interpreter (-I -S: only `src` on the
    path; -B: no bytecode written), after it emitted its CSVs"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script, src, str(tmp_path)],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr[-2000:]
    assert list(tmp_path.glob("*.csv"))
    return child.stdout.split()


def test_a_run_loads_no_openssl_and_evaluates_no_annotations(tmp_path):
    # config_digest hashes without hashlib's OpenSSL module; building and
    # encoding a config call no get_type_hints, since every record's
    # annotations are evaluated objects, never strings; the records are no
    # dataclasses, so neither `dataclasses` nor its `inspect` loads
    assert lean_child(LEAN_RUN, tmp_path) == ["False", "0", "False", "False", "False"]


def test_a_cli_run_loads_no_dataclasses(tmp_path):
    assert lean_child(LEAN_CLI_RUN, tmp_path)[-2:] == ["False", "False"]  # after its own line


def test_version_matches_pyproject():
    # every meta.json reports __version__ as engine_version
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == pollushield.__version__
