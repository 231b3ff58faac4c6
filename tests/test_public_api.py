"""The package's exported names: each resolves, none repeats, and the
retired trust wrappers stay unexported."""

import pollushield


def test_every_export_resolves():
    for name in pollushield.__all__:
        assert hasattr(pollushield, name), name


def test_no_export_repeats():
    assert len(set(pollushield.__all__)) == len(pollushield.__all__)


def test_retired_trust_wrappers_not_exported():
    retired = {"apply_decay", "direct_trust_from_counts", "confidence_from_count",
               "query_indirect", "evaluate_components"}
    assert retired.isdisjoint(pollushield.__all__)
    assert not any(hasattr(pollushield, name) for name in retired)


def test_bench_hooks_resolve():
    # the call sites a run goes through, where their callers look them up:
    # perfbench's tracer wraps them there, and its worker validates each
    # config it builds; the test oracle and work counts patch the scoring
    # kernel and its walk
    from pollushield import scenarios, sim_engine

    hooks = {
        sim_engine: ("upload_quality", "recommendation_value", "direct_trust",
                     "score_candidates", "_walk_recommenders"),
        scenarios: ("run_round", "score_candidates", "build_world", "config_digest"),
    }
    for module, names in hooks.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert callable(scenarios.ScenarioConfig.validate)
