"""Run invariants: a run is a function of (config, seed) alone.

Reading trust stores nothing, so observing more pairs changes no delivery,
and every valid config keeps trust in range, conserves deliveries, survives
save -> load and replays exactly, also when the run is advanced in steps.
"""

import os
import tempfile
from pollushield import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pollushield.scenarios import (
    Run,
    build_experiment,
    dump_config,
    load_config,
    run_scenario,
    save_config,
)
from test_trust_cache import (
    differing_keys, fingerprint, reports_from_strangers, run_to_end, small_worlds,
)

READ_CASES = [(exp, seed) for exp in ("e1", "e2", "e4", "e5") for seed in (1, 2, 3)]
READ_CASES += [("e3", 1), ("e6", 1)]


def observing_every_request(cfg):
    """cfg, also observing every requester -> candidate pair."""
    extra = [
        (rid, c)
        for rid, cands, _ in cfg.candidate_map
        for c in cands
        if c != rid and (rid, c) not in cfg.observed_pairs
    ]
    return replace(cfg, observed_pairs=cfg.observed_pairs + tuple(extra))


@pytest.mark.parametrize("exp, seed", READ_CASES)
def test_extra_reads_leave_the_run_unchanged(exp, seed):
    """Observing every requester -> candidate pair as well changes neither
    the summary nor the trajectories of the pairs observed anyway."""
    cfg = build_experiment(exp, seed=seed)
    base = run_scenario(cfg)
    read_more = run_scenario(observing_every_request(cfg))
    assert read_more.summary == base.summary
    for pair in cfg.observed_pairs:
        assert read_more.trajectories[pair] == base.trajectories[pair], pair


def left_behind(report, world):
    """`fingerprint` of a run, with every peer's kept views and reports."""
    return dict(fingerprint(report, world),
                views=repr({pid: rec.views for pid, rec in world.peers.items()}),
                reports=repr({pid: rec.reports for pid, rec in world.peers.items()}))


def advanced_in_steps(cfg, *steps):
    """What a run leaves behind, kept values included, after advancing by
    each step."""
    run = Run(cfg)
    for rounds in steps:
        run.advance(rounds)
    return left_behind(run.report(), run.world)


SPLIT_CASES = [
    (build_experiment("e1"), 25),
    (build_experiment("e4", mode="rotating", group_size=24, rounds=40), 20),
    (build_experiment("e5"), 10),  # the warmup boundary
    (build_experiment("e5"), 25),
    (build_experiment("e3", seed=2, loss_rate=0.06), 22),  # every entry decays
]


@pytest.mark.parametrize("cfg, first", SPLIT_CASES,
                         ids=["e1", "e4", "e5_warmup", "e5_mid", "e3"])
def test_advancing_in_steps_equals_advancing_at_once(cfg, first):
    """A run carries all its state between rounds: stopping after `first`
    rounds and going on changes nothing a run leaves behind."""
    at_once = advanced_in_steps(cfg, cfg.rounds)
    assert differing_keys(advanced_in_steps(cfg, first, cfg.rounds - first), at_once) == []


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_worlds(), data=st.data())
def test_small_world_invariants(cfg, data):
    report, world = run_to_end(cfg)
    assert reports_from_strangers(world) == []
    for rows in report.trajectories.values():
        for row in rows:
            assert all(0.0 <= v <= 1.0 for v in row[1:]), row
    assert all(s.goodput >= 0.0 for s in report.summary)
    assert sum(s.requests_received for s in report.summary) == len(world.event_log)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        save_config(cfg, path)
        assert dump_config(load_config(path)) == dump_config(cfg)
    assert run_scenario(observing_every_request(cfg)).summary == report.summary
    # a fresh run, stopped after a drawn round and resumed, replays this one
    first = data.draw(st.integers(0, cfg.rounds), label="first")
    at_once = left_behind(report, world)
    assert differing_keys(advanced_in_steps(cfg, first, cfg.rounds - first), at_once) == []
