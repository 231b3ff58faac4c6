"""Golden-file regression: frozen digests of every experiment's CSV output,
and of the scenario configs the experiment builders produce.

These pin the byte-exact behavior of the full pipeline (config building,
world seeding, round scheduling, trust math, CSV formatting) for one seed.
A digest change means observable behavior drifted: either a bug, or an
intentional change that must update the constants below alongside a note in
the commit. e3 and e6 observe no per-pair trajectories, so their trajectory
files are header-only and legitimately share a digest.

FULL_PRECISION_SHA256 pins ten configs, the variants included, at seed 1
and full float precision, so a change that moves only a last bit, or only
a variant, fails too. It was computed with CPython 3.11.7 on x86_64 Linux
(glibc 2.36). `math.exp` comes from the platform's libm, so another
platform may differ in a last bit; the six-decimal GOLDEN_SHA256 stays the
portable pin.
"""

import hashlib
import os

import pytest

from pollushield.cli import run_command
from pollushield.scenarios import Run, build_experiment, config_digest

GOLDEN_SHA256 = {
    ("e1", "trajectories"): "b195a4fe7a25bb378866d9dc9b86b8afc0147a3227ea2fb3fcd3b3aba2b42eae",
    ("e1", "summary"): "ac34c658fe5c5a3d4b1d24b8fa3ca0f673ae7ca6771d679ab692ae01ab5644fa",
    ("e2", "trajectories"): "64e71129de7162c7213b2eae9662d4003b39b327c8fc54d53cdaaf801a028bf9",
    ("e2", "summary"): "ec209d6dedbb91b4ea611cf06833deb69ab611cbea39755553b5b5d553063cad",
    ("e3", "trajectories"): "26779dbacb6680ad67152f3bcde2556ef4654a9ceb5b963d7124fcbaf0716db8",
    ("e3", "summary"): "de2406705e4b39f91342f7c9ddb5bd38c0027026ea439aa65926999c5bfcef23",
    ("e4", "trajectories"): "9a45be07e18191ccc0637a152c41bb9717a96eb7737795199d9642d6e9a001c0",
    ("e4", "summary"): "9c9fc7c9b39cbd4a6c9c728177db1df53e13032b9237c08178707786507244e5",
    ("e5", "trajectories"): "033d799795087f156babdb81025976f75b50034ec079962e44378a4ea76746c5",
    ("e5", "summary"): "bc3dd30b3d3f90bba996c903641d40a1f3d66aa5e7a63a8eee8e15fc751ef482",
    ("e6", "trajectories"): "26779dbacb6680ad67152f3bcde2556ef4654a9ceb5b963d7124fcbaf0716db8",
    ("e6", "summary"): "4e7ef950a17992575e55feb928534ba49671e0f131bf96bc3b8c2e9ea76277b4",
}

EXPERIMENTS = sorted({exp for exp, _ in GOLDEN_SHA256})

# config_digest of build_experiment(exp, seed=7, **overrides): pins every
# builder's defaults and the config each override value produces.
CONFIG_SHA256 = {
    ("e1", ()): "813f46ce1d253c9db368885f3d76f87b0a8230979d20b746a93267ff9e5731f3",
    ("e2", ()): "e08fa048b39ac5235d33b24c51c2e32278f59273e612f4de105f5622efc96ad4",
    ("e3", ()): "d44d7fafafbc5a0d393ceb55a1dcef83d03a55599d7f6549eace0b8805f09093",
    ("e3", (("policy", "proposed"),)): "d44d7fafafbc5a0d393ceb55a1dcef83d03a55599d7f6549eace0b8805f09093",
    ("e3", (("policy", "single"),)): "93eb6dbc481cb560662591cbc1bd7081db4b26c5d39e18bba522ffca8c50886b",
    ("e3", (("policy", "peertrust"),)): "9a9c1ea6a89e0a1ca70c254c89f278b663ba3606ae5222c8622fde01bb33807e",
    ("e3", (("loss_rate", 0.04),)): "670afb4cfb8a9e9222aefc9a9673968e3a9fec116b7a34b848373b74d58e6ccd",
    ("e4", ()): "a96eadacba562f135fec0838f5b95b3513fa7c02b70336504aed12ddbc5a4d9f",
    ("e4", (("mode", "static"),)): "46de93c338bd43978bf3ad4aa74c47ffd4001d68ee1386f92a17fb2ab4710b15",
    ("e4", (("group_size", 5),)): "0d32eb772d7cf3b6fa4120c6a1204aa59ac05c774b787856e5ea16ed88472d13",
    ("e5", ()): "93ec0485126f782031a02e6b10babba2dbb7b159d142fb06793731b3fe7ecbe7",
    ("e6", ()): "a9d63be640cd75d02bcf2aabac69a639ed0950b529319c9c6832eb90c7b507da",
    ("e6", (("policy", "proposed"),)): "a9d63be640cd75d02bcf2aabac69a639ed0950b529319c9c6832eb90c7b507da",
    ("e6", (("policy", "single"),)): "521d9805b7ed27cdcfa6b50e0ceb997597dcca9fc008a96da05cc7bc89cb4131",
    ("e6", (("policy", "peertrust"),)): "ba8685ee2924487393f8ecb311912eb7fabf605edb4dddee672f1e72459ff6a7",
    ("e6", (("malicious_fraction", 0.0),)): "a7a7ca73dc0b20e81b949e52fd3b5f5690315a5797386715b9bab23f5cebef13",
    ("e6", (("malicious_fraction", 0.5),)): "632fa0a81c22e39f84df0a9c1a0a76ee5236555991fdb1c23e215a321deea82f",
}


@pytest.mark.parametrize("exp", EXPERIMENTS)
def test_golden_digests(exp, tmp_path):
    out = tmp_path / exp
    assert run_command(["run", "--experiment", exp, "--seed", "7", "--out", str(out)]) == 0
    for kind in ("trajectories", "summary"):
        path = out / f"{exp}_{kind}.csv"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[(exp, kind)], (
            f"{exp} {kind} output drifted from the pinned golden digest "
            f"({digest}); if the change is intentional, update GOLDEN_SHA256"
        )


@pytest.mark.parametrize("exp,overrides", sorted(CONFIG_SHA256, key=repr))
def test_config_digests(exp, overrides):
    digest = config_digest(build_experiment(exp, seed=7, **dict(overrides)))
    assert digest == CONFIG_SHA256[(exp, overrides)], (
        f"{exp} {dict(overrides)} config drifted from the pinned digest ({digest}); "
        "if the change is intentional, update CONFIG_SHA256"
    )


# sha-256 of the repr of (sorted trajectories, summary, sorted detections,
# event log) of build_experiment(exp, seed=1, **overrides); see the module
# docstring for the platform.
FULL_PRECISION_SHA256 = {
    ("e1", ()): "50bce1192d26540a6386a504cc60d031d2305a82bee91a6c5f0ffed70eaea86d",
    ("e2", ()): "cbb901020310e3ab77df8dce612f13d17e626d2a2b65cf43dcc1c5795ea00435",
    ("e3", (("loss_rate", 0.08),)): "5e59d9bba24860be43a0f5345c407895a54627fbce6358b93fbd1db74e0d9898",
    ("e3", (("policy", "single"),)): "a902e1d6f6bddbaa0ac2ff7ffe22d6263c1cba511863f7268786419fc2f50835",
    ("e4", ()): "1b863cee5ad361428137a37cfac8746b52207bf31fd83e9c096ac566ae01e308",
    ("e4", (("mode", "static"),)): "6b1cb5e943918b87966bbbb74fc72fb7515ff4fb0aec76b6cd7101a081f7d9f7",
    ("e4", (("group_size", 24), ("rounds", 40))): "b733e1b7fe123358fee7a92235c8950531447dfe15bedf32d5df569448173cd3",
    ("e5", ()): "8110feeb4744f9831814be3f2632185e49abb797ba7468f3c88fa7e5c5916e26",
    ("e6", (("malicious_fraction", 0.5),)): "e27d4a256933a425d299e9188afed12d789dd978c7fa0c327bc3447ca0ea277e",
    ("e6", (("policy", "peertrust"),)): "1e7f4333557f3f8414390acc3ce0f65edee4737e515ede702a24f3ecc49228c5",
}


def full_precision_digest(cfg):
    run = Run(cfg).advance(cfg.rounds)
    report, world = run.report(), run.world
    text = repr((sorted(report.trajectories.items()), report.summary,
                 sorted(world.detections.items()), world.event_log))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "exp,overrides", sorted(FULL_PRECISION_SHA256, key=repr),
    ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v) or "default",
)
def test_full_precision_digests(exp, overrides):
    digest = full_precision_digest(build_experiment(exp, seed=1, **dict(overrides)))
    assert digest == FULL_PRECISION_SHA256[(exp, overrides)], (
        f"{exp} {dict(overrides)} output drifted at full precision ({digest}); "
        "if the change is intentional, update FULL_PRECISION_SHA256"
    )
